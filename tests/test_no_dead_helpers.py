"""Every function and method of the package has a caller in the package.

A helper that only the tests call is a second surface to keep working; it
lives in the tests instead (``oracles.py``). The scan reads the code, not
the text: a definition is live when its name is used, as a name or as an
attribute, in the package outside every definition (module and class
bodies) or inside another live definition, so a chain of helpers that only
feed each other is reported whole. A name that appears only in a
docstring or a comment keeps nothing alive.
"""

import ast
from pathlib import Path

import descent

SRC = Path(descent.__file__).parent

# the public names of the package are called by its users
EXPORTED = set(descent.__all__)


def _uses(nodes):
    """The ids of the names and the attributes of the attribute accesses
    in the syntax trees ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def scan():
    """(definitions, outside): each module-level function and method as
    (qualified name, name, names it uses), and the names used outside
    every definition."""
    definitions, outside = [], set()
    for path in sorted(SRC.glob("*.py")):
        rest = []
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                members = [node]
            else:
                members = node.body
                rest += node.bases + node.decorator_list
            for member in members:
                if not isinstance(member, ast.FunctionDef):
                    rest.append(member)
                    continue
                qual = (member.name if member is node
                        else "%s.%s" % (node.name, member.name))
                definitions.append(("%s.%s" % (path.stem, qual), member.name,
                                    _uses([member])))
        outside |= _uses(rest)
    return definitions, outside


def _exempt(name):
    # dunders are called by Python itself
    return (name in EXPORTED
            or (name.startswith("__") and name.endswith("__")))


def dead_helpers():
    definitions, outside = scan()
    live = definitions
    while True:
        keep = [d for d in live if _exempt(d[1]) or d[1] in outside
                or any(d[1] in other[2] for other in live if other is not d)]
        if len(keep) == len(live):
            return sorted(d[0] for d in definitions if d not in live)
        # what only the dropped definitions called is dead too
        live = keep


def test_every_helper_has_a_caller_in_the_package():
    assert dead_helpers() == []
