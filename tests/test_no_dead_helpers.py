"""Every function and method of the package has a caller in the package.

A helper that only the tests call is a second surface to keep working; it
lives in the tests instead (``oracles.py``). The scan is by name: a
definition is live when its name appears as a word in the package source
outside every definition (module and class bodies, docstrings and
comments included) or inside another live definition, so a chain of
helpers that only feed each other is reported whole.
"""

import ast
import re
from pathlib import Path

import descent

SRC = Path(descent.__file__).parent

# the public names of the package are called by its users
EXPORTED = set(descent.__all__)
# linalg.nullspace has no caller in the package, but the benchmark's
# tracer wraps it by name as a per-layer span
ALLOWED = {"nullspace"}


def _words(lines):
    return set(re.findall(r"\w+", "\n".join(lines)))


def scan():
    """(definitions, outside): each module-level function and method as
    (qualified name, name, words of its source), and the words of the
    source outside every definition."""
    definitions, outside = [], set()
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        inside = set()
        for node in ast.parse("\n".join(lines)).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if not isinstance(member, ast.FunctionDef):
                    continue
                first = min(d.lineno for d in member.decorator_list + [member])
                span = range(first - 1, member.end_lineno)
                inside.update(span)
                qual = (member.name if member is node
                        else "%s.%s" % (node.name, member.name))
                definitions.append(("%s.%s" % (path.stem, qual), member.name,
                                    _words(lines[i] for i in span)))
        outside |= _words(line for i, line in enumerate(lines)
                          if i not in inside)
    return definitions, outside


def _exempt(name):
    # dunders are called by Python itself
    return (name in EXPORTED or name in ALLOWED
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
