"""Every function and method of the package has a caller in the package,
and every attribute it stores is read somewhere.

A helper that only the tests call is a second surface to keep working; it
lives in the tests instead (``oracles.py``). The scan reads the code, not
the text: a function is live when its name is used, as a name or as an
attribute, and a method when it is read as an attribute, in the package
outside every definition (module and class bodies) or inside another live
definition, so a chain of helpers that only feed each other is reported
whole. A name that appears only in a docstring or a comment keeps nothing
alive, and neither does a local variable of a method's name.

An attribute that a class stores, in its body or on ``self``, and that
nothing in the package, the tests or the benchmark ever reads is state
kept for no one; on a group table it is memory held for no one. So is a
name that a module binds at its top level and nothing reads.

What the package derives from an object it keeps one way: only
``coxeter.memoized`` and the group tables' ``_GroupTable`` read or write
an object's ``__dict__``.

Every error class that ``descent.errors`` offers its callers is one the
package raises; an error that only the tests raise lives with them.
"""

import ast
from pathlib import Path

import descent
from descent import errors

SRC = Path(descent.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# the public names of the package are called by its users
EXPORTED = set(descent.__all__)


def _uses(nodes):
    """(names, attributes): the ids of the names and the attributes of the
    attribute accesses in the syntax trees ``nodes``."""
    names, attributes = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attributes.add(sub.attr)
    return names, attributes


def scan():
    """(definitions, outside): each module-level function and method as
    (qualified name, name, whether it is a method, what it uses), and what
    is used outside every definition, each use a pair from ``_uses``."""
    definitions, rest = [], []
    for path in sorted(SRC.glob("*.py")):
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
                                    member is not node, _uses([member])))
    return definitions, _uses(rest)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _exempt(name):
    # dunders are called by Python itself
    return name in EXPORTED or _dunder(name)


def _used(definition, uses):
    _, name, method, _ = definition
    names, attributes = uses
    return name in attributes or (not method and name in names)


def dead_helpers():
    definitions, outside = scan()
    live = definitions
    while True:
        keep = [d for d in live if _exempt(d[1]) or _used(d, outside)
                or any(_used(d, other[3]) for other in live if other is not d)]
        if len(keep) == len(live):
            return sorted(d[0] for d in definitions if d not in live)
        # what only the dropped definitions called is dead too
        live = keep


def test_every_helper_has_a_caller_in_the_package():
    assert dead_helpers() == []


def _targets(node):
    """The single targets of an assignment target, tuples unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return [t for elt in node.elts for t in _targets(elt)]
    return [node]


def _self_attributes(method):
    """The attributes that a method assigns on ``self`` with ``=``."""
    return [t.attr for sub in ast.walk(method) if isinstance(sub, ast.Assign)
            for target in sub.targets for t in _targets(target)
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"]


def stored_attributes():
    """(qualified name, attribute) for each attribute a class of the
    package assigns with ``=``: a name bound in the class body, with or
    without an annotation (a dataclass field), or ``self.<name>`` in one
    of its methods; dunders are Python's."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if isinstance(member, ast.Assign):
                    names = [t.id for target in member.targets
                             for t in _targets(target)
                             if isinstance(t, ast.Name)]
                elif isinstance(member, ast.AnnAssign) and isinstance(
                        member.target, ast.Name):
                    names = [member.target.id]
                elif isinstance(member, ast.FunctionDef):
                    names = _self_attributes(member)
                else:
                    continue
                out |= {("%s.%s.%s" % (path.stem, cls.name, name), name)
                        for name in names if not _dunder(name)}
    return out


def _every_tree():
    """The syntax trees of the package, the tests and the benchmark."""
    return [ast.parse(path.read_text())
            for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                         *(ROOT / "perfbench").glob("*.py")]]


def read_names():
    """Every attribute read in the package, the tests and the benchmark;
    an augmented assignment reads its target."""
    out = set()
    for tree in _every_tree():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.AugAssign) and isinstance(
                    sub.target, ast.Attribute):
                out.add(sub.target.attr)
            elif isinstance(sub, ast.Attribute) and not isinstance(
                    sub.ctx, ast.Store):
                out.add(sub.attr)
    return out


def test_every_stored_attribute_is_read():
    read = read_names()
    assert sorted(q for q, name in stored_attributes()
                  if name not in read) == []


def module_bindings():
    """(qualified name, name) for each name a module of the package binds
    at its top level with ``=``."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                out |= {("%s.%s" % (path.stem, t.id), t.id)
                        for target in node.targets for t in _targets(target)
                        if isinstance(t, ast.Name)}
    return out


def test_every_module_binding_is_read():
    # a module constant is read as a name, or as an attribute of its
    # module
    read = read_names() | {
        sub.id for tree in _every_tree() for sub in ast.walk(tree)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
    assert sorted(q for q, name in module_bindings()
                  if name not in read) == []


def dict_readers():
    """The top-level definitions of the package, as module.name, that
    read or write an object's ``__dict__``, directly or through
    ``vars``."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "<module>")
            if any((isinstance(sub, ast.Attribute) and sub.attr == "__dict__")
                   or (isinstance(sub, ast.Call)
                       and isinstance(sub.func, ast.Name)
                       and sub.func.id == "vars")
                   for sub in ast.walk(node)):
                out.add("%s.%s" % (path.stem, name))
    return out


def test_one_memo_mechanism():
    # derived values are kept by ``memoized``; the group tables, which
    # one read builds all at once, by ``_GroupTable``
    assert dict_readers() == {"coxeter.memoized", "coxeter._GroupTable"}


def raised_names():
    """The names and attributes in the raised expression of every
    ``raise`` of the package, the exception's own call arguments left
    out."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Raise) and sub.exc is not None:
                exc = sub.exc
                names, attributes = _uses(
                    [exc.func if isinstance(exc, ast.Call) else exc])
                out |= names | attributes
    return out


def test_every_error_class_is_raised_by_the_package():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type)
               and issubclass(obj, errors.DescentError)}
    assert sorted(classes - {"DescentError"} - raised_names()) == []
