"""Every name the benchmark's tracer wraps exists in the package.

``perfbench/tracer.py`` lists its targets as (module, attribute path,
span name) triples in ``TARGETS``. A target whose name the package no
longer has is an error of the traced benchmark run only, so this test
reads the tuple from the tracer's source with ``ast``, without importing
the benchmark, and resolves each pair against the imported package.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def targets():
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS tuple in %s" % TRACER)


def test_every_tracer_target_resolves():
    pairs = [(module, path) for module, path, _span in targets()]
    assert pairs
    missing = []
    for module, path in pairs:
        obj = importlib.import_module("descent." + module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append("%s.%s" % (module, path))
    assert missing == []
