"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import descent  # noqa: E402
import descent.table  # noqa: E402
import descent.verify  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _load(name):
    with open(os.path.join(HERE, name) if name.endswith("references.json")
              else os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def _golden_rows():
    """GOLDEN and GOLDEN_E6 from tests/test_table.py, read, not imported."""
    with open(os.path.join(ROOT, "tests", "test_table.py")) as fh:
        tree = ast.parse(fh.read())
    rows = []
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and node.targets[0].id in ("GOLDEN", "GOLDEN_E6")):
            rows += ast.literal_eval(node.value)
    return rows


def test_table_references_match_golden_rows():
    refs = _load("references.json")["table"]
    golden = _golden_rows()
    assert len(golden) >= 20
    for label, order, orbits, ll, dims in golden:
        (row,) = [r for r in refs[label] if r["sigma_order"] == order]
        assert (row["lambda_orbits"], row["loewy_length"],
                tuple(row["radical_dims"])) == (orbits, ll, dims)


def test_references_cover_every_item():
    refs = _load("references.json")
    assert sum(len(rows) for rows in refs["table"].values()) == 40
    assert set(refs["build-cold"]) == set(wl.BuildCold.labels)
    assert set(refs["verify"]) == {"%s:%s" % pair for pair in wl.VERIFY_ROSTER}
    assert len(refs["mult"]) == wl.MULT_REQUESTS


def test_roster_covers_every_suite():
    assert {s for s, _ in wl.VERIFY_ROSTER} == set(descent.verify.SUITES)


def test_spec_names_workloads_and_metrics():
    spec = _load("BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_every_layer_metric_has_a_source():
    """A misspelt metric would silently read 0; each name must be a span
    field of a traced target or a counter something sets."""
    spans = {span for _, _, span in tr.TARGETS}
    spans |= {"verify.run_suite.%s" % s for s in descent.verify.SUITES}
    counters = {"coxeter.elements", "coxeter.tensors_computed",
                "cache.load_tensor.hits", "cache.load_tensor.misses",
                "cache.load_tensor.bytes", "cache.store_tensor.bytes",
                "linalg.Span.add.useful_ratio", "tracing.overhead_s",
                "cli.rank7_estimate_mb", "cli.rank7_rss_over_estimate"}
    for m in _load("BENCHMARK.json")["per_layer"]:
        span, _, field = m["name"].rpartition(".")
        assert m["name"] in counters or (
            span in spans and field in ("calls", "self_s", "total_s")), m


def test_tracer_wraps_every_binding_and_restores_them(tmp_path, monkeypatch):
    monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
    original = descent.coxeter.build_system
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for mod in (descent, descent.coxeter, descent.table,
                    descent.verify):
            assert mod.build_system is not original
        descent.table.build_row("A3", 1)
        descent.verify.run_suite("loewy-bounds", "A2")
    finally:
        tracer.uninstall()
    assert descent.table.build_row.__module__ == "descent.table"
    assert descent.table.build_system is original
    assert tracer.stats["coxeter.build_system"].calls == 2
    assert tracer.counts["coxeter.elements"] == 24 + 6
    assert tracer.counts["coxeter.tensors_computed"] == 2
    assert tracer.counts["cache.load_tensor.misses"] == 2
    assert tracer.stats["cache.store_tensor"].calls == 2
    row = tracer.stats["table.build_row"]
    assert 0 < row.self_s < row.total_s
    assert tracer.stats["verify.run_suite.loewy-bounds"].calls == 1
    assert 0 < tracer.value("linalg.Span.add.useful_ratio") <= 1


def test_tensor_invariants_hold_and_catch_a_wrong_entry(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
    tensor = descent.build_system(type="B3").structure_tensor().copy()
    assert wl.tensor_invariant_problems("B3", tensor) == []
    tensor[1, 2, 0] += 1
    assert wl.tensor_invariant_problems("B3", tensor) == ["Mackey count"]


def test_random_expressions_parse_for_every_type(tmp_path, monkeypatch):
    monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
    import random

    rng = random.Random(5)
    for label in ("A2", "D4", "I2(5)"):
        system = descent.build_system(type=label)
        for _ in range(20):
            text = wl.random_expression(rng, system.labels)
            descent.parse_expression(system, text)
