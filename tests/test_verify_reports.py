"""Whole morphisms-suite reports against stored references.

``tests/data/morphisms`` holds ``descent verify --suite morphisms --format
json`` output as the CLI prints it. The ``-seed<k>`` files are passing
reports; together they reach every surjectivity rule, the fork block, the
quotient block and the rank-5 random-pair branch. The ``-corrupt`` files
are the reports produced when the restriction onto one subset has one
wrong entry: they pin which checks fail, their partial counts and their
first counterexamples.
"""

import json
import os

import numpy as np
import pytest

from descent import cli
from descent import morphisms as mo
from descent import verify as ve

DATA = os.path.join(os.path.dirname(__file__), "data", "morphisms")


def reference(name):
    with open(os.path.join(DATA, name + ".json")) as f:
        return f.read()


@pytest.mark.parametrize("label,seed", [
    ("A3", 0), ("B3", 0), ("B4", 0), ("D4", 0), ("D5", 0), ("F4", 0),
    ("H3", 0), ("G2", 0), ("D5", 7)])
def test_morphisms_report_matches_reference(capsys, label, seed):
    code = cli.main(["verify", "--suite", "morphisms", "--type", label,
                     "--seed", str(seed), "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == reference("%s-seed%d" % (label, seed))


# (type, subset mask, row, column): the restriction onto that subset gets
# its entry at (row, column) raised by one
CORRUPTIONS = [("B4", 0b0110, 5, 1), ("D5", 0b01011, 9, 2)]


@pytest.mark.parametrize("label,kmask,row,col", CORRUPTIONS)
def test_failing_report_keeps_payloads(monkeypatch, label, kmask, row, col):
    original = mo.res_K

    def res_K(system, K):
        morphism = original(system, K)
        if (system.type_label != label
                or morphism.metadata["K"] != kmask):
            return morphism
        cols = np.array(morphism.columns)
        cols[row, col] += 1
        return mo.AlgebraMorphism(morphism.domain, morphism.codomain, cols,
                                  morphism.kind, morphism.metadata)

    monkeypatch.setattr(mo, "res_K", res_K)
    report = ve.run_suite("morphisms", label, seed=0)
    assert not report.passed
    assert (json.dumps(report.to_dict(), indent=2, default=str) + "\n"
            == reference("%s-corrupt" % label))
