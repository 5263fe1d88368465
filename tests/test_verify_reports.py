"""Whole morphisms- and positivity-suite reports against stored
references.

``tests/data/morphisms`` holds ``descent verify --suite morphisms --format
json`` output as the CLI prints it. The ``-seed<k>`` files are passing
reports; together they reach every surjectivity rule, the fork block, the
quotient block and the random-pair branch at ranks 4 and 5. The
``-corrupt`` files are the reports produced when the restriction onto one
subset has one wrong entry: they pin which checks fail, their partial
counts and their first counterexamples.

``tests/data/positivity`` holds the positivity suite's reports the same
way, at seeds 0 and 7; its ``-corrupt-`` files are the reports produced
when the minimal polynomial (squared, or replaced by x^d of the same
degree), or the right ideal, of the 38th seeded element (index 37) is
wrong, and pin that element as the counterexample.

The ``-corrupt-`` files under ``tests/data/solomon-oracle``,
``tests/data/positivity`` and ``tests/data/morphisms`` listed in
``BRANCH_CORRUPTIONS`` pin the payloads of four more failure branches:
a product on which the two multiplication routes disagree, a character
value that rises from a subset to a larger one, a quotient whose
character identity fails after its set-level identities hold, and a
quotient whose set-level identities first fail at a pair of subsets
larger than its own. The
``.txt`` file is the text report, with its counterexample line.
"""

import dataclasses
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from descent import algebra as alg
from descent import cli
from descent import linalg
from descent import morphisms as mo
from descent import verify as ve

import oracles

DATA = os.path.join(os.path.dirname(__file__), "data")


def reference(name, suite="morphisms", ext="json"):
    with open(os.path.join(DATA, suite, "%s.%s" % (name, ext))) as f:
        return f.read()


@pytest.mark.parametrize("label,seed", [
    ("A3", 0), ("B3", 0), ("B4", 0), ("D4", 0), ("D5", 0), ("F4", 0),
    ("H3", 0), ("G2", 0), ("D5", 7)])
def test_morphisms_report_matches_reference(capsys, label, seed):
    code = cli.main(["verify", "--suite", "morphisms", "--type", label,
                     "--seed", str(seed), "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == reference("%s-seed%d" % (label, seed))


def test_rank_one_checks_each_quotient_once():
    # at rank 1 the full subset is also the only singleton
    report = ve.run_suite("morphisms", "A1", seed=0).to_dict()
    (check,) = [r for r in report["results"]
                if r["name"] == "quotient-morphism-identities"]
    assert check["detail"] == (
        "2 self-opposed subsets (empty, full, singletons)")


@pytest.mark.parametrize("label", ["A1", "D2", "D3", "B2", "A1xA1",
                                   "I2(5)", "B2xA1"])
def test_every_suite_reports_on_small_types(label):
    # rank one, the rank-two B and D, reducible and dihedral types: each
    # suite runs only the checks the rank allows, so D2 skips the
    # fork-chain check that drops a generator
    for suite in ve.SUITES:
        report = ve.run_suite(suite, label, seed=0)
        assert report.suite == suite and report.passed, (label, suite)


# (type, subset mask, row, column): the restriction onto that subset gets
# its entry at (row, column) raised by one
CORRUPTIONS = [("B4", 0b0110, 5, 1), ("D5", 0b01011, 9, 2)]


@pytest.mark.parametrize("label,kmask,row,col", CORRUPTIONS)
def test_failing_report_keeps_payloads(monkeypatch, label, kmask, row, col):
    original = mo.res_K

    def res_K(system, K):
        morphism = original(system, K)
        if (system.type_label != label
                or morphism.kmask != kmask):
            return morphism
        cols = np.array(morphism.columns)
        cols[row, col] += 1
        return mo.AlgebraMorphism(morphism.domain, morphism.codomain, cols,
                                  morphism.kmask)

    monkeypatch.setattr(mo, "res_K", res_K)
    report = ve.run_suite("morphisms", label, seed=0)
    assert not report.passed
    assert (json.dumps(report.to_dict(), indent=2, default=str) + "\n"
            == reference("%s-corrupt" % label))


@pytest.mark.parametrize("label", ["A3", "B3", "H3", "B4", "D4", "F4",
                                   "H4"])
@pytest.mark.parametrize("seed", [0, 7])
def test_positivity_report_matches_reference(capsys, label, seed):
    code = cli.main(["verify", "--suite", "positivity", "--type", label,
                     "--seed", str(seed), "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == reference(
        "%s-seed%d" % (label, seed), "positivity")


# (reference, type, stacked function, corruption of its entry for element
# 37); x^d has the degree of the true minimal polynomial but one repeated
# root, so a degree count alone would pass it
POSITIVITY_CORRUPTIONS = [
    ("minimal-polynomial", "B3", "minimal_polynomial",
     lambda p: oracles.poly_mul(p, p)),
    ("right-ideal", "D4", "right_ideal",
     lambda span: linalg.Span(span.width)),
    ("minimal-polynomial-same-degree", "B3", "minimal_polynomial",
     lambda p: (Fraction(0),) * (len(p) - 1) + (Fraction(1),)),
]


@pytest.mark.parametrize("ref,label,name,corrupt", POSITIVITY_CORRUPTIONS,
                         ids=[c[0].replace("-", "_")
                              for c in POSITIVITY_CORRUPTIONS])
def test_failing_positivity_report_names_the_element(monkeypatch, ref, label,
                                                     name, corrupt):
    # the suite passes its 100 elements first, then (for the ideals)
    # their 100 squares, in one stacked call each
    original = getattr(alg, name)

    def stacked(vectors):
        out = original(vectors)
        out[37] = corrupt(out[37])
        return out

    monkeypatch.setattr(alg, name, stacked)
    report = ve.run_suite("positivity", label, seed=0)
    assert not report.passed
    assert (json.dumps(report.to_dict(), indent=2, default=str) + "\n"
            == reference("%s-corrupt-%s" % (label, ref), "positivity"))


def corrupt_group_route(monkeypatch):
    # the group route's x[1,2] * x[3] in A3 gains x[]; the suite asks
    # for all basis products in one list call
    original = alg.oracle_multiply

    def oracle_multiply(left, right):
        out = original(left, right)
        system = left[0].system
        out[0b011][0b100] = out[0b011][0b100] + alg.basis_x(system, 0)
        return out

    monkeypatch.setattr(alg, "oracle_multiply", oracle_multiply)


def corrupt_character_rise(monkeypatch):
    # element 37 trades its character values at the empty and the full
    # subset: the values, and so the minimal polynomial check, are kept
    original = alg.character_values

    def character_values(vectors):
        values, dens = original(vectors)
        shape_of = vectors[0].system.shape_classes()[1]
        pair = [shape_of[0], shape_of[-1]]
        values[37, pair] = values[37, pair[::-1]]
        return values, dens

    monkeypatch.setattr(alg, "character_values", character_values)


def corrupt_quotient_characters(monkeypatch):
    # the character identity of the quotient by {1} fails
    original = mo.varpi_tau_check
    monkeypatch.setattr(mo, "varpi_tau_check",
                        lambda ctx: ctx.kmask != 0b001 and original(ctx))


def corrupt_quotient_sets(monkeypatch):
    # two images of the quotient by {1} trade places, so its set
    # identities first fail at a pair I, J both larger than {1}
    original = mo.build_context

    def build_context(system, K):
        ctx = original(system, K)
        if ctx.kmask != 0b001:
            return ctx
        images = ctx.images.copy()
        images[[1, 5]] = images[[5, 1]]
        return dataclasses.replace(ctx, images=images)

    monkeypatch.setattr(mo, "build_context", build_context)


# (reference, suite, type, format, corruption)
BRANCH_CORRUPTIONS = [
    ("A3-corrupt-group-route", "solomon-oracle", "A3", "json",
     corrupt_group_route),
    ("B3-corrupt-character-rise", "positivity", "B3", "json",
     corrupt_character_rise),
    ("B3-corrupt-character-rise", "positivity", "B3", "txt",
     corrupt_character_rise),
    ("B3-corrupt-quotient-characters", "morphisms", "B3", "json",
     corrupt_quotient_characters),
    ("B3-corrupt-quotient-sets", "morphisms", "B3", "json",
     corrupt_quotient_sets),
    ("B3-corrupt-quotient-sets", "morphisms", "B3", "txt",
     corrupt_quotient_sets),
]


@pytest.mark.parametrize(
    "ref,suite,label,ext,corrupt", BRANCH_CORRUPTIONS,
    ids=["%s-%s" % (c[0], c[3]) for c in BRANCH_CORRUPTIONS])
def test_failure_branch_payload(monkeypatch, capsys, ref, suite, label, ext,
                                corrupt):
    corrupt(monkeypatch)
    code = cli.main(["verify", "--suite", suite, "--type", label,
                     "--format", "json" if ext == "json" else "text"])
    assert code == 1
    assert capsys.readouterr().out == reference(ref, suite, ext)


def failed_checks(report):
    return {r["name"]: r for r in report.to_dict()["results"]
            if r["passed"] is False}


def test_factorization_failure_names_its_subset_at_rank_five(monkeypatch):
    # the coset-sum factorization of the restriction onto {1,2,4} fails
    original = mo.factorization_check
    monkeypatch.setattr(
        mo, "factorization_check",
        lambda morphism: morphism.kmask != 0b10110 and original(morphism))
    failed = failed_checks(ve.run_suite("morphisms", "D5", seed=0))
    assert list(failed) == ["restriction-factorization"]
    assert failed["restriction-factorization"]["counterexample"] == {
        "K": "{1,2,4}"}


def test_quotient_set_failure_names_its_pair_at_rank_five(monkeypatch):
    # the set identities of the quotient by {1} fail at I = {1,3},
    # J = {1,3,4}; the empty and full quotients come first, and the other
    # singletons are conjugate to each other
    original = mo.goetz1_set_check
    monkeypatch.setattr(
        mo, "goetz1_set_check",
        lambda ctx: (0b00101, 0b01101) if ctx.kmask == 0b00001
        else original(ctx))
    failed = failed_checks(ve.run_suite("morphisms", "B5", seed=0))
    assert list(failed) == ["quotient-morphism-identities"]
    check = failed["quotient-morphism-identities"]
    assert check["counterexample"] == {"K": "{1}", "I": "{1,3}",
                                       "J": "{1,3,4}"}
    assert check["detail"].startswith("3 self-opposed subsets")
