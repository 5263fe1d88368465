"""Acceptance gate: the eight headline guarantees, one test each.

Every test here is exact (integer or rational equality, no tolerances);
the names state what is being accepted. Run with -v to get one
PASSED/FAILED line per criterion.
"""

import time
from fractions import Fraction

import pytest

import descent.algebra as alg
import descent.automorphisms as au
import descent.cache as ca
import descent.morphisms as mo
import descent.table as tb
import descent.verify as ve
from descent.coxeter import build_system, iter_bits

import oracles


ROSTER_RANK_LE_3 = [
    "A1", "A2", "A3", "B2", "B3", "H3",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "A1xA1", "A2xA1", "B2xA1", "A1xA1xA1",
]

ROSTER_RANK_LE_4 = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H4",
    "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "A2xA1", "B2xA2",
]


def label_key(system, mask):
    return "".join(sorted(system.labels[p] for p in iter_bits(mask)))


def timed_row(label, order):
    start = time.monotonic()
    row = tb.build_row(label, order)
    return row, time.monotonic() - start


def test_criterion_1_summary_table_rows_exact():
    budgets = []

    def expect(label, order, orbits, ll, dims, budget=None):
        row, elapsed = timed_row(label, order)
        assert (row.lambda_orbit_count, row.loewy_length,
                row.radical_dims) == (orbits, ll, dims), label
        if budget is not None:
            budgets.append((label, order, elapsed, budget))

    expect("D4", 1, 11, 2, (16, 5))
    expect("D4", 2, 9, 2, (12, 3))
    expect("D4", 3, 7, 2, (8, 1))
    expect("F4", 1, 12, 2, (16, 4))
    expect("F4", 2, 8, 2, (10, 2))
    expect("H3", 1, 6, 2, (8, 2), budget=1.0)
    expect("H4", 1, 10, 2, (16, 6), budget=300.0)
    for m in (4, 6, 8):
        expect("I2(%d)" % m, 1, 4, 1, (4,), budget=1.0)
    for m in (3, 5, 7):
        expect("I2(%d)" % m, 1, 3, 2, (4, 1), budget=1.0)

    start = time.monotonic()
    expect("E6", 1, 17, 5, (64, 47, 28, 12, 3))
    expect("E6", 2, 17, 3, (40, 23, 5))
    e6_elapsed = time.monotonic() - start
    assert e6_elapsed < 1800.0

    for label, order, elapsed, budget in budgets:
        assert elapsed < budget, (label, order, elapsed)

    # cache reuse: a second build must be able to read the stored
    # structure constants back instead of recomputing them
    import os
    assert os.path.exists(ca.path_for("E6"))
    start = time.monotonic()
    again = tb.build_row("E6", 1)
    assert again.radical_dims == (64, 47, 28, 12, 3)
    assert time.monotonic() - start < 120.0
    print("criterion 1 (summary table rows, exact): PASS")


def test_criterion_2_loewy_lengths_exact():
    for n in (2, 3, 4, 5, 6):
        system = build_system(type="B%d" % n)
        assert alg.loewy_profile(system).loewy_length == (n + 1) // 2
    for n, expected in ((4, 2), (6, 3)):
        system = build_system(type="D%d" % n)
        assert alg.loewy_profile(system).loewy_length == expected
    d5 = alg.loewy_profile(build_system(type="D5")).loewy_length
    assert d5 >= 4
    print("computed rank-5 fork loewy length: %d" % d5)
    for label in tb.SUPPORTED_TYPES:
        system = build_system(type=label)
        fixed = au.loewy_profile_fixed(system, au.sigma0(system))
        assert fixed.loewy_length == (system.rank + 1) // 2, label
    print("criterion 2 (loewy lengths, exact): PASS")


def test_criterion_3_multiplication_matches_group_oracle(system_factory):
    for label in ROSTER_RANK_LE_3 + ["B4", "I2(7)"]:
        system = system_factory(label)
        size = 1 << system.rank
        basis = [alg.basis_x(system, m) for m in range(size)]
        slow = alg.oracle_multiply(basis, basis)
        for imask in range(size):
            for jmask in range(size):
                fast = alg.multiply(basis[imask], basis[jmask])
                assert fast == slow[imask][jmask], (label, imask, jmask)
    print("criterion 3 (multiplication vs group oracle, exhaustive): "
          "PASS")


def test_criterion_4_positive_element_properties():
    for label in ROSTER_RANK_LE_4:
        report = ve.run_suite("positivity", label, seed=0)
        assert report.passed, (label, report.render_text())
        names = {r.name for r in report.results}
        assert {"minimal-polynomial-squarefree",
                "square-right-ideal-stable",
                "square-left-ideal-stable",
                "square-centralizer-stable",
                "right-ideal-is-saturated-span",
                "tau-antitone-in-subsets"} <= names
    print("criterion 4 (positivity suite, 100 elements per system): "
          "PASS")


def test_criterion_5_counterexamples_exact(system_factory):
    a2 = system_factory("A2")
    a = alg.basis_x(a2, 0b01) - alg.basis_x(a2, 0b10)

    # 1. the radical line: its right ideal undershoots the span of its
    #    equivariant saturated family
    assert alg.right_ideal([a])[0].dim == 1
    fam = alg.saturated_family(a)
    assert sorted(fam) == [0b00, 0b01, 0b10]
    assert alg.family_span(a2, fam).dim == 3
    assert not alg.right_ideal([a])[0].equals(alg.family_span(a2, fam))

    # 2. left and right principal ideals can differ
    a3 = system_factory("A3")
    c = alg.basis_x(a3, 0b001) - alg.basis_x(a3, 0b110)
    witness = alg.basis_x(a3, 0b010) - alg.basis_x(a3, 0b100)
    assert alg.left_ideal([c])[0].contains(witness.x_coords())
    assert not alg.right_ideal([c])[0].contains(witness.x_coords())

    # 3. positive top coefficient without invertibility
    b = alg.basis_x(a2, 0b11) - alg.basis_x(a2, 0b10)
    assert Fraction(b.nums[a2.full_mask], b.den) == 1
    assert not oracles.is_invertible(b)
    assert 0 in oracles.tau_values(b)

    # 4. sum of principal ideals is not the ideal of the sum
    summed = oracles.span_sum(*alg.right_ideal([a, -1 * a]))
    collapsed = alg.right_ideal([a + (-1 * a)])[0]
    assert summed.dim == 1 and collapsed.dim == 0

    # 5. nilpotent element with square minimal polynomial
    p = alg.minimal_polynomial([a])[0]
    assert p == (Fraction(0), Fraction(0), Fraction(1))
    assert not oracles.poly_is_squarefree(p)
    assert alg.multiply(a, a).is_zero()
    print("criterion 5 (non-positive counterexamples, exact): PASS")


def test_criterion_6_morphism_identities(system_factory):
    # (a)-(e) for every subset of every rank <= 4 system, and of B5, D5
    # and E6, where the suite runs the same group-level checks
    for label in ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H4",
                  "I2(5)", "I2(6)", "A2xA1", "B5", "D5", "E6"]:
        report = ve.run_suite("morphisms", label, seed=0)
        assert report.passed, (label, report.render_text())

    # frozen surjectivity inventories for the two rank-4 exceptionals
    f4 = system_factory("F4")
    got = {label_key(f4, k) for k in range(16)
           if mo.surjectivity_report(mo.res_K(f4, k))["surjective"]}
    assert got == {"", "1", "2", "3", "4", "13", "14", "23", "24",
                   "123", "234", "1234"}
    h4 = system_factory("H4")
    got = {label_key(h4, k) for k in range(16)
           if mo.surjectivity_report(mo.res_K(h4, k))["surjective"]}
    assert got == {"", "1", "2", "3", "4", "123", "1234"}

    # size rule on the connected types whose verdict is size-determined
    for label in ["E6", "I2(6)", "H3"]:
        system = system_factory(label)
        for kmask in range(1 << system.rank):
            npos = len(mo.mask_positions(kmask))
            expect = npos <= 1 or kmask == system.full_mask
            report = mo.surjectivity_report(mo.res_K(system, kmask))
            assert report["surjective"] == expect, (label, kmask)

    # the fork-to-chain restriction lands exactly on the swap-fixed
    # subalgebra
    for n in (2, 3, 4, 5, 6):
        assert mo.res_bd_image_check(mo.res_BD(system_factory("B%d" % n)))

    # quotient morphism set identities with the short generator killed
    for label in ("B3", "B4"):
        system = system_factory(label)
        ctx = mo.build_context(system, 0b001)
        psi = mo.psi_K(ctx)
        assert oracles.apply_morphism(psi, alg.unit(system)) == alg.unit(
            psi.codomain)
        size = 1 << system.rank
        for imask in range(size):
            if imask & 0b001 != 0b001:
                continue
            xi = alg.basis_x(system, imask)
            for jmask in range(size):
                if jmask & 0b001 != 0b001:
                    continue
                assert oracles.is_multiplicative_pair(
                    psi, xi, alg.basis_x(system, jmask))
        # the set identities of every pair of subsets containing {1}
        assert mo.goetz1_set_check(ctx) is None
    print("criterion 6 (morphism identities and inventories): PASS")


def test_criterion_7_pairing_symmetry():
    for label in ROSTER_RANK_LE_4:
        report = ve.run_suite("bhs-symmetry", label, seed=0)
        assert report.passed, (label, report.render_text())
    print("criterion 7 (pairing symmetry, all pairs rank <= 4): PASS")


def test_criterion_8_bounds_and_reported_question():
    for label in tb.SUPPORTED_TYPES + ("A1xA1", "A2xA1", "B2xA2",
                                       "A1xA1xA1"):
        report = ve.run_suite("loewy-bounds", label, seed=0)
        assert report.passed, (label, report.render_text())
        names = {r.name for r in report.results}
        assert "shape-count-identity" in names
    for label in ("B3", "B5"):
        report = ve.run_suite("b-tau-question", label, seed=0)
        assert report.passed
        for r in report.results:
            assert r.kind != ve.CHECK
            print("reported for %s: %s: %s" % (label, r.name, r.detail))
    print("criterion 8 (general bounds asserted, open question "
          "reported): PASS")
