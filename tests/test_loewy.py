"""Radical filtration lengths: exact values, bounds, and witnesses.

The nilpotency index of the radical (the number of strictly positive
terms in the filtration dimension sequence) is pinned exactly for the
doubled-bond and even-rank fork families, bounded for everything else,
and certified from below by explicit nilpotent witnesses.
"""

import pytest

import descent.algebra as alg
from descent.linalg import Span
import descent.automorphisms as au
import descent.verify as ve

import oracles


IRREDUCIBLE = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5", "B6",
    "D4", "D5", "D6",
    "F4", "H3", "H4", "E6",
    "I2(5)", "I2(6)", "I2(7)",
]


def halved(n):
    return (n + 1) // 2


class TestExactFamilies:
    @pytest.mark.parametrize("label,expected", [
        ("B2", 1), ("B3", 2), ("B4", 2), ("B5", 3), ("B6", 3)])
    def test_doubled_bond_family_is_halved(self, system_factory, label,
                                           expected):
        system = system_factory(label)
        assert expected == halved(system.rank)
        assert alg.loewy_profile(system).loewy_length == expected

    @pytest.mark.parametrize("label,expected", [("D4", 2), ("D6", 3)])
    def test_even_rank_fork_is_halved(self, system_factory, label,
                                      expected):
        system = system_factory(label)
        assert expected == halved(system.rank)
        assert alg.loewy_profile(system).loewy_length == expected

    def test_odd_rank_fork_exceeds_halved(self, system_factory):
        # rank 5 fork: the halved value would be 3, the true length is
        # larger; the exact computed value is frozen as a regression
        system = system_factory("D5")
        profile = alg.loewy_profile(system)
        assert profile.loewy_length >= 4
        assert profile.loewy_length == 4
        assert tuple(profile.dims) == (32, 18, 8, 2)

    @pytest.mark.parametrize("n,expected", [
        (2, 2), (3, 3), (4, 4), (5, 5)])
    def test_linear_type_equals_rank(self, system_factory, n, expected):
        system = system_factory("A%d" % n)
        assert alg.loewy_profile(system).loewy_length == expected


class TestGeneralBounds:
    @pytest.mark.parametrize("label", IRREDUCIBLE)
    def test_irreducible_two_sided_bounds(self, system_factory, label):
        system = system_factory(label)
        n = system.rank
        ll = alg.loewy_profile(system).loewy_length
        assert halved(n) <= ll <= n

    @pytest.mark.parametrize("label", ["A1xA1", "A2xA1", "B2xA1",
                                       "A1xA1xA1", "A2xA2"])
    def test_composite_upper_bound(self, system_factory, label):
        system = system_factory(label)
        ll = alg.loewy_profile(system).loewy_length
        assert ll <= system.rank

    def test_composite_lower_bound_fails(self, system_factory):
        # three commuting reflections: the algebra is semisimple, so the
        # halved lower bound is an irreducible-only statement
        system = system_factory("A1xA1xA1")
        assert alg.radical_basis(system).shape == (0, 8)
        assert alg.loewy_profile(system).loewy_length == 1
        assert halved(system.rank) == 2


class TestFixedSubalgebraHalved:
    @pytest.mark.parametrize("label", IRREDUCIBLE)
    def test_longest_element_twist_is_exactly_halved(self, system_factory,
                                                     label):
        system = system_factory(label)
        sigma = au.sigma0(system)
        profile = au.loewy_profile_fixed(system, sigma)
        assert profile.loewy_length == halved(system.rank)

    @pytest.mark.parametrize("label", ["B2", "B4", "B6", "D4", "D6",
                                       "F4", "H3", "H4", "I2(6)"])
    def test_central_longest_element_collapses_to_full(
            self, system_factory, label):
        # when the longest element is central the twist is trivial, so
        # the halved law pins the full algebra's length
        system = system_factory(label)
        assert system.w0_twist() == tuple(range(system.rank))
        assert au.sigma0(system).is_identity()
        assert alg.loewy_profile(system).loewy_length == \
            halved(system.rank)


class TestShapeOrbitIdentity:
    @pytest.mark.parametrize("label", ["A2", "A3", "B3", "D4", "F4",
                                       "I2(5)", "I2(6)", "A2xA1"])
    def test_orbit_count_is_top_drop(self, system_factory, label):
        # for every diagram symmetry, the number of conjugation-orbit
        # bundles of parabolic classes equals d0 - d1 of the fixed
        # subalgebra's filtration
        system = system_factory(label)
        for sigma in au.diagram_automorphisms(system):
            profile = au.loewy_profile_fixed(system, sigma)
            d1 = profile.dims[1] if len(profile.dims) > 1 else 0
            orbits = au.shape_orbits(system, sigma)
            assert len(orbits) == profile.dims[0] - d1

    @pytest.mark.parametrize("label", ["A3", "B4", "H3", "I2(7)"])
    def test_identity_case_counts_shapes(self, system_factory, label):
        system = system_factory(label)
        profile = alg.loewy_profile(system)
        d1 = profile.dims[1] if len(profile.dims) > 1 else 0
        assert len(system.shapes()) == profile.dims[0] - d1


class TestNilpotentWitnesses:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_linear_type_witness_powers(self, system_factory, n):
        # the alternating difference of the two maximal chains is
        # negated by the diagram flip and stays nonzero through the
        # (rank-1)-st power, certifying the exact length
        system = system_factory("A%d" % n)
        a = oracles.witness_element_typeA(system)
        flip = au.sigma0(system)
        assert oracles.apply_automorphism(flip, a) == -a
        power = a
        for _ in range(n - 2):
            power = alg.multiply(power, a)
        assert not power.is_zero()
        assert alg.multiply(power, a).is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_linear_type_square_certifies_fixed_bound(
            self, system_factory, n):
        # the square is fixed by the flip, and its repeated powers push
        # the fixed subalgebra's length up to the halved value
        system = system_factory("A%d" % n)
        a = oracles.witness_element_typeA(system)
        square = alg.multiply(a, a)
        flip = au.sigma0(system)
        assert oracles.apply_automorphism(flip, square) == square
        k = (n - 1) // 2
        power = square
        for _ in range(k - 1):
            power = alg.multiply(power, square)
        assert not power.is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_doubled_bond_witness_chain(self, system_factory, n):
        # the staircase differences multiply to a nonzero product of
        # length floor((n-1)/2), certifying the halved lower bound
        system = system_factory("B%d" % n)
        a_list, t_list = alg.witness_elements_typeB(system)
        assert len(a_list) == (n - 1) // 2
        assert len(t_list) == len(a_list)
        for a in a_list:
            assert not a.is_zero()
        product = a_list[-1]
        for a in reversed(a_list[:-1]):
            product = alg.multiply(product, a)
        assert not product.is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_doubled_bond_witnesses_are_nilpotent(self, system_factory,
                                                  n):
        system = system_factory("B%d" % n)
        a_list, _ = alg.witness_elements_typeB(system)
        radical = Span(1 << system.rank, alg.radical_basis(system))
        for a in a_list:
            assert radical.contains(a.x_coords())


class TestBoundSuite:
    @pytest.mark.parametrize("label", ["B3", "B5", "D4", "D5", "A3",
                                       "A1xA1xA1", "H3"])
    def test_suite_passes(self, label):
        report = ve.run_suite("loewy-bounds", label)
        assert report.passed
        names = [r.name for r in report.results]
        assert "shape-count-identity" in names

    def test_suite_reports_composite_note(self):
        report = ve.run_suite("loewy-bounds", "A1xA1xA1")
        names = [r.name for r in report.results]
        assert "loewy-length-upper-bound" in names
        assert "loewy-length-lower-bound" in names


class TestOpenQuestionReport:
    @pytest.mark.parametrize("label", ["B3", "B5"])
    def test_odd_doubled_bond_is_reported_not_asserted(self, label):
        # the top radical power question stays informational: the suite
        # must pass regardless of the computed answer
        report = ve.run_suite("b-tau-question", label)
        assert report.passed
        kinds = {r.name for r in report.results}
        assert "radical-power-dimension" in kinds
        assert "radical-power-is-line" in kinds
        assert "radical-power-equals-witness-line" in kinds
        for r in report.results:
            assert r.kind != ve.CHECK

    def test_b7_top_radical_power_is_the_witness_line(self):
        # the paper's question at n = 7: rad^3 of the descent algebra of
        # B7 is one-dimensional and is the line of the witness element
        report = ve.run_suite("b-tau-question", "B7", allow_rank7=True)
        assert report.passed
        assert [(r.name, r.detail) for r in report.results] == [
            ("radical-power-dimension", "dim of radical power 3 is 1"),
            ("radical-power-is-line", "dimension equals 1: True"),
            ("radical-power-equals-witness-line",
             "equality with the witness line: True"),
        ]

    @pytest.mark.parametrize("label", ["B4", "A3", "I2(5)"])
    def test_out_of_family_says_not_applicable(self, label):
        report = ve.run_suite("b-tau-question", label)
        assert report.passed
        assert [r.name for r in report.results] == ["not-applicable"]
