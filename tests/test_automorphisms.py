"""Diagram automorphisms, their inner/outer status, and fixed subalgebras."""

import random
from fractions import Fraction

import pytest

from descent import algebra as alg
from descent import automorphisms as auto
from descent import verify as ve
from descent.errors import AutomorphismMismatch
from descent.linalg import Span
from descent.table import SUPPORTED_TYPES

import oracles

# every table type, plus two products with large automorphism groups
FIXED_ROSTER = SUPPORTED_TYPES + ("A1xA1xA1xA1", "A2xA2xA1xA1")


def random_vector(system, rng):
    size = 1 << system.rank
    return alg.DescentVector(
        system, [Fraction(rng.randint(-5, 5)) for _ in range(size)],
        alg.BASIS_X)


class TestInventory:
    @pytest.mark.parametrize("label,count", [
        ("A1", 1), ("A2", 2), ("A3", 2), ("B3", 1), ("B4", 1),
        ("D4", 6), ("D5", 2), ("F4", 2), ("H3", 1), ("H4", 1),
        ("E6", 2), ("I2(5)", 2), ("I2(6)", 2), ("I2(7)", 2),
    ])
    def test_counts(self, system_factory, label, count):
        system = system_factory(label)
        autos = auto.diagram_automorphisms(system)
        assert len(autos) == count
        assert autos[0].is_identity()

    def test_orders_available(self, system_factory):
        d4 = system_factory("D4")
        assert len(auto.automorphism_of_order(d4, 1)) == 1
        assert len(auto.automorphism_of_order(d4, 2)) == 3
        assert len(auto.automorphism_of_order(d4, 3)) == 2
        assert auto.automorphism_of_order(d4, 5) == []
        f4 = system_factory("F4")
        assert len(auto.automorphism_of_order(f4, 2)) == 1

    @pytest.mark.parametrize("label,perm", [
        ("A2", (1, 0)),
        ("A3", (2, 1, 0)),
        ("B3", (0, 1, 2)),
        ("D4", (0, 1, 2, 3)),
        ("I2(5)", (1, 0)),
        ("I2(6)", (0, 1)),
    ])
    def test_longest_element_conjugation(self, system_factory, label, perm):
        system = system_factory(label)
        s0 = auto.sigma0(system)
        assert s0.permutation == perm
        assert s0.is_inner_by_w0
        assert (s0.is_identity()
                == (system.w0_twist() == tuple(range(system.rank))))


class TestAction:
    @pytest.mark.parametrize("label", ["A3", "D4", "I2(6)", "F4"])
    def test_respects_products(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("act:" + label)
        for sigma in auto.diagram_automorphisms(system):
            for _ in range(8):
                a = random_vector(system, rng)
                b = random_vector(system, rng)
                lhs = oracles.apply_automorphism(sigma, alg.multiply(a, b))
                rhs = alg.multiply(oracles.apply_automorphism(sigma, a),
                                   oracles.apply_automorphism(sigma, b))
                assert lhs == rhs

    @pytest.mark.parametrize("label", ["A3", "D4"])
    def test_iterating_gives_identity(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("iter:" + label)
        for sigma in auto.diagram_automorphisms(system):
            v = random_vector(system, rng)
            w = v
            for _ in range(sigma.order):
                w = oracles.apply_automorphism(sigma, w)
            assert w == v

    @pytest.mark.parametrize("label", ["A3", "B3", "I2(5)"])
    def test_sigma0_agrees_with_group_conjugation(
            self, system_factory, label):
        system = system_factory(label)
        s0 = auto.sigma0(system)
        w0 = system.order - 1
        for imask in range(system.full_mask + 1):
            xi = alg.basis_x(system, imask)
            gv = oracles.group_vector(xi)
            conj = [gv[system.mul(system.mul(w0, w), w0)]
                    for w in range(system.order)]
            moved = oracles.group_vector(oracles.apply_automorphism(s0, xi))
            assert moved == conj

    @pytest.mark.parametrize("label", ["A3", "D4", "F4"])
    def test_radical_is_stable(self, system_factory, label):
        system = system_factory(label)
        rad = oracles.radical_vectors(system)
        span = alg.linalg.Span(1 << system.rank, alg.radical_basis(system))
        for sigma in auto.diagram_automorphisms(system):
            for r in rad:
                img = oracles.apply_automorphism(sigma, r)
                assert span.contains(img.x_coords())

    def test_mismatched_automorphism_rejected(self, system_factory):
        d4 = system_factory("D4")
        a3 = system_factory("A3")
        triality = auto.automorphism_of_order(d4, 3)[0]
        with pytest.raises(AutomorphismMismatch):
            oracles.apply_automorphism(triality, alg.unit(a3))


class TestFixedSubalgebra:
    @pytest.mark.parametrize("label,order,dim,orbit_count", [
        ("D4", 2, 12, 9),
        ("D4", 3, 8, 7),
        ("F4", 2, 10, 8),
        ("E6", 2, 40, 17),
        ("I2(5)", 2, 3, 3),
        ("A3", 2, 6, 5),
    ])
    def test_dimensions(self, system_factory, label, order, dim,
                        orbit_count):
        system = system_factory(label)
        sigma = auto.automorphism_of_order(system, order)[0]
        fixed = auto.fixed_subalgebra(system, sigma)
        assert fixed.dimension == dim
        assert len(auto.shape_orbits(system, sigma)) == orbit_count
        assert len(auto.mask_orbits(system, sigma)) == dim

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_identity_fixes_everything(self, system_factory, label):
        system = system_factory(label)
        ident = auto.diagram_automorphisms(system)[0]
        prof = auto.loewy_profile_fixed(system, ident)
        assert tuple(prof.dims) == tuple(alg.loewy_profile(system).dims)

    def test_fixed_loewy_can_drop(self, system_factory):
        # the full algebra of the rank-3 linear type has length 3; the
        # longest-element twist cuts it to 2
        system = system_factory("A3")
        s0 = auto.sigma0(system)
        prof = auto.loewy_profile_fixed(system, s0)
        assert prof.loewy_length == 2
        assert alg.loewy_profile(system).loewy_length == 3

    @pytest.mark.parametrize("label", ["D5", "A4", "E6", "I2(5)"])
    def test_loewy_suite_computes_each_fixed_profile_once(
            self, monkeypatch, label):
        # the suite's longest-element check reuses the profile that its
        # loop over the automorphisms already computed
        fixed = []

        def counting(system, sigma):
            fixed.append(sigma)
            return build(system, sigma)

        build = auto.fixed_subalgebra
        monkeypatch.setattr(auto, "fixed_subalgebra", counting)
        ve.run_suite("loewy-bounds", label)
        assert len(fixed) == len(set(fixed)) == 1

    def test_membership_and_closure(self, system_factory):
        system = system_factory("D4")
        sigma = auto.automorphism_of_order(system, 3)[0]
        fixed = auto.fixed_subalgebra(system, sigma)
        rng = random.Random("memb")
        # random products of the orbit sums stay inside
        sums = [alg.DescentVector.from_ints(system, row)
                for row in fixed.span.rows.tolist()]
        for _ in range(10):
            u = sums[rng.randrange(len(sums))]
            v = sums[rng.randrange(len(sums))]
            assert fixed.span.contains(alg.multiply(u, v).x_coords())
        assert not fixed.span.contains(
            alg.basis_x(system, 0b0001).x_coords())

    def test_triality_twins_agree(self, system_factory):
        system = system_factory("D4")
        twins = auto.automorphism_of_order(system, 3)
        assert len(twins) == 2
        profiles = [tuple(auto.loewy_profile_fixed(system, s).dims)
                    for s in twins]
        orbits = [len(auto.shape_orbits(system, s)) for s in twins]
        assert profiles[0] == profiles[1] == (8, 1)
        assert orbits[0] == orbits[1] == 7


def direct_fixed_radical(fixed):
    """The fixed subalgebra's radical as the combinations of its orbit
    sums on which every one-dimensional character vanishes."""
    size = 1 << fixed.parent.rank
    orbit_sums = fixed.span.rows
    chars = alg.tau_matrix(fixed.parent) @ orbit_sums.T
    combos = oracles.span_kernel(Span(len(orbit_sums), chars))
    return Span(size, combos @ orbit_sums)


@pytest.mark.parametrize("label", FIXED_ROSTER)
class TestFixedSubalgebraOracles:
    def test_radical_routes_agree(self, system_factory, label):
        # the symmetrized ambient radical against the character kernel
        # inside the subalgebra
        system = system_factory(label)
        size = 1 << system.rank
        for sigma in auto.diagram_automorphisms(system):
            fixed = auto.fixed_subalgebra(system, sigma)
            rad = fixed.radical_vectors()
            projected = Span(size, rad)
            assert projected.dim == len(rad)
            assert projected.equals(direct_fixed_radical(fixed)), sigma

    def test_orbit_sums_closed_under_products(self, system_factory, label):
        system = system_factory(label)
        size = 1 << system.rank
        for sigma in auto.diagram_automorphisms(system):
            fixed = auto.fixed_subalgebra(system, sigma)
            assert fixed.span.dim == fixed.dimension
            rows = fixed.span.rows
            prods = alg.products(system, rows, rows).reshape(-1, size)
            assert oracles.span_copy(fixed.span).add(prods) == 0, sigma

    def test_span_rows_are_the_orbit_indicators(self, system_factory, label):
        # orbits have disjoint supports, so their indicator rows ordered
        # by least member are already the canonical echelon basis
        system = system_factory(label)
        size = 1 << system.rank
        for sigma in auto.diagram_automorphisms(system):
            orbits = {}
            for mask in range(size):
                orbit, m = {mask}, oracles.apply_mask(sigma, mask)
                while m != mask:
                    orbit.add(m)
                    m = oracles.apply_mask(sigma, m)
                orbits[min(orbit)] = orbit
            want = [[int(m in orbits[least]) for m in range(size)]
                    for least in sorted(orbits)]
            span = auto.fixed_subalgebra(system, sigma).span
            assert span.rows.tolist() == want, sigma
            assert span.pivots == sorted(orbits), sigma


class TestW0Criterion:
    @pytest.mark.parametrize("label", SUPPORTED_TYPES)
    def test_agrees_with_is_w0_central(self, system_factory, label):
        system = system_factory(label)
        is_central, bad = oracles.w0_centrality_criterion(system)
        assert is_central == (system.w0_twist() == tuple(range(system.rank)))
        assert (not bad) == is_central

    @pytest.mark.parametrize("label,central", [
        ("A2", False), ("A3", False), ("B3", True), ("D4", True),
        ("I2(5)", False), ("I2(6)", True), ("H3", True),
    ])
    def test_matches_direct_check(self, system_factory, label, central):
        system = system_factory(label)
        is_central, bad = oracles.w0_centrality_criterion(system)
        assert is_central == central
        assert (not bad) == central

    def test_witness_masks_for_rank_two(self, system_factory):
        system = system_factory("A2")
        _, bad = oracles.w0_centrality_criterion(system)
        assert bad == [1, 2]
