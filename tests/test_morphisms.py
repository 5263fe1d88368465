"""Maps between descent algebras: restriction to a parabolic, the type
B to D restriction, and quotient maps from self-opposed subsets.

Slow full-group verifications run on rank <= 3; rank 4 gets the linear
formulations plus targeted full-group spot checks.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from descent import algebra as alg
from descent import automorphisms as auto
from descent import morphisms as mo
from descent import verify as ve
from descent.coxeter import build_system, iter_bits, popcount
from descent.errors import (InvalidSubset, NotSelfOpposed, RankTooSmall,
                             WrongType)
from descent.table import SUPPORTED_TYPES

import oracles
from test_coxeter import permuted_system


def all_masks(system):
    return range(system.full_mask + 1)


# ---------------------------------------------------------------------------
# element-by-element oracles for the vectorized routes of the module


def conjugate_mask(system, w, mask):
    """Image of a generator subset under conjugation by element w, or -1
    when some generator leaves the generator set."""
    row = system.csany[int(system.inv[w])]
    out = 0
    for s in iter_bits(mask):
        t = int(row[s])
        if t < 0:
            return -1
        out |= 1 << t
    return out


def matrix_preserving_bijections(sys_a, sys_b):
    """All generator bijections a -> b preserving the Coxeter matrices."""
    n = sys_a.rank
    if sys_b.rank != n:
        return []
    return [perm for perm in itertools.permutations(range(n))
            if all(sys_a.matrix[i][j] == sys_b.matrix[perm[i]][perm[j]]
                   for i in range(n) for j in range(n))]


def bbht_a_check_direct(system, kmask):
    """x_K * embedded(Res(x)) = x * x_K, computed wholly by group-algebra
    convolution."""
    morphism = mo.res_K(system, kmask)
    xk = oracles.int_group_vector(alg.basis_x(system, kmask))
    for imask in all_masks(system):
        xi = alg.basis_x(system, imask)
        emb = oracles.iota_group_vector(
            system, kmask, oracles.apply_morphism(morphism, xi))
        lhs = oracles.convolve(system, xk, emb)
        rhs = oracles.convolve(system, oracles.int_group_vector(xi), xk)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def surjective_by_left_ideal(system, kmask):
    """The two left-ideal formulations of surjectivity: x_K's left ideal
    has dimension 2^|K|, and it is the span of the x_J with J inside K."""
    ideal = alg.left_ideal([alg.basis_x(system, kmask)])[0]
    lattice = alg.family_span(
        system, [m for m in all_masks(system) if m & ~kmask == 0])
    return ideal.dim == 1 << popcount(kmask), ideal.equals(lattice)


class TestMaskHelpers:
    def test_project_expand_round_trip(self):
        positions = [1, 3, 4]
        for cmask in range(8):
            big = int(mo.expand_masks(positions)[cmask])
            assert mo.project_mask(big, positions) == cmask

    def test_conjugate_mask(self, system_factory):
        system = system_factory("A3")
        w0 = system.order - 1
        assert conjugate_mask(system, w0, 0b001) == 0b100
        assert conjugate_mask(system, 0, 0b011) == 0b011
        # a generic element moves singletons out of the generator set
        s1 = int(system.rmul[0, 0])
        assert conjugate_mask(system, s1, 0b010) == -1

    @pytest.mark.parametrize("label", ["A3", "B3", "H3", "A2xA1"])
    def test_conjugate_masks_all_matches_elementwise(self, system_factory,
                                                     label):
        system = system_factory(label)
        for kmask in all_masks(system):
            assert oracles.conjugate_masks_all(system, kmask).tolist() == [
                conjugate_mask(system, w, kmask)
                for w in range(system.order)]


class TestRestriction:
    @pytest.mark.parametrize("label", ["A2", "A3", "B3", "I2(5)", "B4",
                                       "D4"])
    def test_group_level_factorization(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            assert mo.factorization_check(mo.res_K(system, kmask))
            assert mo.res_linear_check(mo.res_K(system, kmask))
            assert bbht_a_check_direct(system, kmask)

    @pytest.mark.parametrize("label", ["B4", "D4", "H4"])
    def test_factorization_reads_no_product_rows(self, system_factory,
                                                 monkeypatch, label):
        # one level walk of each codomain from the coset representatives
        # gives every product u v; no row of the group's multiplication
        # table is asked for
        system = system_factory(label)
        morphisms = [mo.res_K(system, k) for k in all_masks(system)]

        def refuse(system, us):
            raise AssertionError("multiplication_table was asked for rows")

        monkeypatch.setattr(type(system), "multiplication_table", refuse)
        assert all(mo.factorization_check(m) for m in morphisms)

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_multiplicative_on_all_pairs(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            morphism = mo.res_K(system, kmask)
            assert oracles.apply_morphism(
                morphism, alg.unit(system)) == alg.unit(morphism.codomain)
            for imask in all_masks(system):
                xi = alg.basis_x(system, imask)
                for jmask in all_masks(system):
                    xj = alg.basis_x(system, jmask)
                    assert oracles.is_multiplicative_pair(morphism, xi, xj)

    @pytest.mark.parametrize("label", ["B4", "D4"])
    def test_multiplicative_sampled_rank_four(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("pairs:" + label)
        for kmask in all_masks(system):
            morphism = mo.res_K(system, kmask)
            for _ in range(25):
                xi = alg.basis_x(system, rng.randrange(system.full_mask + 1))
                xj = alg.basis_x(system, rng.randrange(system.full_mask + 1))
                assert oracles.is_multiplicative_pair(morphism, xi, xj)

    def test_restriction_to_full_is_identity(self, system_factory):
        system = system_factory("B3")
        morphism = mo.res_K(system, system.full_mask)
        for imask in all_masks(system):
            col = morphism.columns[imask]
            assert col[imask] == 1
            assert sum(1 for c in col if c != 0) == 1

    def test_restriction_to_empty_counts_cosets(self, system_factory):
        system = system_factory("B3")
        morphism = mo.res_K(system, 0)
        for imask in all_masks(system):
            col = morphism.columns[imask]
            reps = np.count_nonzero((system.rasc & imask) == imask)
            assert col == (Fraction(int(reps)),)

    @pytest.mark.parametrize("label", ["A3", "B3", "B4"])
    def test_transitive_through_nested_subsets(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            sub = kmask
            while True:
                if sub != kmask or True:
                    direct = mo.res_K(system, sub)
                    outer = mo.res_K(system, kmask)
                    k_sys = outer.codomain
                    inner = mo.res_K(
                        k_sys, mo.project_mask(sub, mo.mask_positions(kmask)))
                    composed = mo.compose(inner, outer)
                    assert composed.equal_matrix(direct)
                if sub == 0:
                    break
                sub = (sub - 1) & kmask

    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_conjugate_subsets_give_matched_restrictions(
            self, system_factory, label):
        system = system_factory(label)
        for shape in system.shapes():
            base = shape.members[0]
            for other in shape.members[1:]:
                assert mo.res_conjugate_check(mo.res_K(system, base),
                                              mo.res_K(system, other))

    def test_conjugate_check_rejects_non_conjugate_subsets(
            self, system_factory):
        # in A2, X_{K,K',K'} holds the identity for K' inside K; in B3 the
        # short and the long generator are not conjugate
        for label, kmask, kpmask in (("A2", 0b11, 0b01), ("B3", 0b001, 0b010)):
            system = system_factory(label)
            with pytest.raises(InvalidSubset):
                mo.res_conjugate_check(mo.res_K(system, kmask),
                                       mo.res_K(system, kpmask))

    @pytest.mark.parametrize("label", ["A3", "B3", "F4"])
    def test_character_factorization(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            assert mo.res_tau_check(mo.res_K(system, kmask))

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_kernel_complements_left_ideal(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            assert mo.decomposition_check(mo.res_K(system, kmask))

    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_image_fixed_by_complement_group(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            assert mo.points_fixes_check(mo.res_K(system, kmask))


SURJECTIVITY_ROSTER = ["A3", "B3", "B4", "D4", "F4", "H3", "H4", "E6"]


class TestSurjectivity:
    def test_a3_verdicts(self, system_factory):
        system = system_factory("A3")
        # connected subsets of the path diagram are exactly the
        # surjective ones
        connected = {0b000, 0b001, 0b010, 0b100, 0b011, 0b110, 0b111}
        for kmask in all_masks(system):
            report = mo.surjectivity_report(mo.res_K(system, kmask))
            assert report["surjective"] == (kmask in connected), kmask

    def test_f4_frozen_list(self, system_factory):
        system = system_factory("F4")
        expected_labels = [
            (), ("1",), ("2",), ("3",), ("4",),
            ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"),
            ("1", "2", "3"), ("2", "3", "4"), ("1", "2", "3", "4"),
        ]
        expected = {system.mask_of_labels(ls) for ls in expected_labels}
        got = {k for k in all_masks(system)
               if mo.surjectivity_report(mo.res_K(system, k))["surjective"]}
        assert got == expected

    def test_h4_frozen_list(self, system_factory):
        system = system_factory("H4")
        got = {k for k in all_masks(system)
               if mo.surjectivity_report(mo.res_K(system, k))["surjective"]}
        assert got == {0b0000, 0b0001, 0b0010, 0b0100, 0b1000,
                       0b0111, 0b1111}

    @pytest.mark.parametrize("label", ["G2", "H3"])
    def test_size_rule_small_exceptional(self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            npos = len(mo.mask_positions(kmask))
            expect = npos <= 1 or kmask == system.full_mask
            report = mo.surjectivity_report(mo.res_K(system, kmask))
            assert report["surjective"] == expect

    def test_necessary_conditions_are_not_sufficient(self, system_factory):
        # five rank-6 witnesses where injectivity on shapes plus trivial
        # complement action hold and the map still fails to be onto
        system = system_factory("E6")
        for kmask in (15, 29, 58, 60, 61):
            assert mo.pi_K_injective(system, kmask)
            assert mo.wk_acts_trivially(system, kmask)
            report = mo.surjectivity_report(mo.res_K(system, kmask))
            assert not report["surjective"], kmask

    @pytest.mark.parametrize("label", SURJECTIVITY_ROSTER)
    def test_formulations_agree(self, system_factory, label):
        # morphism rank, left-ideal dimension, left ideal = lattice span
        system = system_factory(label)
        for kmask in all_masks(system):
            by_dim, by_lattice = surjective_by_left_ideal(system, kmask)
            report = mo.surjectivity_report(mo.res_K(system, kmask))
            assert report["surjective"] == by_dim == by_lattice

    @pytest.mark.parametrize("label", SURJECTIVITY_ROSTER)
    def test_surjective_implies_necessary_conditions(
            self, system_factory, label):
        system = system_factory(label)
        for kmask in all_masks(system):
            report = mo.surjectivity_report(mo.res_K(system, kmask))
            if report["surjective"]:
                assert report["pi_injective"]
                assert report["complement_acts_trivially"]

    def test_suite_applies_size_rule_to_g2(self):
        # G2 is named I2(6) once parsed
        report = ve.run_suite("morphisms", "G2")
        found = [r for r in report.results
                 if r.name == "surjectivity-verdicts"]
        assert len(found) == 1
        assert found[0].passed
        assert found[0].detail == "size rule |K| in {0, 1, |S|}"


def fork(system_factory, n):
    return mo.res_BD(system_factory("B%d" % n))


class TestForkRestriction:
    def test_fork_matrices(self, system_factory):
        d2 = fork(system_factory, 2).codomain
        assert d2.order == 4
        d3 = fork(system_factory, 3).codomain
        assert d3.order == 24  # the rank-3 fork is the linear type
        d4 = fork(system_factory, 4).codomain
        assert d4.labels == ["1p", "1", "2", "3"]

    def test_fork_maps_need_the_standard_numbering(self):
        # rank 0 and 1, and B5 and D5 with their generators reversed
        systems = [build_system(matrix=[]), build_system(matrix=[[1]])]
        for check in (mo.res_BD, mo.res_b_triangular_check):
            for system in systems + [permuted_system("B5", (4, 3, 2, 1, 0))]:
                with pytest.raises(WrongType):
                    check(system)
        for system in systems + [permuted_system("D5", (4, 3, 2, 1, 0))]:
            with pytest.raises(WrongType):
                mo.res_d_image_check(system)

    def test_checks_refuse_too_small_ranks(self, system_factory):
        with pytest.raises(RankTooSmall):
            mo.res_bd_square_check(fork(system_factory, 2))
        with pytest.raises(RankTooSmall):
            mo.res_d_image_check(system_factory("D2"))

    def test_fork_codomain_caches_as_the_domain_does(self, system_factory):
        assert fork(system_factory, 4).codomain.cache_enabled
        uncached = build_system(type="B4", cache=False)
        assert not mo.res_BD(uncached).codomain.cache_enabled

    def test_rank_seven_fork_codomain_is_admitted(self):
        # the B7 domain was admitted with allow_rank7, so its D7 fork is
        b7 = build_system(type="B7", allow_rank7=True, cache=False)
        d7 = mo.res_BD(b7).codomain
        assert (d7.type_label, d7.order) == ("D7", 322560)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_group_algebra_identity(self, system_factory, n):
        assert mo.res_bd_a_check(fork(system_factory, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_fork_images_match_the_word_loop(self, system_factory, n):
        morphism = fork(system_factory, n)
        bn, dn = morphism.domain, morphism.codomain
        assert np.array_equal(mo.fork_images_in_b(bn, dn),
                              oracles.fork_images_by_words(bn, dn))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_multiplicative(self, system_factory, n):
        morphism = fork(system_factory, n)
        rng = random.Random("bd:%d" % n)
        size = 1 << n
        pairs = ([(i, j) for i in range(size) for j in range(size)]
                 if n <= 3 else
                 [(rng.randrange(size), rng.randrange(size))
                  for _ in range(60)])
        bn = morphism.domain
        for imask, jmask in pairs:
            assert oracles.is_multiplicative_pair(
                morphism, alg.basis_x(bn, imask), alg.basis_x(bn, jmask))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_image_is_swap_fixed_subalgebra(self, system_factory, n):
        assert mo.res_bd_image_check(fork(system_factory, n))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_commutes_with_chain_restriction(self, system_factory, n):
        assert mo.res_bd_square_check(fork(system_factory, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_triangular_against_b_chain(self, system_factory, n):
        assert mo.res_b_triangular_check(system_factory("B%d" % n))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_d_chain_image(self, system_factory, n):
        assert mo.res_d_image_check(system_factory("D%d" % n))

    @pytest.mark.parametrize("n,inner", [
        (2, False), (3, True), (4, False), (5, True), (6, False)])
    def test_swap_parity(self, system_factory, n, inner):
        dn = system_factory("D%d" % n)
        sigma = mo.sigma_n_automorphism(dn)
        assert sigma.order == 2
        assert sigma.is_inner_by_w0 == inner


class TestQuotients:
    def test_self_opposed_detection(self, system_factory):
        a3 = system_factory("A3")
        assert mo.is_self_opposed(a3, 0)
        assert mo.is_self_opposed(a3, a3.full_mask)
        assert mo.is_self_opposed(a3, 0b101)
        assert not mo.is_self_opposed(a3, 0b001)
        with pytest.raises(NotSelfOpposed):
            mo.build_context(a3, 0b010)
        b3 = system_factory("B3")
        assert mo.is_self_opposed(b3, 0b001)

    def test_quotient_of_b3_by_short_generator(self, system_factory):
        system = system_factory("B3")
        ctx = mo.build_context(system, 0b001)
        assert ctx.quotient.rank == 2
        assert ctx.quotient.type_label == "B2"
        psi = mo.psi_K(ctx)
        assert oracles.apply_morphism(psi, alg.unit(system)) == alg.unit(
            psi.codomain)
        for imask in all_masks(system):
            xi = alg.basis_x(system, imask)
            for jmask in all_masks(system):
                assert oracles.is_multiplicative_pair(
                    psi, xi, alg.basis_x(system, jmask))
        # every pair of subsets containing the short generator
        assert mo.goetz1_set_check(ctx) is None
        assert mo.varpi_tau_check(ctx)

    def test_quotient_of_b4_by_short_generator(self, system_factory):
        system = system_factory("B4")
        ctx = mo.build_context(system, 0b0001)
        assert ctx.quotient.type_label == "B3"
        # every pair of subsets containing the short generator
        assert mo.goetz1_set_check(ctx) is None
        assert mo.varpi_tau_check(ctx)

    def test_quotient_by_antipodal_pair(self, system_factory):
        # the two path ends of the rank-3 linear type form a self-opposed
        # pair whose quotient collapses to a single generator
        system = system_factory("A3")
        ctx = mo.build_context(system, 0b101)
        assert ctx.quotient.rank == 1
        psi = mo.psi_K(ctx)
        assert psi.rank() == 2

    def test_empty_subset_gives_identity_quotient(self, system_factory):
        system = system_factory("B3")
        ctx = mo.build_context(system, 0)
        # the measured quotient matrix is the system's own, so the system
        # is its own quotient and is not enumerated a second time
        assert ctx.quotient is system
        assert np.array_equal(ctx.images, np.arange(system.order))
        psi = mo.psi_K(ctx)
        ident = mo.res_K(system, system.full_mask)
        assert psi.equal_matrix(ident)

    def test_full_subset_gives_trivial_quotient(self, system_factory):
        system = system_factory("B3")
        ctx = mo.build_context(system, system.full_mask)
        assert ctx.quotient.rank == 0
        psi = mo.psi_K(ctx)
        assert psi.rank() == 1

    @pytest.mark.parametrize("label", ["B3", "B4"])
    def test_quotient_is_not_a_chain_restriction(self, system_factory,
                                                 label):
        # same codomain type as the restriction to the parabolic copy
        # one rank down, but a genuinely different map under every
        # generator matching
        system = system_factory(label)
        ctx = mo.build_context(system, 0b001)
        psi = mo.psi_K(ctx)
        res = mo.res_K(system, system.full_mask >> 1)
        perms = matrix_preserving_bijections(res.codomain, psi.codomain)
        assert perms
        assert not any(oracle_equal_matrix(res, psi, perm) for perm in perms)
        assert not res.equal_matrix(psi)

    def test_commuting_squares(self, system_factory):
        system = system_factory("B3")
        for lmask in (0b001, 0b011, 0b101, 0b111):
            assert oracles.commuting_square_check(system, 0b001, lmask)
        # degenerate corner: empty K
        assert oracles.commuting_square_check(system, 0, 0b011)


def test_e7_quotient_lands_in_f4():
    # the alternating three-node subset of E7 is self-opposed. The system
    # is built here, not shared, so its 2,903,040 elements are freed after
    e7 = build_system(type="E7", allow_rank7=True)
    ctx = mo.build_context(e7, e7.mask_of_labels(["2", "5", "7"]))
    assert ctx.quotient.type_label == "F4"
    assert mo.varpi_tau_check(ctx)


# ---------------------------------------------------------------------------
# integer columns against the Fraction loops they replaced


def fraction_columns(morphism):
    return [[Fraction(int(v)) for v in row] for row in morphism.columns]


def permuted_mask(cmask, perm):
    out = 0
    for b, p in enumerate(perm):
        if cmask & (1 << b):
            out |= 1 << p
    return out


def oracle_apply(morphism, vector):
    cols = fraction_columns(morphism)
    out = [Fraction(0)] * (1 << morphism.codomain.rank)
    for mask, c in enumerate(vector.x_coords()):
        if c != 0:
            for k, v in enumerate(cols[mask]):
                if v != 0:
                    out[k] += c * v
    return alg.DescentVector(morphism.codomain, out, alg.BASIS_X)


def oracle_compose(outer, inner):
    """Fraction columns of outer after inner."""
    outer_cols = fraction_columns(outer)
    cols = []
    for col in fraction_columns(inner):
        out = [Fraction(0)] * (1 << outer.codomain.rank)
        for mask, c in enumerate(col):
            if c != 0:
                for k, v in enumerate(outer_cols[mask]):
                    if v != 0:
                        out[k] += c * v
        cols.append(out)
    return cols


def oracle_equal_matrix(mine, theirs, codomain_perm=None):
    """Fraction columns equal, codomain generator b of the first map
    read as generator codomain_perm[b] of the second (b itself when
    None)."""
    a, b = fraction_columns(mine), fraction_columns(theirs)
    if len(a) != len(b):
        return False
    if codomain_perm is None:
        return a == b
    for mask in range(len(a)):
        for cmask in range(1 << mine.codomain.rank):
            if a[mask][cmask] != b[mask][permuted_mask(cmask,
                                                       codomain_perm)]:
                return False
    return True


def reordered_copy(system):
    """The same Coxeter system with its generator order rotated by one,
    a permutation that is not its own inverse from rank 3 on."""
    order = list(range(1, system.rank)) + [0][:system.rank]
    return mo.build_system(
        matrix=[[system.matrix[p][q] for q in order] for p in order],
        labels=[system.labels[p] for p in order])


def renumbered(morphism, perm):
    """The same map onto a copy of its codomain whose generator perm[b]
    is the codomain's generator b, labels and Coxeter matrix moved
    along."""
    cod = morphism.codomain
    n = cod.rank
    matrix = [[0] * n for _ in range(n)]
    labels = [None] * n
    for i in range(n):
        labels[perm[i]] = cod.labels[i]
        for j in range(n):
            matrix[perm[i]][perm[j]] = cod.matrix[i][j]
    cols = np.zeros_like(morphism.columns)
    cols[:, mo.expand_masks(perm)] = morphism.columns
    return mo.AlgebraMorphism(morphism.domain,
                              build_system(matrix=matrix, labels=labels),
                              cols)


def random_rational_vector(system, rng, tag):
    coeffs = [Fraction(rng.randint(-10**25, 10**25), rng.randint(1, 2**70))
              if rng.random() < 0.6 else Fraction(0)
              for _ in range(system.full_mask + 1)]
    return alg.DescentVector(system, coeffs, tag)


def sample_morphisms(system):
    out = [mo.res_K(system, k) for k in all_masks(system)]
    for k in [0, system.full_mask] + [1 << p for p in range(system.rank)]:
        if mo.is_self_opposed(system, k):
            out.append(mo.psi_K(mo.build_context(system, k)))
    return out


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_multiplicative_pairs_match_the_dense_route(system_factory, label):
    # every restriction, the fork onto D_n and every quotient, against
    # the products summed one J segment of the support at a time
    system = system_factory(label)
    morphisms = [mo.res_K(system, k) for k in all_masks(system)]
    if len(system.components) == 1 and system.components[0][0] == "B":
        morphisms.append(mo.res_BD(system))
    morphisms += [mo.psi_K(mo.build_context(system, k))
                  for k in all_masks(system) if mo.is_self_opposed(system, k)]
    for morphism in morphisms:
        want = oracles.multiplicative_pairs_by_segments(morphism)
        assert np.array_equal(morphism.multiplicative_pairs(), want)


class TestIntegerColumnsAgainstFractionLoops:
    @pytest.mark.parametrize("positions", [
        (), (0,), (2,), (1, 0), (1, 3, 4), (2, 0, 1), (3, 2, 1, 0)])
    def test_expand_masks(self, positions):
        got = mo.expand_masks(positions)
        assert got.tolist() == [sum(1 << positions[i] for i in iter_bits(c))
                                for c in range(1 << len(positions))]

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "H3"])
    def test_apply(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("apply:" + label)
        morphisms = sample_morphisms(system)
        if label in ("B3", "D4"):
            morphisms.append(fork(system_factory, system.rank))
        for morphism in morphisms:
            for tag in (alg.BASIS_X, alg.BASIS_Y, alg.BASIS_XPRIME):
                v = random_rational_vector(morphism.domain, rng, tag)
                assert str(oracles.apply_morphism(morphism, v)) == str(
                    oracle_apply(morphism, v))

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "H3"])
    def test_compose_and_equal_matrix(self, system_factory, label):
        system = system_factory(label)
        for lmask in all_masks(system):
            inner = mo.res_K(system, lmask)
            outer_sys = inner.codomain
            copy = reordered_copy(outer_sys)
            for kmask in all_masks(outer_sys):
                outer = mo.res_K(outer_sys, kmask)
                got = mo.compose(outer, inner)
                assert fraction_columns(got) == oracle_compose(outer, inner)
                # the one-step restriction onto the same labels
                direct = mo.res_K(system, system.mask_of_labels(
                    outer_sys.labels_of_mask(kmask)))
                assert got.equal_matrix(direct)
                assert oracle_equal_matrix(got, direct)
                # an equal copy of the domain is not the domain
                with pytest.raises(InvalidSubset):
                    mo.compose(mo.res_K(copy, kmask), inner)

    @pytest.mark.parametrize("label", ["B3", "B4"])
    def test_equal_matrix_under_every_matching(self, system_factory, label):
        # equal_matrix reads both codomains in one generator numbering:
        # the map onto a renumbered copy of its codomain is the same map
        # under that matching, and equal to it only when nothing moved
        system = system_factory(label)
        ident = mo.res_K(system, system.full_mask)
        psi0 = mo.psi_K(mo.build_context(system, 0))
        assert psi0.equal_matrix(ident)
        assert oracle_equal_matrix(psi0, ident)
        for perm in itertools.permutations(range(system.rank)):
            moved = renumbered(ident, perm)
            assert oracle_equal_matrix(ident, moved, perm)
            assert moved.equal_matrix(ident) == (
                perm == tuple(range(system.rank)))
        # one codomain type under other labels
        psi = mo.psi_K(mo.build_context(system, 0b001))
        res = mo.res_K(system, system.full_mask >> 1)
        assert matrix_preserving_bijections(res.codomain, psi.codomain)
        assert not res.equal_matrix(psi)

    def test_fork_square_compositions(self, system_factory):
        for n in (3, 4):
            top = fork(system_factory, n)
            bn, dn = top.domain, top.codomain
            res_b = mo.res_K(bn, bn.full_mask & ~(1 << (n - 1)))
            res_d = mo.res_K(dn, dn.full_mask & ~(1 << (n - 1)))
            bottom = mo.res_BD(res_b.codomain)
            for outer, inner in ((res_d, top), (bottom, res_b)):
                assert fraction_columns(mo.compose(outer, inner)) == \
                    oracle_compose(outer, inner)


def corrupted(morphism, row, col):
    cols = np.array(morphism.columns)
    cols[row, col] += 1
    return mo.AlgebraMorphism(morphism.domain, morphism.codomain, cols,
                              morphism.kmask)


class TestChecksRejectCorruptedInput:
    def test_columns_are_read_only(self, system_factory):
        morphism = mo.res_K(system_factory("B3"), 0b011)
        with pytest.raises(ValueError):
            morphism.columns[0, 0] = 7

    def test_group_checks_see_swapped_ascent_sets(self):
        # a fresh system, so the shared one keeps its tables: the
        # restrictions are built first, as the tensor check would refuse
        # the swapped tables
        system = build_system(type="B3", cache=False)
        morphisms = [mo.res_K(system, k) for k in all_masks(system)]
        assert all(mo.bbht_a_check(m) for m in morphisms)
        rasc = system.rasc
        rasc[[1, 2]] = rasc[[2, 1]]
        failing = [k for k, m in enumerate(morphisms)
                   if not mo.factorization_check(m)]
        assert failing == [1, 2, 3, 5, 6]
        assert [k for k, m in enumerate(morphisms)
                if not mo.bbht_a_check(m)] == failing

    def test_group_checks_see_swapped_products(self):
        # a fresh system as above; right multiplication by generator 2
        # swaps two of its products, so every subset holding generator 2
        # walks a wrong product, and no other subset reads that column
        system = build_system(type="B3", cache=False)
        morphisms = [mo.res_K(system, k) for k in all_masks(system)]
        rmul = system.rmul
        rmul[[5, 9], 2] = rmul[[9, 5], 2]
        failing = [k for k, m in enumerate(morphisms)
                   if not mo.factorization_check(m)]
        assert failing == [4, 5, 6, 7]
        assert [k for k, m in enumerate(morphisms)
                if not mo.bbht_a_check(m)] == failing

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_restriction_checks(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("corrupt:" + label)
        for kmask in all_masks(system):
            morphism = mo.res_K(system, kmask)
            assert mo.res_linear_check(morphism)
            assert mo.res_tau_check(morphism)
            bad = corrupted(morphism, rng.randrange(len(morphism.columns)),
                            rng.randrange(morphism.columns.shape[1]))
            assert not mo.res_linear_check(bad)
            assert not mo.res_tau_check(bad)

    @pytest.mark.parametrize("n", [3, 4])
    def test_fork_group_algebra_identity(self, system_factory, n):
        morphism = fork(system_factory, n)
        assert mo.res_bd_a_check(morphism)
        rng = random.Random("corrupt-fork:%d" % n)
        size = len(morphism.columns)
        for _ in range(20):
            bad = corrupted(morphism, rng.randrange(size), rng.randrange(size))
            assert not mo.res_bd_a_check(bad)

    def test_points_fixes_check(self, system_factory):
        system = system_factory("A3")
        kmask = 0b101
        perms = mo.wk_action_permutations(system, kmask)
        assert (1, 0) in perms
        morphism = mo.res_K(system, kmask)
        assert mo.points_fixes_check(morphism)
        # codomain mask 0b01 is moved to 0b10 by the complement
        assert not mo.points_fixes_check(corrupted(morphism, 3, 0b01))

    def test_goetz1_set_check(self, system_factory):
        system = system_factory("B3")
        ctx = mo.build_context(system, 0b001)
        images = ctx.images.copy()
        images[[0, 1]] = images[[1, 0]]
        bad = dataclasses.replace(ctx, images=images)
        assert mo.goetz1_set_check(ctx) is None
        assert mo.goetz1_set_check(bad) is not None
        assert mo.goetz1_set_check(bad) == oracles.goetz1_first_failure(bad)

    def test_goetz1_set_check_rejects_non_member_in_k_piece(
            self, system_factory, monkeypatch):
        system = system_factory("B3")
        ctx = mo.build_context(system, 0b001)
        refine = system._refine_masks

        def moved(idxs, imask, jmask):
            # every element outside the quotient group lands in a piece
            # whose subset holds K; the members keep their pieces
            out = refine(idxs, imask, jmask)
            out[~np.isin(idxs, ctx.images)] |= ctx.kmask
            return out

        assert mo.goetz1_set_check(ctx) is None
        monkeypatch.setattr(system, "_refine_masks", moved)
        # the first pair, I = J = K, already fails
        assert mo.goetz1_set_check(ctx) == (0b001, 0b001)
        assert oracles.goetz1_first_failure(ctx) == (0b001, 0b001)

    def test_goetz1_set_check_sees_a_lost_quotient_ascent(
            self, system_factory, monkeypatch):
        # a quotient element loses a left ascent: it leaves X_{qI,0} for
        # the I holding it while its image stays in X_{I,K}, so only the
        # count of members in X_{I,K} shows the pieces differ
        system = system_factory("B3")
        ctx = mo.build_context(system, 0b001)
        lasc = ctx.quotient.lasc.copy()
        e = int(np.flatnonzero(lasc)[0])
        lasc[e] &= lasc[e] - 1
        monkeypatch.setattr(ctx.quotient, "lasc", lasc)
        assert mo.goetz1_set_check(ctx) is not None
        assert mo.goetz1_set_check(ctx) == oracles.goetz1_first_failure(ctx)

    @pytest.mark.parametrize("label", [
        label for label in SUPPORTED_TYPES
        if label.startswith("I") or int(label[1:]) <= 5])
    def test_goetz1_set_check_matches_pair_oracle(self, system_factory,
                                                  monkeypatch, label):
        # on every self-opposed subset: the context itself, six swaps of
        # two images, and for three non-members each, the non-member put
        # in place of one image or moved into a piece holding K. The one
        # pass names the pair-by-pair oracle's first failing pair.
        system = system_factory(label)
        refine = system._refine_masks
        moved = {"element": -1, "kmask": 0}

        def refine_moved(idxs, imask, jmask):
            out = refine(idxs, imask, jmask)
            out[idxs == moved["element"]] |= moved["kmask"]
            return out

        def agreed(context):
            found = mo.goetz1_set_check(context)
            assert found == oracles.goetz1_first_failure(context)
            return found

        monkeypatch.setattr(system, "_refine_masks", refine_moved)
        corrupted_found = []
        for kmask in all_masks(system):
            if not mo.is_self_opposed(system, kmask):
                continue
            ctx = mo.build_context(system, kmask)
            assert agreed(ctx) is None
            rng = random.Random("goetz1:%s:%d" % (label, kmask))
            for _ in range(6 if len(ctx.images) > 1 else 0):
                images = ctx.images.copy()
                pair = rng.sample(range(len(images)), 2)
                images[pair] = images[pair[::-1]]
                corrupted_found.append(
                    agreed(dataclasses.replace(ctx, images=images)))
            outside = np.setdiff1d(np.arange(system.order), ctx.images)
            for element in rng.sample(list(outside), min(3, len(outside))):
                images = ctx.images.copy()
                images[rng.randrange(len(images))] = element
                corrupted_found.append(
                    agreed(dataclasses.replace(ctx, images=images)))
                moved.update(element=element, kmask=kmask)
                corrupted_found.append(agreed(ctx))
                moved["element"] = -1
        assert any(corrupted_found)
