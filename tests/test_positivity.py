"""Positive elements: spectral facts, ideal stability, and the sharp
counterexamples showing where positivity is really needed."""

import random
from fractions import Fraction

import numpy as np
import pytest

from descent import algebra as alg
from descent import verify as vfy
from descent.coxeter import popcount

import oracles


def seeded_positive(system, rng):
    size = 1 << system.rank
    coeffs = [Fraction(rng.randrange(10)) for _ in range(size)]
    if all(c == 0 for c in coeffs):
        coeffs[size - 1] = Fraction(1)
    return alg.DescentVector(system, coeffs, alg.BASIS_X)


def subset_pairs(full):
    for kmask in range(full + 1):
        jmask = kmask
        while True:
            yield jmask, kmask
            if jmask == 0:
                break
            jmask = (jmask - 1) & kmask


@pytest.mark.parametrize("label", ["A2xA1", "B3", "D4"])
class TestPositiveElements:
    N = 40

    def test_minimal_polynomial_squarefree(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("sqfree:" + label)
        for _ in range(self.N):
            a = seeded_positive(system, rng)
            (p,) = alg.minimal_polynomial([a])
            assert oracles.poly_is_squarefree(p)

    def test_square_generates_same_ideals(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("ideals:" + label)
        for _ in range(self.N):
            a = seeded_positive(system, rng)
            sq = alg.multiply(a, a)
            assert alg.right_ideal([a])[0].equals(alg.right_ideal([sq])[0])
            assert alg.left_ideal([a])[0].equals(alg.left_ideal([sq])[0])

    def test_square_has_same_centralizer(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("comm:" + label)
        for _ in range(12):
            a = seeded_positive(system, rng)
            sq = alg.multiply(a, a)
            assert (oracles.span_canonical(alg.commutator_image([a])[0])
                    == oracles.span_canonical(alg.commutator_image([sq])[0]))

    def test_right_ideal_is_saturated_span(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("sature:" + label)
        for _ in range(self.N):
            a = seeded_positive(system, rng)
            fam = alg.saturated_family(a)
            span = alg.family_span(system, fam)
            assert alg.right_ideal([a])[0].equals(span)

    def test_tau_antitone_in_subsets(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random("mono:" + label)
        for _ in range(self.N):
            a = seeded_positive(system, rng)
            tv = oracles.tau_values(a)
            for jmask, kmask in subset_pairs(system.full_mask):
                big = tv[system.shape_id_of_mask(jmask)]
                small = tv[system.shape_id_of_mask(kmask)]
                assert small <= big


@pytest.mark.parametrize("label", ["A3", "B4"])
def test_positivity_suite_passes(label):
    report = vfy.run_suite("positivity", label, seed=0)
    assert report.passed, report.render_text()


def test_positive_spectrum_counts_group_elements(system_factory):
    system = system_factory("B3")
    rng = random.Random("spec")
    for _ in range(6):
        a = seeded_positive(system, rng)
        values = set(oracles.tau_values(a))
        total = sum(oracles.eigenspace_dim_on_regular(a, v) for v in values)
        assert total == system.order
        outside = max(values) + 1
        assert oracles.eigenspace_dim_on_regular(a, outside) == 0


# the types of the positivity suite's golden reports (tests/data/positivity)
GOLDEN_ROSTER = ["A3", "B3", "H3", "B4", "D4", "F4", "H4"]


def certificate_and_gcd(elements):
    """The positivity suite's root-count verdict on the minimal polynomial
    of each element, and the verdict of the gcd oracle."""
    values, dens = alg.character_values(elements)
    polys = alg.minimal_polynomial(elements)
    return ([vfy._splits_into_distinct_roots(p, v, d)
             for p, v, d in zip(polys, values.tolist(), dens)],
            [oracles.poly_is_squarefree(p) for p in polys])


@pytest.mark.parametrize("label", GOLDEN_ROSTER)
@pytest.mark.parametrize("seed", [0, 7])
def test_root_certificate_matches_gcd(system_factory, label, seed):
    # the suite's 100 elements, then a radical element, unit + radical
    # and a positive element over 3, which has a denominator
    system = system_factory(label)
    rng = random.Random("positivity:%d:%s" % (seed, system.type_label))
    elements = [vfy._random_positive(system, rng) for _ in range(100)]
    rad = oracles.radical_vectors(system)
    nilpotent = sum(rad[1:], rad[0])
    thirds = Fraction(1, 3) * elements[0]
    assert alg.character_values([thirds])[1] != [1]
    elements += [nilpotent, alg.unit(system) + nilpotent, thirds]
    certificate, gcd = certificate_and_gcd(elements)
    assert certificate == gcd
    assert certificate[-3:] == [False, False, True]


# the positivity golden types and I2(5)
ORACLE_ROSTER = ["A3", "B3", "H3", "I2(5)", "B4", "D4", "F4", "H4"]


def assert_ideals_and_centralizers_match_elimination(vectors):
    left, right = oracles.multiplication_matrices(vectors)
    assert np.array_equal(alg.left_multiplication(vectors), left)
    for got, want in [(alg.right_ideal(vectors), left),
                      (alg.left_ideal(vectors), right)]:
        assert all(a.equals(b) for a, b in
                   zip(got, oracles.eliminated_spans(want), strict=True))
    size = 1 << vectors[0].system.rank
    assert alg.centralizer_dimension(vectors) == [
        size - span.dim for span in oracles.eliminated_spans(left - right)]


@pytest.mark.parametrize("label", ORACLE_ROSTER)
@pytest.mark.parametrize("seed", [0, 7])
def test_suite_ideals_and_centralizers_match_elimination(system_factory,
                                                         label, seed):
    # the suite's 100 elements and their squares: every right ideal is a
    # coordinate span, and so is every left ideal of a unit
    system = system_factory(label)
    vectors = oracles.positivity_vectors(system, seed)
    values = alg.character_values(vectors)[0]
    assert alg._semisimple(alg.left_multiplication(vectors), values).all()
    assert_ideals_and_centralizers_match_elimination(vectors)
    for span in alg.right_ideal(vectors):
        assert span.equals(alg.family_span(system, span.pivots))
    for row, span in zip(values, alg.left_ideal(vectors)):
        assert (0 in row) or span.dim == 1 << system.rank


def test_non_semisimple_elements_take_the_elimination_fallback(
        system_factory):
    # x_J - x_c has minimal polynomial x^2, the unit plus it (x - 1)^2:
    # neither chain vanishes, so neither centralizer is read off C; the
    # nilpotent's ideals are no coordinate spans, and the unit plus it is
    # invertible, so both of its ideals are the whole algebra
    system = system_factory("A3")
    nilpotent = oracles.radical_vectors(system)[0]
    stack = [nilpotent, alg.unit(system) + nilpotent]
    values = alg.character_values(stack)[0]
    assert not alg._semisimple(alg.left_multiplication(stack), values).any()
    assert_ideals_and_centralizers_match_elimination(stack)
    right, left = alg.right_ideal(stack), alg.left_ideal(stack)
    assert [span.dim for span in right + left] == [2, 8, 1, 8]
    assert not any(span.equals(alg.family_span(system, span.pivots))
                   for span in (right[0], left[0]))


def test_root_certificate_on_a2_nilpotent(system_factory):
    system = system_factory("A2")
    a = alg.basis_x(system, 0b01) - alg.basis_x(system, 0b10)
    assert certificate_and_gcd([a]) == ([False], [False])


class TestCounterexamples:
    """The five sharp failures for elements that are not positive."""

    def test_radical_line_right_ideal_too_small(self, system_factory):
        # difference of the two conjugate singletons: spans the radical,
        # but its right ideal misses the saturated-family span
        system = system_factory("A2")
        a = alg.basis_x(system, 0b01) - alg.basis_x(system, 0b10)
        rad = alg.radical_basis(system)
        assert len(rad) == 1
        assert alg.right_ideal([a])[0].contains(rad[0])
        assert alg.right_ideal([a])[0].dim == 1
        fam = alg.saturated_family(a)
        assert sorted(fam) == [0b00, 0b01, 0b10]
        span = alg.family_span(system, fam)
        assert span.dim == 3
        assert not alg.right_ideal([a])[0].equals(span)

    def test_left_right_ideals_differ(self, system_factory):
        # an element whose left ideal strictly exceeds its right ideal
        system = system_factory("A3")
        a = alg.basis_x(system, 0b001) - alg.basis_x(system, 0b110)
        witness = alg.basis_x(system, 0b010) - alg.basis_x(system, 0b100)
        assert alg.left_ideal([a])[0].contains(witness.x_coords())
        assert not alg.right_ideal([a])[0].contains(witness.x_coords())

    def test_positive_full_coefficient_yet_singular(self, system_factory):
        # the coefficient on the full subset is 1 > 0, still not a unit
        system = system_factory("A2")
        a = alg.basis_x(system, 0b11) - alg.basis_x(system, 0b10)
        assert Fraction(a.nums[system.full_mask], a.den) == 1
        assert not oracles.is_invertible(a)
        assert 0 in oracles.tau_values(a)

    def test_sum_of_ideals_is_not_ideal_of_sum(self, system_factory):
        system = system_factory("A2")
        a = alg.basis_x(system, 0b01) - alg.basis_x(system, 0b10)
        left = oracles.span_sum(alg.right_ideal([a])[0],
                                alg.right_ideal([-1 * a])[0])
        right = alg.right_ideal([a + (-1 * a)])[0]
        assert left.dim == 1
        assert right.dim == 0
        assert not left.equals(right)

    def test_nilpotent_with_square_minimal_polynomial(self, system_factory):
        system = system_factory("A2")
        a = alg.basis_x(system, 0b01) - alg.basis_x(system, 0b10)
        p = alg.minimal_polynomial([a])[0]
        assert p == (Fraction(0), Fraction(0), Fraction(1))  # T^2
        assert not oracles.poly_is_squarefree(p)
        assert alg.multiply(a, a).is_zero()
        assert alg.left_ideal([a])[0].dim == 1
        assert alg.left_ideal([alg.multiply(a, a)])[0].dim == 0


def test_strict_centralizer_example(system_factory):
    # a positive element with a proper commutant, stable under squaring
    system = system_factory("A3")
    a = alg.basis_x(system, 0b011)
    dz = alg.centralizer_dimension([a])[0]
    assert dz == 5
    assert dz < (1 << system.rank)
    assert alg.centralizer_dimension([alg.multiply(a, a)])[0] == dz
