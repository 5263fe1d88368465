"""Descent algebra layer: product, bases, characters, radical, ideals.

The structural anchor is the dual-route product check: the fast structure-
constant product must agree with honest group-algebra convolution on every
ordered pair of basis elements.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from descent import algebra as alg
from descent.coxeter import iter_bits, popcount
from descent.errors import NotPositive, SystemMismatch, WrongType
from descent import linalg
from descent.table import SUPPORTED_TYPES

# every named system of rank <= 3, plus the two mandated larger ones
ORACLE_ROSTER = [
    "A1", "A2", "A3", "B2", "B3", "D3", "H3",
    "I2(3)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "A1xA1", "A2xA1", "B2xA1", "A1xA1xA1",
    "B4",
]


def random_vector(system, rng, span=9):
    size = 1 << system.rank
    coeffs = [Fraction(rng.randint(-span, span),
                       rng.randint(1, 3)) for _ in range(size)]
    return alg.DescentVector(system, coeffs, alg.BASIS_X)


@pytest.mark.parametrize("label", ORACLE_ROSTER)
def test_product_matches_group_algebra_oracle(system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    for imask in range(size):
        xi = alg.basis_x(system, imask)
        for jmask in range(size):
            xj = alg.basis_x(system, jmask)
            fast = alg.multiply(xi, xj)
            slow = alg.oracle_multiply(xi, xj)
            assert fast == slow, (label, imask, jmask)


def test_frozen_a2_table(system_factory):
    system = system_factory("A2")
    x = [alg.basis_x(system, m) for m in range(4)]
    expected = {
        (0, 0): {0: 6},
        (0, 1): {0: 3}, (1, 0): {0: 3},
        (0, 2): {0: 3}, (2, 0): {0: 3},
        (1, 1): {0: 1, 1: 1},
        (2, 2): {0: 1, 2: 1},
        (1, 2): {0: 1, 2: 1},
        (2, 1): {0: 1, 1: 1},
    }
    for (i, j), coeffs in expected.items():
        got = alg.multiply(x[i], x[j])
        want = [Fraction(coeffs.get(m, 0)) for m in range(4)]
        assert got.x_coords() == want, (i, j)
    for i in range(4):
        assert alg.multiply(x[3], x[i]) == x[i]
        assert alg.multiply(x[i], x[3]) == x[i]


def test_oracle_takes_coefficients_beyond_int64(system_factory):
    # the group vector of the unit is supported on the identity alone, so
    # both products are one translation each
    a3 = system_factory("A3")
    x1 = alg.basis_x(a3, 0b001)
    assert alg.oracle_multiply(10**20 * alg.unit(a3), x1) == 10**20 * x1
    # |W| > 6000: translations, never the full multiplication table
    h4 = system_factory("H4")
    h1 = alg.basis_x(h4, 0b0001)
    assert alg.oracle_multiply(2**55 * alg.unit(h4), h1) == 2**55 * h1


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_products_beyond_int64_match_oracle_and_scaling(
        system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    rng = random.Random("big:" + label)
    for _ in range(4):
        a = random_vector(system, rng)
        b = random_vector(system, rng)
        c = 10**20 + rng.randrange(10**6)
        big = alg.multiply(c * a, b)
        assert big == c * alg.multiply(a, b)
        assert big == alg.oracle_multiply(c * a, b)
    A = [[rng.randint(-9, 9) * 10**20 for _ in range(size)]
         for _ in range(3)]
    B = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(2)]
    got = alg.products(system, A, B)
    assert got.shape == (3, 2, size) and got.dtype == object
    # a zero factor must not squeeze the other one into int64
    assert not alg.products(system, [[0] * size], A).any()
    small = alg.products(system, [[v // 10**20 for v in row] for row in A], B)
    assert small.dtype == np.int64
    assert (got == small.astype(object) * 10**20).all()
    for i, row in enumerate(A):
        for j, col in enumerate(B):
            u = alg.DescentVector.from_ints(system, row)
            v = alg.DescentVector.from_ints(system, col)
            assert (alg.DescentVector.from_ints(system, got[i, j].tolist())
                    == alg.oracle_multiply(u, v))


def test_coordinates_are_numerators_over_one_denominator(system_factory):
    system = system_factory("A2")
    coeffs = [Fraction(1, 2), Fraction(-1, 3), 0, Fraction(4, 6)]
    v = alg.DescentVector(system, coeffs, alg.BASIS_Y)
    assert v.nums == (3, -2, 0, 4) and v.den == 6
    assert v.coeffs == tuple(Fraction(c) for c in coeffs)
    assert alg.DescentVector.from_ints(system, [2, 4, 0, 6], 4) == \
        alg.DescentVector(system, [Fraction(1, 2), 1, 0, Fraction(3, 2)])
    assert str(v) == "2/3*yS - 1/3*y[1] + 1/2*y[]"


def test_numpy_integer_coordinates_do_not_wrap(system_factory):
    # a numpy integer numerator times a common denominator used to wrap
    # around in int64
    system = system_factory("A1")
    v = alg.DescentVector(system, [np.int64(2**62), Fraction(1, 3)])
    assert v.coeffs == (Fraction(2**62), Fraction(1, 3))
    assert v.nums == (3 * 2**62, 1) and v.den == 3


def test_vector_from_group_numpy_integers_do_not_wrap(system_factory):
    system = system_factory("A1")
    # the identity has ascent set {1}, the generator the empty set
    v = alg.vector_from_group(system, [np.int64(2**62), Fraction(1, 3)],
                              alg.BASIS_Y)
    assert v.coeffs == (Fraction(1, 3), Fraction(2**62))


def test_multiplication_matrices(system_factory):
    system = system_factory("B3")
    rng = random.Random(8)
    a = random_vector(system, rng)
    left = alg.left_multiplication(a)
    right = alg.right_multiplication(a)
    for j in range(1 << system.rank):
        xj = alg.basis_x(system, j)
        assert alg.DescentVector.from_ints(
            system, left[j].tolist(), a.den) == alg.multiply(a, xj)
        assert alg.DescentVector.from_ints(
            system, right[j].tolist(), a.den) == alg.multiply(xj, a)


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "I2(6)"])
def test_unit_is_two_sided_identity(system_factory, label):
    system = system_factory(label)
    one = alg.unit(system)
    assert one == alg.basis_x(system, system.full_mask)
    rng = random.Random(4)
    for _ in range(10):
        v = random_vector(system, rng)
        assert alg.multiply(one, v) == v
        assert alg.multiply(v, one) == v


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_x_is_zeta_transform_of_y(system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    for imask in range(size):
        acc = alg.DescentVector.zero(system)
        for jmask in range(size):
            if jmask & imask == imask:
                acc = acc + alg.basis_y(system, jmask)
        assert acc == alg.basis_x(system, imask)


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_basis_round_trips(system_factory, label):
    system = system_factory(label)
    rng = random.Random(17)
    for _ in range(8):
        v = random_vector(system, rng)
        for tag in (alg.BASIS_Y, alg.BASIS_XPRIME):
            w = v.in_basis(tag)
            assert w.tag == tag
            assert w.in_basis(alg.BASIS_X) == v
            assert w == v  # equality is basis independent


def loop_change_basis(nums, tag, n, sign):
    """The per-bit mask loops that ``_change_basis`` replaced, kept as
    its reference."""
    out = list(nums)
    if tag == alg.BASIS_X:
        return out, 1
    if tag == alg.BASIS_Y:
        for b in range(n):
            bit = 1 << b
            for m in range(1 << n):
                if m & bit:
                    out[m] += sign * out[m ^ bit]
        return out, 1
    out = [v << n for v in out]
    for b in range(n):
        bit = 1 << b
        for m in range(1 << n):
            if not m & bit:
                out[m] += sign * (out[m | bit] // 2)
    return out, 1 << n


@pytest.mark.parametrize("n", range(8))
def test_change_basis_matches_mask_loops(n):
    rng = random.Random("change-basis:%d" % n)
    for tag in (alg.BASIS_X, alg.BASIS_Y, alg.BASIS_XPRIME):
        for sign in (-1, 1):
            for _ in range(3):
                nums = [rng.randint(-10**25, 10**25) for _ in range(1 << n)]
                assert (alg._change_basis(nums, tag, n, sign)
                        == loop_change_basis(nums, tag, n, sign))


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "I2(5)", "I2(6)", "D4"])
def test_longest_element_shifts_y_basis(system_factory, label):
    # y over the empty subset is the longest element itself, and left
    # translation by it complements descent sets
    system = system_factory(label)
    full = system.full_mask
    y0 = alg.basis_y(system, 0)
    for jmask in range(full + 1):
        got = alg.multiply(y0, alg.basis_y(system, jmask))
        assert got == alg.basis_y(system, full ^ jmask)


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "H3"])
def test_structure_tensor_shape_constraints(system_factory, label):
    system = system_factory(label)
    T = system.structure_tensor()
    size = 1 << system.rank
    full = system.full_mask
    xsizes = [len(system.coset_rep_indices(m)) for m in range(size)]
    for imask in range(size):
        for jmask in range(size):
            # refinements land inside the right factor's subset
            for kmask in range(size):
                if T[imask, jmask, kmask]:
                    assert kmask & jmask == kmask
            # counting identity: the double sum splits by refinement
            assert sum(int(T[imask, jmask, k]) * xsizes[k]
                       for k in range(size)) == xsizes[imask] * xsizes[jmask]
        assert [int(v) for v in T[imask, full]] == [
            1 if k == imask else 0 for k in range(size)]
        assert [int(v) for v in T[full, imask]] == [
            1 if k == imask else 0 for k in range(size)]


@pytest.mark.parametrize("label", ["A3", "B3", "B4", "H3", "I2(7)"])
def test_tau_is_multiplicative(system_factory, label):
    system = system_factory(label)
    rng = random.Random(29)
    one = alg.unit(system)
    assert all(v == 1 for v in alg.tau(one).values)
    for _ in range(40):
        a = random_vector(system, rng)
        b = random_vector(system, rng)
        ta = alg.tau(a).values
        tb = alg.tau(b).values
        tab = alg.tau(alg.multiply(a, b)).values
        assert tab == tuple(u * v for u, v in zip(ta, tb))


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "D4", "H3", "I2(5)"])
def test_radical_is_character_kernel(system_factory, label):
    system = system_factory(label)
    rad = alg.radical_basis(system)
    nshapes = len(system.shapes())
    size = 1 << system.rank
    assert len(rad) == size - nshapes
    for v in rad:
        assert all(t == 0 for t in alg.tau(v).values)
    profile = alg.loewy_profile(system)
    assert profile.dims[0] == size
    if len(profile.dims) > 1:
        assert profile.dims[1] == len(rad)
    else:
        assert len(rad) == 0


@pytest.mark.parametrize(
    "label", SUPPORTED_TYPES + ("A2xA1", "A1xA1xA1", "H3xA1"))
def test_radical_basis_spans_character_nullspace(system_factory, label):
    # Solomon's differences x_J - x_c against the exact nullspace of the
    # character table
    system = system_factory(label)
    size = 1 << system.rank
    taus = alg.tau_matrix(system)
    kern = linalg.nullspace(taus, size)
    diffs = alg.x_matrix(alg.radical_basis(system), size)
    assert not np.any(taus @ diffs.T)
    assert len(diffs) == len(kern) == size - len(system.shapes())
    assert linalg.Span(size, diffs).equals(linalg.Span(size, kern))
    for row in diffs:
        plus, minus = np.flatnonzero(row == 1), np.flatnonzero(row == -1)
        assert np.count_nonzero(row) == 2 and len(plus) == len(minus) == 1
        assert (system.shape_id_of_mask(int(plus[0]))
                == system.shape_id_of_mask(int(minus[0])))


@pytest.mark.parametrize("label,dims", [
    ("A1", (2,)),
    ("B2", (4,)),        # four shapes, semisimple
    ("I2(5)", (4, 1)),
    ("I2(6)", (4,)),
    ("A2", (4, 1)),
    ("B3", (8, 1)),      # seven shapes, so the radical is a line
    ("H3", (8, 2)),
    ("A3", (8, 3, 1)),   # the linear-type witness forces full length
])
def test_frozen_low_rank_loewy_profiles(system_factory, label, dims):
    system = system_factory(label)
    profile = alg.loewy_profile(system)
    assert tuple(profile.dims) == dims
    assert profile.loewy_length == len(dims)
    seq = list(profile.dims)
    assert all(a > b for a, b in zip(seq, seq[1:]))


class TestMinimalPolynomial:
    def test_unit_and_zero(self, system_factory):
        system = system_factory("A2")
        assert alg.minimal_polynomial(alg.unit(system)) == (
            Fraction(-1), Fraction(1))
        zero = alg.DescentVector.zero(system)
        assert alg.minimal_polynomial(zero) == (Fraction(0), Fraction(1))

    def test_full_group_sum(self, system_factory):
        # the all-elements sum z satisfies z^2 = |W| z
        system = system_factory("A2")
        z = alg.basis_x(system, 0)
        assert alg.minimal_polynomial(z) == (
            Fraction(0), Fraction(-6), Fraction(1))

    @pytest.mark.parametrize("label", ["A3", "B3", "I2(7)"])
    def test_annihilates_its_element(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random(31)
        for _ in range(10):
            a = random_vector(system, rng)
            p = alg.minimal_polynomial(a)
            assert p[-1] == 1  # monic
            acc = alg.DescentVector.zero(system)
            power = alg.unit(system)
            for c in p:
                acc = acc + c * power
                power = alg.multiply(power, a)
            assert acc.is_zero()

    def test_divides_positive_characteristic_polynomial(
            self, system_factory):
        system = system_factory("B3")
        rng = random.Random(37)
        for _ in range(10):
            coeffs = [Fraction(rng.randint(0, 5))
                      for _ in range(1 << system.rank)]
            a = alg.DescentVector(system, coeffs, alg.BASIS_X)
            charp = alg.characteristic_polynomial_positive(a)
            assert linalg.poly_degree(charp) == 1 << system.rank
            minp = alg.minimal_polynomial(a)
            _, rem = linalg.poly_divmod(charp, minp)
            assert linalg.poly_degree(rem) < 0

    def test_characteristic_rejects_negative(self, system_factory):
        system = system_factory("A2")
        v = alg.basis_x(system, 0) - alg.basis_x(system, 1)
        with pytest.raises(NotPositive):
            alg.characteristic_polynomial_positive(v)


def test_invertibility_by_characters(system_factory):
    system = system_factory("A3")
    assert alg.is_invertible(alg.unit(system))
    assert not alg.is_invertible(alg.basis_x(system, 0))
    assert not alg.is_invertible(alg.DescentVector.zero(system))
    # unit plus a radical element is still invertible
    rad = alg.radical_basis(system)[0]
    assert alg.is_invertible(alg.unit(system) + rad)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_principal_ideals_contain_generating_products(
        system_factory, label):
    system = system_factory(label)
    rng = random.Random(41)
    size = 1 << system.rank
    for _ in range(6):
        a = random_vector(system, rng)
        ri = alg.right_ideal(a)
        li = alg.left_ideal(a)
        assert ri.contains(a.x_coords())
        assert li.contains(a.x_coords())
        for mask in range(size):
            xj = alg.basis_x(system, mask)
            assert ri.contains(alg.multiply(a, xj).x_coords())
            assert li.contains(alg.multiply(xj, a).x_coords())


def test_saturated_family_closures(system_factory):
    system = system_factory("B3")
    a = alg.basis_x(system, 0b011) + alg.basis_x(system, 0b100)
    plain = alg.saturated_family(a)
    assert 0b011 in plain and 0b100 in plain
    for mask in plain:
        sub = mask
        while True:
            assert sub in plain
            if sub == 0:
                break
            sub = (sub - 1) & mask
    equi = alg.saturated_family(a, equivariant=True)
    assert plain <= equi
    for mask in equi:
        sid = system.shape_id_of_mask(mask)
        assert any(system.shape_order_leq(sid, system.shape_id_of_mask(m))
                   for m in a.support())
    span = alg.family_span(system, plain)
    assert span.dim == len(plain)


def assert_saturated(system, fam, equivariant):
    """The family is closed under dropping a generator and, when
    equivariant, under the shape order."""
    for i in fam:
        for b in iter_bits(i):
            assert i ^ (1 << b) in fam, "family is not downward closed"
    if equivariant:
        for i in fam:
            si = system.shape_id_of_mask(i)
            for j in range(1 << system.rank):
                if system.shape_order_leq(system.shape_id_of_mask(j), si):
                    assert j in fam, "family is not closed under the " \
                        "shape order"


def test_assert_saturated_rejects_open_families(system_factory):
    system = system_factory("A3")
    with pytest.raises(AssertionError):
        assert_saturated(system, {0b011, 0b001}, False)
    plain = alg.saturated_family(alg.basis_x(system, 0b001))
    assert plain == {0b000, 0b001}
    assert_saturated(system, plain, False)
    # the singletons of the linear type are all conjugate
    with pytest.raises(AssertionError):
        assert_saturated(system, plain, True)


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "H3", "I2(5)",
                                   "A2xA1"])
def test_saturated_families_are_closed(system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    rng = random.Random("saturated:" + label)
    for _ in range(30):
        # sparse supports, so that the families are proper
        coeffs = [rng.randrange(1, 10) if rng.random() < 0.25 else 0
                  for _ in range(size)]
        coeffs[rng.randrange(size)] = 1
        a = alg.DescentVector.from_ints(system, coeffs)
        for equivariant in (False, True):
            assert_saturated(system, alg.saturated_family(a, equivariant),
                             equivariant)


def test_group_vector_round_trip(system_factory):
    system = system_factory("B3")
    rng = random.Random(43)
    for _ in range(6):
        v = random_vector(system, rng)
        gv = alg.group_vector(v)
        assert len(gv) == system.order
        back = alg.vector_from_group(system, gv)
        assert back == v
    # a basis element expands to the indicator of its representative set
    for imask in (0, 0b101, system.full_mask):
        gv = alg.group_vector(alg.basis_x(system, imask))
        reps = set(int(w) for w in system.coset_rep_indices(imask))
        for w in range(system.order):
            assert gv[w] == (1 if w in reps else 0)


def test_centralizer_of_unit_is_everything(system_factory):
    system = system_factory("A3")
    assert alg.centralizer_dimension(alg.unit(system)) == 1 << system.rank


class TestTypeBWitnesses:
    def test_wrong_types_rejected(self, system_factory):
        with pytest.raises(WrongType):
            alg.witness_elements_typeB(system_factory("A3"))
        with pytest.raises(WrongType):
            alg.witness_elements_typeB(system_factory("B2"))
        with pytest.raises(WrongType):
            alg.witness_element_typeA(system_factory("B3"))

    @pytest.mark.parametrize("label,count", [("B3", 1), ("B4", 1), ("B5", 2)])
    def test_witnesses_live_in_the_radical(
            self, system_factory, label, count):
        system = system_factory(label)
        a_list, t_list = alg.witness_elements_typeB(system)
        assert len(a_list) == count
        assert len(t_list) == count
        for v in a_list + t_list:
            assert not v.is_zero()
            assert all(t == 0 for t in alg.tau(v).values)

    def test_type_a_witness_in_radical(self, system_factory):
        system = system_factory("A3")
        a = alg.witness_element_typeA(system)
        assert not a.is_zero()
        assert all(t == 0 for t in alg.tau(a).values)


def test_vectors_from_different_systems_do_not_mix(system_factory):
    a = alg.unit(system_factory("A2"))
    b = alg.unit(system_factory("B2"))
    with pytest.raises(SystemMismatch):
        alg.multiply(a, b)
    with pytest.raises(TypeError):
        alg.multiply(a, 3)


def test_positivity_predicate(system_factory):
    system = system_factory("A2")
    assert alg.basis_x(system, 1).is_positive()
    assert not (alg.basis_x(system, 1) * -1).is_positive()
    # positivity is an x-basis notion, so it survives basis changes
    v = alg.basis_y(system, 1)
    assert v.is_positive() == all(c >= 0 for c in v.x_coords())


def direct_convolution(system, na, nb):
    out = [0] * system.order
    for u in np.flatnonzero(na):
        for v in np.flatnonzero(nb):
            out[system.mul(int(u), int(v))] += int(na[u]) * int(nb[v])
    return out


@pytest.mark.parametrize("label,dense", [("A3", 24), ("H4", 30)])
def test_convolve_matches_direct_double_sum(system_factory, label, dense):
    # A3 translates through the full table, H4 through translations
    system = system_factory(label)
    rng = np.random.default_rng(17)
    for scale in (9, 2**40):
        sparse = np.zeros(system.order, dtype=np.int64)
        sparse[rng.choice(system.order, 3, replace=False)] = \
            rng.integers(1, scale, 3)
        full = np.zeros(system.order, dtype=np.int64)
        full[rng.choice(system.order, dense, replace=False)] = \
            rng.integers(-scale, scale, dense)
        for na, nb in ((sparse, full), (full, sparse)):
            got = alg.convolve(system, na, nb)
            assert got.tolist() == direct_convolution(system, na, nb)
