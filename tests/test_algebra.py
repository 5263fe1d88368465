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
from descent import morphisms as mo
from descent.coxeter import build_system, iter_bits, popcount
from descent.errors import NotInDescentAlgebra, SystemMismatch, WrongType
from descent import linalg
from descent.table import SUPPORTED_TYPES
import oracles
from test_coxeter import permuted_system

# every named system of rank <= 3, plus the two mandated larger ones
TABLE_ROSTER = [
    "A1", "A2", "A3", "B2", "B3", "D3", "H3",
    "I2(3)", "I2(5)", "I2(6)", "I2(7)", "I2(8)",
    "A1xA1", "A2xA1", "B2xA1", "A1xA1xA1",
    "B4",
]
# and the roster types above ALL_WITNESS_ORDER, whose class counts are
# checked at two witnesses per class
ORACLE_ROSTER = TABLE_ROSTER + ["H4", "D6", "B6", "E6"]


def random_vector(system, rng, span=9):
    size = 1 << system.rank
    coeffs = [Fraction(rng.randint(-span, span),
                       rng.randint(1, 3)) for _ in range(size)]
    return alg.DescentVector(system, coeffs, alg.BASIS_X)


@pytest.mark.parametrize("label", ORACLE_ROSTER)
def test_product_matches_group_algebra_oracle(system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    basis = [alg.basis_x(system, m) for m in range(size)]
    slow = alg.oracle_multiply(basis, basis)
    for imask in range(size):
        for jmask in range(size):
            fast = alg.multiply(basis[imask], basis[jmask])
            assert fast == slow[imask][jmask], (label, imask, jmask)


def convolved_product(left, right):
    """The per-pair group-algebra product: one ``convolve`` of the two
    group vectors, folded back."""
    system = left.system
    na, da = oracles.group_ints(left)
    nb, db = oracles.group_ints(right)
    return oracles.fold_group(system, oracles.convolve(system, na, nb)[None],
                              [da * db], left.tag)[0]


@pytest.mark.parametrize("label", TABLE_ROSTER + ["F4"])
def test_oracle_lists_match_pairs_and_convolution(system_factory, label):
    # the list call against the two-vector call and the per-pair convolve
    system = system_factory(label)
    basis = [alg.basis_x(system, m) for m in range(1 << system.rank)]
    table = alg.oracle_multiply(basis, basis)
    assert len(table) == len(basis)
    for xi, row in zip(basis, table):
        assert len(row) == len(basis)
        for xj, got in zip(basis, row):
            assert got == alg.oracle_multiply(xi, xj), (label, xi, xj)
            assert got == convolved_product(xi, xj), (label, xi, xj)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_oracle_lists_beyond_int64_and_zero(system_factory, label):
    system = system_factory(label)
    rng = random.Random("oracle-lists:" + label)
    zero = alg.DescentVector.zero(system)
    big = 10**20 + rng.randrange(10**6)
    left = [big * random_vector(system, rng), zero,
            random_vector(system, rng), alg.basis_y(system, 0b011),
            alg.basis_y(system, 0b101).in_basis(alg.BASIS_XPRIME)]
    right = [random_vector(system, rng), big * random_vector(system, rng),
             zero]
    assert alg._y_rows(left)[0].dtype == object
    table = alg.oracle_multiply(left, right)
    for a, row in zip(left, table):
        for b, got in zip(right, row):
            assert got.tag == a.tag
            assert got == alg.oracle_multiply(a, b) == alg.multiply(a, b)
    assert all(v.is_zero() for v in table[1] + [row[2] for row in table])
    assert alg.oracle_multiply([], right) == []
    assert alg.oracle_multiply(left, []) == [[]] * len(left)


def bound_row_batches(monkeypatch, system_class):
    """Make every ``multiplication_table`` call assert that it asks for at
    most one block of rows, max(1, _SCATTER_CELLS // |W|); return the
    list of the batch sizes asked for."""
    original = system_class.multiplication_table
    sizes = []

    def bounded(system, us):
        sizes.append(len(us))
        assert 1 <= len(us) <= max(1, alg._SCATTER_CELLS // system.order)
        return original(system, us)

    monkeypatch.setattr(system_class, "multiplication_table", bounded)
    return sizes


def test_oracle_lists_read_rows_in_blocks(monkeypatch):
    # H4 (order 14,400) reads its witness rows one bounded block at a
    # time, never a |W| x |W| table; 2**55 |W| needs Python ints. A new
    # system, since the class counts are memoized per system
    h4 = build_system(type="H4")
    assert h4.order > alg.ALL_WITNESS_ORDER
    sizes = bound_row_batches(monkeypatch, type(h4))
    unit, h1, h3 = (alg.unit(h4), alg.basis_x(h4, 0b0001),
                    alg.basis_x(h4, 0b0111))
    left, right = [2**55 * unit, h3], [h1, h3]
    table = alg.oracle_multiply(left, right)
    assert table[0] == [2**55 * h1, 2**55 * h3]
    for a, row in zip(left, table):
        for b, got in zip(right, row):
            assert got == alg.multiply(a, b)
    # the first and the last member of each of the 16 classes
    assert sum(sizes) == 32


def test_oracle_never_reads_the_structure_constants(monkeypatch):
    system = build_system(type="B3", cache=False)
    basis = [alg.basis_x(system, m) for m in range(1 << system.rank)]
    want = [[alg.multiply(a, b) for b in basis] for a in basis]
    fresh = build_system(type="B3", cache=False)
    basis = [alg.basis_x(fresh, m) for m in range(1 << fresh.rank)]

    def refuse(*args):
        raise AssertionError("the oracle read the structure constants")

    monkeypatch.setattr(type(fresh), "structure_tensor", refuse)
    monkeypatch.setattr(alg, "_tensor_support", refuse)
    monkeypatch.setattr(alg, "products", refuse)
    got = alg.oracle_multiply(basis, basis)
    assert [[str(v) for v in row] for row in got] == [
        [str(v) for v in row] for row in want]


@pytest.mark.parametrize("label", ["B3", "H4"])
def test_class_counts_reject_a_corrupted_group_table(monkeypatch, label):
    # B3 checks every element, H4 (above the all-witness order) the first
    # and the last member of each class. The row of w^-1, for the last
    # member w of a class, gets the entries at 1 and at some u swapped:
    # the pairs (R(u), L(w^-1 u)) counted there change, and that class's
    # counts disagree with those at its first member
    fresh = build_system(type=label, cache=False)
    rasc, lasc, inv = fresh.rasc, fresh.lasc, fresh.inv
    masks, sizes = np.unique(rasc, return_counts=True)
    mask = int(masks[sizes > 1][0])
    w = int(np.flatnonzero(rasc == mask)[-1])

    def corrupt(row):
        row = row.copy()
        u = next(u for u in range(1, len(row)) if lasc[row[u]] != mask)
        row[[0, u]] = row[[u, 0]]
        return row

    original = fresh.multiplication_table

    def corrupted(us):
        rows = original(us).copy()
        for i in np.flatnonzero(us == inv[w]):
            rows[i] = corrupt(rows[i])
        return rows

    monkeypatch.setattr(fresh, "multiplication_table", corrupted)
    with pytest.raises(NotInDescentAlgebra,
                       match=r"descent class of mask %d$" % mask):
        alg.oracle_multiply(alg.unit(fresh), alg.unit(fresh))


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
    # both contractions with the class counts run on Python integers:
    # 10**20 is beyond int64, and 2**55 is within it but 2**55 |W| is not
    a3 = system_factory("A3")
    x1 = alg.basis_x(a3, 0b001)
    assert alg.oracle_multiply(10**20 * alg.unit(a3), x1) == 10**20 * x1
    # |W| > ALL_WITNESS_ORDER: the counts come from two witnesses a class
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


def dense_products(system, A, B):
    """The dense route of ``alg.products``: two ``tensordot`` contractions
    over the whole structure tensor, under the same int64 bound."""
    size = 1 << system.rank
    A = linalg.integer_rows(A, size)
    B = linalg.integer_rows(B, size)
    T = system.structure_tensor()
    T = T.astype(linalg.exact_dtype(
        linalg.absmax(T) * (linalg.absmax(A) + 1) * (linalg.absmax(B) + 1)
        * size * size), copy=False)
    AT = np.tensordot(A.astype(T.dtype, copy=False), T, axes=(1, 0))
    return np.tensordot(AT, B.astype(T.dtype, copy=False),
                        axes=(1, 1)).transpose(0, 2, 1)


def dense_multiplication(vector, axis):
    """T contracted with the vector's integer x-coordinates along its axis
    ``axis``: the dense route of the left (0) and right (1)
    multiplication matrices."""
    size = 1 << vector.system.rank
    v = linalg.integer_rows([vector.x_ints()[0]], size)[0]
    T = vector.system.structure_tensor()
    T = T.astype(linalg.exact_dtype(
        linalg.absmax(T) * (linalg.absmax(v) + 1) * size), copy=False)
    return np.tensordot(v.astype(T.dtype, copy=False), T, axes=(0, axis))


def assert_matches_dense_route(system, scale, seed):
    size = 1 << system.rank
    rng = np.random.default_rng(seed)
    A = [[int(v) * scale for v in row]
         for row in rng.integers(-9, 10, (3, size))]
    B = rng.integers(-9, 10, (2, size))
    got, want = alg.products(system, A, B), dense_products(system, A, B)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    vector = alg.DescentVector.from_ints(system, A[0])
    for axis, route in enumerate((alg.left_multiplication,
                                  alg.right_multiplication)):
        got, want = route([vector])[0], dense_multiplication(vector, axis)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # the identity map with the image of x_{s} moved: the pairs through
    # it fail, the others hold
    columns = np.eye(size, dtype=object)
    columns[1] += A[0]
    morphism = mo.AlgebraMorphism(system, system, columns)
    got = morphism.multiplicative_pairs()
    want = oracles.multiplicative_pairs_by_segments(morphism)
    assert want.any() and not want.all()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("label,perm", [
    (label, None) for label in SUPPORTED_TYPES] + [
    ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)), ("A2xB2", (3, 0, 2, 1))])
def test_support_contraction_matches_dense_route(system_factory, label,
                                                 perm):
    system = (system_factory(label) if perm is None
              else permuted_system(label, perm))
    assert_matches_dense_route(system, 1, 11)


@pytest.mark.parametrize("label", ["B3", "D4"])
def test_support_contraction_beyond_int64_matches_dense_route(
        system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    assert alg.products(system, [[10**20] * size],
                        [[1] * size]).dtype == object
    assert_matches_dense_route(system, 10**20, 12)


def test_right_multiplication_of_large_entries_stays_in_int64(
        system_factory):
    # the identity operand adds no size: entries near 3e13 keep every
    # sum of a B4 right multiplication matrix far inside int64
    system = system_factory("B4")
    size = 1 << system.rank
    rng = random.Random("right:B4")
    nums = [3 * 10**13 + rng.randrange(-10**6, 10**6) for _ in range(size)]
    vector = alg.DescentVector.from_ints(system, nums)
    got = alg.right_multiplication([vector])[0]
    assert got.dtype == np.int64
    # row J holds x_J * vector: sum over I of T[J, I, K] vector[I]
    T = system.structure_tensor().astype(object)
    want = np.tensordot(T, np.array(nums, dtype=object), axes=(1, 0))
    assert (got.astype(object) == want).all()


def test_coordinates_are_numerators_over_one_denominator(system_factory):
    system = system_factory("A2")
    coeffs = [Fraction(1, 2), Fraction(-1, 3), 0, Fraction(4, 6)]
    v = alg.DescentVector(system, coeffs, alg.BASIS_Y)
    assert v.nums == (3, -2, 0, 4) and v.den == 6
    assert [Fraction(n, v.den) for n in v.nums] == [
        Fraction(c) for c in coeffs]
    assert alg.DescentVector.from_ints(system, [2, 4, 0, 6], 4) == \
        alg.DescentVector(system, [Fraction(1, 2), 1, 0, Fraction(3, 2)])
    assert str(v) == "2/3*yS - 1/3*y[1] + 1/2*y[]"


def test_numpy_integer_coordinates_do_not_wrap(system_factory):
    # a numpy integer numerator times a common denominator used to wrap
    # around in int64
    system = system_factory("A1")
    v = alg.DescentVector(system, [np.int64(2**62), Fraction(1, 3)])
    assert v.x_coords() == [Fraction(2**62), Fraction(1, 3)]
    assert v.nums == (3 * 2**62, 1) and v.den == 3


def test_vector_from_group_numpy_integers_do_not_wrap(system_factory):
    system = system_factory("A1")
    # the identity has ascent set {1}, the generator the empty set
    v = oracles.vector_from_group(
        system, [np.int64(2**62), Fraction(1, 3)], alg.BASIS_Y)
    assert [Fraction(n, v.den) for n in v.nums] == [
        Fraction(1, 3), Fraction(2**62)]


def test_multiplication_matrices(system_factory):
    system = system_factory("B3")
    rng = random.Random(8)
    a = random_vector(system, rng)
    left = alg.left_multiplication([a])[0]
    right = alg.right_multiplication([a])[0]
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
                got, scale = alg._change_basis(nums, tag, n, sign)
                assert ((got.tolist(), scale)
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
    xsizes = [np.count_nonzero((system.rasc & m) == m) for m in range(size)]
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
    assert all(v == 1 for v in oracles.tau_values(one))
    for _ in range(40):
        a = random_vector(system, rng)
        b = random_vector(system, rng)
        ta = oracles.tau_values(a)
        tb = oracles.tau_values(b)
        tab = oracles.tau_values(alg.multiply(a, b))
        assert tab == tuple(u * v for u, v in zip(ta, tb))


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "D4", "H3", "I2(5)"])
def test_radical_is_character_kernel(system_factory, label):
    system = system_factory(label)
    rad = oracles.radical_vectors(system)
    nshapes = len(system.shapes())
    size = 1 << system.rank
    assert len(rad) == size - nshapes
    for v in rad:
        assert all(t == 0 for t in oracles.tau_values(v))
    profile = alg.loewy_profile(system)
    assert profile.dims[0] == size
    if len(profile.dims) > 1:
        assert profile.dims[1] == len(rad)
    else:
        assert len(rad) == 0


@pytest.mark.parametrize(
    "label", SUPPORTED_TYPES + ("A2xA1", "A1xA1xA1", "H3xA1"))
def test_cartan_invariants(system_factory, label):
    # integral, nonnegative, upper unitriangular in the shape order, with
    # entries summing to 2^n and row sums the shape sizes (the left
    # regular module); the trace identity Theta^T C Theta = Tr holds on
    # every (I, J), with Tr from the whole tensor
    system = system_factory(label)
    C = alg.cartan_invariants(system)
    assert C.dtype == np.int64 and not C.flags.writeable
    assert (C >= 0).all() and (np.tril(C, -1) == 0).all()
    assert (C.diagonal() == 1).all() and C.sum() == 1 << system.rank
    assert C.sum(axis=1).tolist() == [len(shape.members)
                                      for shape in system.shapes()]
    T = system.structure_tensor()
    theta = alg.tau_matrix(system)
    assert np.array_equal(theta.T @ C @ theta,
                          np.einsum("ikm,mjk->ij", T, T))


def test_lower_solve_refuses_a_fractional_solution():
    lower = np.array([[1, 0], [1, 2]])
    solved = alg._lower_solve(lower, np.array([[3], [5]]))
    assert solved.tolist() == [[3], [1]]
    with pytest.raises(AssertionError):
        alg._lower_solve(lower, np.array([[3], [4]]))


@pytest.mark.parametrize(
    "label", SUPPORTED_TYPES + ("A2xA1", "A1xA1xA1", "H3xA1"))
def test_radical_basis_spans_character_nullspace(system_factory, label):
    # Solomon's differences x_J - x_c against the exact nullspace of the
    # character table
    system = system_factory(label)
    size = 1 << system.rank
    taus = alg.tau_matrix(system)
    kern = linalg.nullspace(taus)
    diffs = alg.radical_basis(system)
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
        assert alg.minimal_polynomial([alg.unit(system)])[0] == (
            Fraction(-1), Fraction(1))
        zero = alg.DescentVector.zero(system)
        assert alg.minimal_polynomial([zero]) == [(Fraction(0), Fraction(1))]

    def test_full_group_sum(self, system_factory):
        # the all-elements sum z satisfies z^2 = |W| z
        system = system_factory("A2")
        z = alg.basis_x(system, 0)
        assert alg.minimal_polynomial([z])[0] == (
            Fraction(0), Fraction(-6), Fraction(1))

    @pytest.mark.parametrize("label", ["A3", "B3", "I2(7)"])
    def test_annihilates_its_element(self, system_factory, label):
        system = system_factory(label)
        rng = random.Random(31)
        for _ in range(10):
            a = random_vector(system, rng)
            p = alg.minimal_polynomial([a])[0]
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
            charp = oracles.characteristic_polynomial_positive(a)
            assert oracles.poly_degree(charp) == 1 << system.rank
            minp = alg.minimal_polynomial([a])[0]
            _, rem = oracles.poly_divmod(charp, minp)
            assert oracles.poly_degree(rem) < 0

    def test_characteristic_rejects_negative(self, system_factory):
        system = system_factory("A2")
        v = alg.basis_x(system, 0) - alg.basis_x(system, 1)
        with pytest.raises(oracles.NotPositive):
            oracles.characteristic_polynomial_positive(v)


def test_invertibility_by_characters(system_factory):
    system = system_factory("A3")
    assert oracles.is_invertible(alg.unit(system))
    assert not oracles.is_invertible(alg.basis_x(system, 0))
    assert not oracles.is_invertible(alg.DescentVector.zero(system))
    # unit plus a radical element is still invertible
    rad = oracles.radical_vectors(system)[0]
    assert oracles.is_invertible(alg.unit(system) + rad)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_principal_ideals_contain_generating_products(
        system_factory, label):
    system = system_factory(label)
    rng = random.Random(41)
    size = 1 << system.rank
    for _ in range(6):
        a = random_vector(system, rng)
        ri = alg.right_ideal([a])[0]
        li = alg.left_ideal([a])[0]
        assert ri.contains(a.x_coords())
        assert li.contains(a.x_coords())
        for mask in range(size):
            xj = alg.basis_x(system, mask)
            assert ri.contains(alg.multiply(a, xj).x_coords())
            assert li.contains(alg.multiply(xj, a).x_coords())


def test_saturated_family_closures(system_factory):
    system = system_factory("B3")
    a = alg.basis_x(system, 0b011) + alg.basis_x(system, 0b100)
    plain = oracles.saturated_family_by_members(a, False)
    assert 0b011 in plain and 0b100 in plain
    for mask in plain:
        sub = mask
        while True:
            assert sub in plain
            if sub == 0:
                break
            sub = (sub - 1) & mask
    equi = alg.saturated_family(a)
    assert plain <= equi
    for mask in equi:
        sid = system.shape_id_of_mask(mask)
        assert any(oracles.shape_order_leq(
            system, sid, system.shape_id_of_mask(m))
            for m, c in enumerate(a.nums) if c)
    span = alg.family_span(system, plain)
    assert span.dim == len(plain)


@pytest.mark.parametrize("label", ["A3", "B4", "H3xA1"])
def test_family_span_equals_the_elimination_of_its_identity_rows(
        system_factory, label):
    system = system_factory(label)
    size = 1 << system.rank
    rng = random.Random(label)
    for _ in range(30):
        family = rng.sample(range(size), rng.randint(0, size))
        span = alg.family_span(system, frozenset(family))
        want = linalg.Span(size, np.eye(size, dtype=np.int64)[family])
        assert span.equals(want) and span.rows.dtype == want.rows.dtype


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
                if oracles.shape_order_leq(
                        system, system.shape_id_of_mask(j), si):
                    assert j in fam, "family is not closed under the " \
                        "shape order"


def test_assert_saturated_rejects_open_families(system_factory):
    system = system_factory("A3")
    with pytest.raises(AssertionError):
        assert_saturated(system, {0b011, 0b001}, False)
    plain = oracles.saturated_family_by_members(alg.basis_x(system, 0b001),
                                                False)
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
        assert_saturated(system, oracles.saturated_family_by_members(
            a, False), False)
        assert_saturated(system, alg.saturated_family(a), True)


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_coset_sum_is_the_group_vector_of_the_basis_element(system_factory,
                                                           label):
    system = system_factory(label)
    for mask in range(system.full_mask + 1):
        nums, den = oracles.group_ints(alg.basis_x(system, mask))
        assert den == 1
        assert np.array_equal(alg.coset_sum(system, mask), nums)


def test_group_vector_round_trip(system_factory):
    system = system_factory("B3")
    rng = random.Random(43)
    for _ in range(6):
        v = random_vector(system, rng)
        gv = oracles.group_vector(v)
        assert len(gv) == system.order
        back = oracles.vector_from_group(system, gv)
        assert back == v
    # a basis element expands to the indicator of its representative set
    for imask in (0, 0b101, system.full_mask):
        gv = oracles.group_vector(alg.basis_x(system, imask))
        reps = set(np.flatnonzero((system.rasc & imask) == imask).tolist())
        for w in range(system.order):
            assert gv[w] == (1 if w in reps else 0)


def test_fold_rejects_a_vector_not_constant_on_a_descent_class(
        system_factory):
    system = system_factory("B3")
    masks, counts = np.unique(system.rasc, return_counts=True)
    split = masks[counts > 1]
    mask, later = int(split[0]), int(split[-1])
    first, second = np.flatnonzero(system.rasc == mask)[:2]
    nums = np.zeros((3, system.order), dtype=np.int64)
    nums[1, first], nums[1, second] = 3, 5
    # row 2 fails on another class: the first row that fails names it
    assert later != mask
    nums[2, np.flatnonzero(system.rasc == later)[1]] = 7
    with pytest.raises(NotInDescentAlgebra,
                       match=r"descent class of mask %d$" % mask):
        oracles.fold_group(system, nums, [1, 1, 1], alg.BASIS_X)
    with pytest.raises(NotInDescentAlgebra,
                       match=r"descent class of mask %d$" % later):
        oracles.fold_group(system, nums[[0, 2]], [1, 1], alg.BASIS_X)
    # constant on that class, it folds to the y-basis element
    nums[1, system.rasc == mask] = 3
    zero, folded = oracles.fold_group(system, nums[:2], [1, 2], alg.BASIS_Y)
    assert zero.is_zero()
    assert folded == Fraction(3, 2) * alg.basis_y(system, mask)


def test_centralizer_of_unit_is_everything(system_factory):
    system = system_factory("A3")
    assert alg.centralizer_dimension([alg.unit(system)]) == [
        1 << system.rank]


class TestTypeBWitnesses:
    def test_wrong_types_rejected(self, system_factory):
        with pytest.raises(WrongType):
            alg.witness_elements_typeB(system_factory("A3"))
        with pytest.raises(WrongType):
            alg.witness_elements_typeB(system_factory("B2"))
        with pytest.raises(WrongType):
            oracles.witness_element_typeA(system_factory("B3"))

    def test_other_generator_numberings_rejected(self):
        # the reversed B5 is classified B5, but its position 0 is a chain
        # end: read by position, a_1 and a_2 have nonzero character values
        # and t_2 is not in the square of the radical
        reversed_b5 = permuted_system("B5", (4, 3, 2, 1, 0))
        assert reversed_b5.components == [("B", 5)]
        # rank 0 and 1 have no doubled bond to number
        for system in (reversed_b5, build_system(matrix=[]),
                       build_system(matrix=[[1]])):
            with pytest.raises(WrongType):
                alg.witness_elements_typeB(system)

    @pytest.mark.parametrize("label,count", [("B3", 1), ("B4", 1), ("B5", 2)])
    def test_witnesses_live_in_the_radical(
            self, system_factory, label, count):
        system = system_factory(label)
        a_list, t_list = alg.witness_elements_typeB(system)
        assert len(a_list) == count
        assert len(t_list) == count
        for v in a_list + t_list:
            assert not v.is_zero()
            assert all(t == 0 for t in oracles.tau_values(v))

    def test_type_a_witness_in_radical(self, system_factory):
        system = system_factory("A3")
        a = oracles.witness_element_typeA(system)
        assert not a.is_zero()
        assert all(t == 0 for t in oracles.tau_values(a))


def test_vectors_from_different_systems_do_not_mix(system_factory):
    a = alg.unit(system_factory("A2"))
    b = alg.unit(system_factory("B2"))
    with pytest.raises(SystemMismatch):
        alg.multiply(a, b)
    with pytest.raises(TypeError):
        alg.multiply(a, 3)


def test_positivity_predicate(system_factory):
    system = system_factory("A2")
    assert oracles.is_positive(alg.basis_x(system, 1))
    assert not oracles.is_positive(alg.basis_x(system, 1) * -1)
    # positivity is an x-basis notion, so it survives basis changes
    v = alg.basis_y(system, 1)
    assert oracles.is_positive(v) == all(c >= 0 for c in v.x_coords())


def loop_convolve(system, na, nb):
    """One translation of the denser factor per support element of the
    sparser one, each a word walk: u v for every v applies the letters of
    u's reduced word, last first, as left multiplications by generators
    (``lmul``); u v for every u is a ``right_translation`` by v."""
    order = system.order
    amax, bmax = linalg.absmax(na), linalg.absmax(nb)
    dtype = linalg.exact_dtype(max(amax * bmax * order, amax, bmax))
    na, nb = na.astype(dtype), nb.astype(dtype)
    out = np.zeros(order, dtype=dtype)
    if np.count_nonzero(na) <= np.count_nonzero(nb):
        lm = system.lmul()
        for u in np.flatnonzero(na):
            at = np.arange(order)
            for s in reversed(system.word(u)):
                at = lm[at, s]
            out[at] += na[u] * nb
    else:
        for v in np.flatnonzero(nb):
            out[system.right_translation(v)] += nb[v] * na
    return out


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4", "B5", "H4"])
def test_convolve_matches_per_element_translations(system_factory,
                                                   monkeypatch, label):
    # H4 (order 14,400) walks at most 18 rows a block, A3 the whole group
    # in one block. Beyond rank 3, large subsets: x_I has |W| / |W_I|
    # group terms
    system = system_factory(label)
    sizes = bound_row_batches(monkeypatch, type(system))
    size = 1 << system.rank
    if system.rank <= 3:
        masks = range(size)
    else:
        masks = [size - 1 - m for m in ((0, 8) if label == "H4"
                                        else (0, 1, 2, 5, 6))]
    basis = [oracles.group_ints(alg.basis_x(system, m))[0] for m in masks]
    pairs = [(a, b) for a in basis for b in basis]
    # the left factor is the sparser and the denser
    assert {np.count_nonzero(a) <= np.count_nonzero(b)
            for a, b in pairs} == {True, False}
    zero = np.zeros(system.order, dtype=np.int64)
    pairs += [(zero, basis[1]), (basis[1], zero),
              (basis[1].astype(object) * 10**20, basis[-1] - basis[0])]
    for na, nb in pairs:
        got, want = oracles.convolve(system, na, nb), loop_convolve(
            system, na, nb)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert sizes


def direct_convolution(system, na, nb):
    out = [0] * system.order
    for u in np.flatnonzero(na):
        for v in np.flatnonzero(nb):
            out[system.mul(int(u), int(v))] += int(na[u]) * int(nb[v])
    return out


@pytest.mark.parametrize("label,dense", [("A3", 24), ("H4", 30)])
def test_convolve_matches_direct_double_sum(system_factory, label, dense):
    # A3 walks all its rows in one block, H4 18 rows a block
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
            got = oracles.convolve(system, na, nb)
            assert got.tolist() == direct_convolution(system, na, nb)
