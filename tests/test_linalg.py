"""Exact rational linear algebra, and the polynomial helpers of the
test oracles.

Cross-checked against sympy on random instances; sympy is far too slow for
the main computations but fine as a second opinion here. The integer
elimination, its dependency tracker ``AugSpan`` and the minimal
polynomials built on it are also checked against row-at-a-time Fraction
eliminations kept here as the reference.
"""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from descent import algebra as alg
from descent import linalg
from descent import verify

import oracles


class FractionSpan:
    """Reference row space: reduced echelon rows of Fractions, one vector
    eliminated at a time."""

    def __init__(self, width, rows=()):
        self.width = width
        self.rows = []
        self.pivots = []
        for row in rows:
            self.add(row)

    def _residual(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(p, self.width):
                    v[j] -= c * row[j]
        return v

    def add(self, vec):
        v = self._residual(vec)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [x * inv for x in v]
        for row in self.rows:
            c = row[p]
            if c:
                for j in range(p, self.width):
                    row[j] -= c * v[j]
        at = next((i for i, q in enumerate(self.pivots) if q > p),
                  len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def contains(self, vec):
        return not any(self._residual(vec))

    def basis(self):
        return [tuple(row) for row in self.rows]

    def nullspace(self):
        out = []
        for free in range(self.width):
            if free in self.pivots:
                continue
            v = [Fraction(0)] * self.width
            v[free] = Fraction(1)
            for row, p in zip(self.rows, self.pivots):
                v[p] = -row[free]
            out.append(tuple(v))
        return out


class FractionAugSpan:
    """Reference dependency tracker: reduced echelon rows of Fractions, each
    with the combination of added vectors that built it, one vector
    eliminated at a time. Every add takes the next index, a dependent
    vector's too."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []
        self.exprs = []
        self.count = 0

    def _residual(self, vec):
        v = [Fraction(x) for x in vec]
        if len(v) != self.width:
            raise ValueError("vector width %d, expected %d"
                             % (len(v), self.width))
        expr = {}
        for row, p, e in zip(self.rows, self.pivots, self.exprs):
            c = v[p]
            if c:
                for j in range(p, self.width):
                    v[j] -= c * row[j]
                for k, val in e.items():
                    expr[k] = expr.get(k, Fraction(0)) - c * val
        return v, expr

    def express(self, vec):
        """Write ``vec`` over the added vectors, or return None if outside."""
        v, expr = self._residual(vec)
        if any(x for x in v):
            return None
        return {k: -val for k, val in expr.items() if val}

    def add(self, vec):
        v, expr = self._residual(vec)
        idx = self.count
        self.count += 1
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            return False
        expr[idx] = Fraction(1)
        inv = 1 / v[p]
        for j in range(p, self.width):
            v[j] *= inv
        expr = {k: val * inv for k, val in expr.items() if val}
        for row, e in zip(self.rows, self.exprs):
            c = row[p]
            if c:
                for j in range(p, self.width):
                    row[j] -= c * v[j]
                for k, val in expr.items():
                    e[k] = e.get(k, Fraction(0)) - c * val
        at = next((i for i, q in enumerate(self.pivots) if q > p),
                  len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        self.exprs.insert(at, expr)
        return True

    @property
    def dim(self):
        return len(self.rows)


def random_matrix(rng, nrows, width, density=0.7):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
         if rng.random() < density else Fraction(0)
         for _ in range(width)]
        for _ in range(nrows)]


class TestSpan:
    def test_incremental_rank(self):
        span = linalg.Span(3)
        assert span.dim == 0
        assert span.add([[1, 0, 0]]) == 1
        assert span.add([[1, 1, 0]]) == 1
        assert span.add([[2, 1, 0]]) == 0
        assert span.add([[0, 1, 0], [3, 3, 0]]) == 0
        assert span.add([[0, 0, 1], [0, 0, 2]]) == 1
        assert span.dim == 3
        span = linalg.Span(3, [[1, 0, 0], [1, 1, 0]])
        assert span.dim == 2
        assert span.contains([5, -3, 0])
        assert not span.contains([0, 0, 1])

    def test_equality_is_basis_free(self):
        a = linalg.Span(3, [[1, 1, 0], [0, 1, 1]])
        b = linalg.Span(3, [[1, 0, -1], [0, 2, 2]])
        assert a.equals(b)
        assert oracles.span_canonical(a) == oracles.span_canonical(b)
        c = linalg.Span(3, [[1, 0, 0]])
        assert not a.equals(c)

    def test_sum_and_intersection_dims(self):
        rng = random.Random(3)
        for _ in range(25):
            rows_a = random_matrix(rng, rng.randint(0, 4), 5)
            rows_b = random_matrix(rng, rng.randint(0, 4), 5)
            a = linalg.Span(5, rows_a)
            b = linalg.Span(5, rows_b)
            total = oracles.span_sum(a, b)
            both = rows_a + rows_b
            assert total.dim == (sympy.Matrix(both).rank() if both else 0)
            # dim(A cap B) = dim A + dim B - dim(A + B) lies in range
            assert 0 <= a.dim + b.dim - total.dim <= min(a.dim, b.dim)
            for row in rows_a + rows_b:
                assert total.contains(row)

    def test_numpy_integers_beside_fractions_do_not_wrap(self):
        row = [np.int64(2**62), Fraction(1, 3)]
        assert linalg.integer_rows([row], 2).tolist() == [[3 * 2**62, 1]]
        span = linalg.Span(2, [row])
        assert span.rows.tolist() == [[3 * 2**62, 1]]
        assert span.contains([2**62, Fraction(1, 3)])
        assert not span.contains([-2**62, Fraction(1, 3)])

    def test_rank_against_sympy(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = random_matrix(rng, rng.randint(1, 5), 4)
            span = linalg.Span(4, rows)
            assert span.dim == sympy.Matrix(rows).rank()


def first_dependency(rows, width):
    """The row-at-a-time reading of ``AugSpan.dependencies`` for one
    member: rows go into a FractionAugSpan until one is dependent, which
    is then written over the earlier ones."""
    oracle = FractionAugSpan(width)
    for m, row in enumerate(rows):
        if not oracle.add(row):
            return m, oracle.express(row)
    return None


def int_rows(*members):
    """Each member's rows as an int64 array, the form AugSpan takes."""
    return [np.array(rows, dtype=np.int64) for rows in members]


class TestAugSpan:
    def test_express_recovers_coordinates(self):
        aug = linalg.AugSpan(3)
        aug.add(int_rows([[1, 2, 0], [0, 1, 1]], [[1, 2, 0], [0, 1, 1]]))
        aug.add(int_rows([[2, 5, 1]], [[0, 0, 5]]))
        assert aug.count == 3
        (m, combo), outside = aug.dependencies()
        assert m == 2 and outside is None
        basis = [[1, 2, 0], [0, 1, 1]]
        assert [sum(c * basis[i][k] for i, c in combo.items())
                for k in range(3)] == [2, 5, 1]

    def test_express_solves_square_system_and_rejects_outside(self):
        rows = [[1, 2], [3, 4]]
        aug = linalg.AugSpan(2)
        aug.add(int_rows(rows + [[5, 6]]))
        ((m, combo),) = aug.dependencies()
        assert m == 2
        assert [sum(combo.get(i, 0) * row[k] for i, row in enumerate(rows))
                for k in range(2)] == [5, 6]
        # a dependent vector takes an index too; the first dependency is
        # read, a later one and an independent one are not
        aug = linalg.AugSpan(2)
        aug.add(int_rows([[1, 1], [2, 2], [0, 1]], [[1, 1], [0, 1], [3, 3]],
                         [[0, 0], [1, 1], [0, 1]], [[1, 1], [0, 1], [0, 0]]))
        assert aug.dependencies() == [(1, {0: 2}), (2, {0: 3}), (0, {}),
                                      (2, {})]
        aug = linalg.AugSpan(2)
        aug.add(int_rows([[1, 1], [0, 1]]))
        assert aug.dependencies() == [None]

    def test_add_refuses_rows_that_are_not_integer_arrays(self):
        # scaling [1/2, 1] to [1, 2] would double its coefficient
        aug = linalg.AugSpan(2)
        for rows in (np.array([[Fraction(1, 2), 1], [1, 2]], dtype=object),
                     [[1, 2], [2, 4]], np.array([[0.5, 1.0]])):
            with pytest.raises(ValueError, match="integer rows"):
                aug.add([rows])
        assert aug.count == 0
        aug.add([np.array([[1, 2], [2**70, 2**71]], dtype=object)])
        assert aug.dependencies() == [(1, {0: 2**70})]


class TestElimination:
    def test_nullspace_against_sympy(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = random_matrix(rng, rng.randint(1, 4), 5)
            ours = linalg.nullspace(np.array(rows, dtype=object))
            theirs = sympy.Matrix(rows).nullspace()
            assert len(ours) == len(theirs)
            for vec in ours:
                assert all(
                    sum(row[k] * vec[k] for k in range(5)) == 0
                    for row in rows)

    def test_rank_nullity(self):
        rng = random.Random(19)
        for _ in range(20):
            rows = random_matrix(rng, rng.randint(1, 5), 6)
            assert (linalg.Span(6, rows).dim
                    + len(linalg.nullspace(np.array(rows, dtype=object)))
                    == 6)

    def test_rref_idempotent(self):
        rows = [[2, 4, 6], [1, 2, 4]]
        once = oracles.span_basis(linalg.Span(3, rows))
        twice = oracles.span_basis(linalg.Span(3, once))
        assert once == twice


# entries on both sides of the int64 range, so both the int64 steps and
# the Python-integer fallback run
_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


@st.composite
def int_matrices(draw):
    width = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=width, max_size=width),
                         min_size=nrows, max_size=nrows))
    # a few dependent rows: integer combinations of earlier ones
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.integers(-5, 5))
        rows.append([x + c * y for x, y in zip(a, b)])
    return rows, width


class TestAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    def test_rank_row_space_and_nullspace(self, case):
        rows, width = case
        oracle = FractionSpan(width, rows)
        assert linalg.Span(width, rows).dim == len(oracle.rows)
        assert oracles.span_basis(linalg.Span(width, rows)) == oracle.basis()
        matrix = np.array(rows, dtype=object).reshape(-1, width)
        assert linalg.nullspace(matrix) == oracle.nullspace()
        span = linalg.Span(width, rows)
        for vec in oracle.nullspace():
            assert all(sum(x * v for x, v in zip(row, vec)) == 0
                       for row in rows)
        probe = [sum(x) for x in zip(*rows)] if rows else [0] * width
        assert span.contains(probe)

    @settings(max_examples=100, deadline=None)
    @given(int_matrices(), st.lists(_ENTRY, min_size=6, max_size=6))
    # a zero probe against a basis beyond int64
    @example(([[2**63, 1]], 2), [0] * 6)
    @example(([[1, 2**63]], 2), [0] * 6)
    def test_incremental_add_and_contains(self, case, extra):
        rows, width = case
        vec = extra[:width]
        span = linalg.Span(width)
        oracle = FractionSpan(width)
        for row in rows:
            assert span.add([row]) == oracle.add(row)
        assert span.contains(vec) == oracle.contains(vec)
        assert oracles.span_canonical(span) == tuple(oracle.basis())

    @settings(max_examples=150, deadline=None)
    @given(int_matrices(), st.lists(st.integers(0, 4), max_size=4))
    @example(([[1, 2, 3], [0, 1, 1], [2, 5, 7]], 3), [1, 1])
    @example(([[2**63, 1, 0], [0, 1, 2**63]], 3), [1])
    def test_add_equals_elimination_of_the_stacked_rows(self, case, cuts):
        # add consecutive blocks, int64 when every entry fits
        rows, width = case
        span = linalg.Span(width)
        start = 0
        for size in cuts + [len(rows)]:
            block = rows[start:start + size]
            start += len(block)
            if all(abs(x) < 2**62 for row in block for x in row):
                block = np.array(block, dtype=np.int64).reshape(-1, width)
            before = span.dim
            grew = span.add(block)
            stacked = np.array(rows[:start], dtype=object).reshape(-1, width)
            want, pivots = linalg.eliminate(stacked)
            assert span.pivots == pivots
            assert span.rows.tolist() == want.tolist()
            assert grew == span.dim - before

    def test_int64_and_object_inputs_agree(self):
        rng = random.Random(29)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(6)]
            small = linalg.Span(5, np.array(rows, dtype=np.int64))
            big = linalg.Span(5, [[x * 2**64 for x in row] for row in rows])
            assert small.equals(big)


@st.composite
def stacks(draw):
    """0-6 integer matrices of one width 1-9 and heights 0-7 (zero rows
    included), with entries on both sides of the int64 range."""
    width = draw(st.integers(1, 9))
    vectors = st.lists(_ENTRY, min_size=width, max_size=width)
    mats = []
    for _ in range(draw(st.integers(0, 6))):
        rows = draw(st.lists(vectors, max_size=7))
        for _ in range(draw(st.integers(0, 2)) if rows else 0):
            rows.insert(draw(st.integers(0, len(rows))), [0] * width)
        mats.append(rows)
    return mats, width


class TestEliminationOfEachMatrix:
    @settings(max_examples=150, deadline=None)
    @given(stacks())
    @example(([[[2**70, 1], [1, 1]], [[1, 2], [2, 4]], [], [[0, 0]]], 2))
    # int64 entries whose first cross-multiplication leaves int64
    @example(([[[3037000500, 1], [1, 3037000500]]], 2))
    # leaves int64 on the way, and its reduced rows fit again
    @example(([[[2**40, 1, 5 * 2**40 + 7], [1, 2**40, 7 * 2**40 + 5]]], 3))
    def test_matches_the_oracle_and_leaves_its_input(self, case):
        mats, width = case
        for rows in mats:
            # int64 when every entry fits, Python integers otherwise
            arr = linalg.integer_rows(rows, width)
            copy = arr.copy()
            echelon, pivots = linalg.eliminate(arr)
            assert np.array_equal(arr, copy) and arr.dtype == copy.dtype
            oracle = FractionSpan(width, rows)
            assert pivots == oracle.pivots
            assert [tuple(Fraction(int(v), int(row[p])) for v in row)
                    for row, p in zip(echelon, pivots)] == oracle.basis()
            for row, p in zip(echelon.tolist(), pivots):
                assert row[p] > 0 and gcd(*row) == 1
            assert (echelon.dtype == np.int64) == (
                linalg.absmax(echelon) < 2**62)


@st.composite
def aug_cases(draw):
    """Integer rows with dependent ones in the middle, and probes: an
    integer combination of the rows, a free vector and zero."""
    width = draw(st.integers(1, 6))
    vectors = st.lists(_ENTRY, min_size=width, max_size=width)
    rows = draw(st.lists(vectors, max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        at = draw(st.integers(1, len(rows)))
        a = draw(st.sampled_from(rows[:at]))
        b = draw(st.sampled_from(rows[:at]))
        c = draw(st.integers(-5, 5))
        rows.insert(at, [x + c * y for x, y in zip(a, b)])
    coef = draw(st.lists(st.integers(-9, 9), min_size=len(rows),
                         max_size=len(rows)))
    inside = [sum(c * row[k] for c, row in zip(coef, rows))
              for k in range(width)]
    return rows, [inside, draw(vectors), [0] * width], width


class TestAugSpanAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(aug_cases())
    @example(([[2**63, 1], [2**64, 2], [0, 3]], [[2**63, 4], [0, 1], [0, 0]],
              2))
    def test_add_indices_and_express(self, case):
        # one member per probe: the rows, then the probe
        rows, probes, width = case
        members = [rows + [vec] for vec in probes]
        want = [first_dependency(seq, width) for seq in members]
        aug = linalg.AugSpan(width)
        aug.add([np.array(seq, dtype=object) for seq in members])
        assert aug.count == len(rows) + 1
        assert aug.dependencies() == want
        # the same vectors as integer arrays, added in two steps
        arrays = linalg.AugSpan(width)
        cut = len(rows) // 2
        arrays.add([linalg.integer_rows(seq[:cut], width) for seq in members])
        arrays.add([linalg.integer_rows(seq[cut:], width) for seq in members])
        assert arrays.dependencies() == want
        for seq, dep in zip(members, want):
            if dep is not None:
                m, combo = dep
                assert [sum(c * seq[i][k] for i, c in combo.items())
                        for k in range(width)] == seq[m]
        # the probe inside the span of the rows is always expressed
        assert want[0] is not None


def fraction_krylov_minimal_polynomial(a):
    """Minimal polynomial the row-at-a-time way: the Fraction
    x-coordinates of 1, a, a^2, ... go into a FractionAugSpan until one
    is dependent."""
    system = a.system
    span = FractionAugSpan(1 << system.rank)
    power = alg.unit(system)
    span.add(power.x_coords())
    while True:
        power = alg.multiply(a, power)
        expr = span.express(power.x_coords())
        if expr is not None:
            coeffs = [Fraction(0)] * span.count + [Fraction(1)]
            for k, c in expr.items():
                coeffs[k] -= c
            return tuple(coeffs)
        span.add(power.x_coords())


def positivity_elements(system, count):
    """The first ``count`` seeded elements of the positivity suite."""
    rng = random.Random("positivity:0:%s" % system.type_label)
    return [verify._random_positive(system, rng) for _ in range(count)]


def assert_krylov_minimal_polynomials(vectors):
    for a, got in zip(vectors, alg.minimal_polynomial(vectors), strict=True):
        assert got == fraction_krylov_minimal_polynomial(a), str(a)


def assert_suite_minimal_polynomials(vectors):
    """The positivity suite's elements against the Krylov oracle, then
    their squares: each element is semisimple, so its square's roots are
    the squares of its character values, once each."""
    count = len(vectors) // 2
    polys = alg.minimal_polynomial(vectors)
    assert_krylov_minimal_polynomials(vectors[:count])
    for a, square in zip(vectors, polys[count:]):
        assert square == oracles.poly_from_roots(
            {v * v for v in oracles.tau_values(a)}), str(a)


POSITIVITY_ROSTER = ["A3", "B3", "H3", "I2(5)", "B4", "D4", "F4", "H4"]


class TestMinimalPolynomialAgainstFractionKrylov:
    # each test reads the minimal polynomials of a whole stack at once
    @pytest.mark.parametrize("label,count", [
        ("A3", 100), ("B3", 100), ("H3", 100), ("I2(5)", 100), ("B4", 100),
        ("D4", 100), ("F4", 100), ("H4", 100)])
    def test_positivity_suite_elements(self, system_factory, label, count):
        # the suite's elements, then their squares
        vectors = oracles.positivity_vectors(system_factory(label), 0)
        assert len(vectors) == 2 * count
        assert_suite_minimal_polynomials(vectors)

    @pytest.mark.parametrize("label", POSITIVITY_ROSTER)
    def test_positivity_suite_elements_at_seed_seven(self, system_factory,
                                                      label):
        assert_suite_minimal_polynomials(
            oracles.positivity_vectors(system_factory(label), 7))

    def test_non_semisimple_elements_take_the_krylov_fallback(
            self, system_factory):
        # x_J - x_c and the unit plus it, with polynomials x^2 and
        # (x - 1)^2: their chains do not vanish
        system = system_factory("A3")
        nilpotent = oracles.radical_vectors(system)[0]
        stack = [nilpotent, alg.unit(system) + nilpotent]
        values = alg.character_values(stack)[0]
        assert not alg._semisimple(alg.left_multiplication(stack),
                                   values).any()
        assert alg.minimal_polynomial(stack) == [
            (0, 0, 1), (1, -2, 1)]
        assert_krylov_minimal_polynomials(stack)

    @pytest.mark.parametrize("label", ["A3", "B4"])
    def test_short_chains_are_padded_with_the_identity(self, system_factory,
                                                       label):
        # a nilpotent has one value, a positive element many: padding the
        # nilpotent's chain with its repeated root 0 would make it vanish
        system = system_factory(label)
        nilpotent = oracles.radical_vectors(system)[0]
        stack = [nilpotent, positivity_elements(system, 1)[0]]
        values = alg.character_values(stack)[0]
        assert len(set(values[0].tolist())) == 1
        assert len(set(values[1].tolist())) > 2
        assert alg._semisimple(alg.left_multiplication(stack),
                               values).tolist() == [False, True]
        assert alg.minimal_polynomial(stack)[0] == (0, 0, 1)
        assert_krylov_minimal_polynomials(stack)

    @pytest.mark.parametrize("label", ["B3", "D4"])
    def test_shifted_scaled_and_fractional_elements(self, system_factory,
                                                    label):
        # one stack of mixed denominators, with int64 and Python-integer
        # powers side by side: 2**40 a leaves int64 in the first power
        system = system_factory(label)
        one = alg.unit(system)
        stack = [alg.DescentVector.zero(system), one,
                 oracles.radical_vectors(system)[0]]
        for a in positivity_elements(system, 4):
            stack += [a - 3 * one, 2**40 * a, a * Fraction(1, 7),
                      a.in_basis(alg.BASIS_XPRIME)]
        got = alg.minimal_polynomial(stack)
        assert got[:2] == [(Fraction(0), Fraction(1)),
                           (Fraction(-1), Fraction(1))]
        for b, poly in zip(stack, got):
            assert poly == fraction_krylov_minimal_polynomial(b), str(b)


    def test_power_vanishing_after_leaving_int64(self, system_factory):
        # p_2 leaves int64, p_3 = 0 and p_4 is back in int64: the stack
        # must stay on Python integers
        system = system_factory("A3")
        a = 2**40 * (alg.basis_x(system, 0b110) - alg.basis_x(system, 0b011))
        assert alg.multiply(a, alg.multiply(a, a)).is_zero()
        assert alg.minimal_polynomial([a]) == [
            fraction_krylov_minimal_polynomial(a)]


class TestPolynomials:
    def test_divmod_and_gcd_against_sympy(self):
        rng = random.Random(23)
        x = sympy.symbols("x")
        for _ in range(15):
            p = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
            q = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
            if oracles.poly_degree(q) < 0:
                q = [Fraction(1)]
            quo, rem = oracles.poly_divmod(p, q)
            back = [a + b for a, b in
                    zip(list(oracles.poly_mul(quo, q)) + [Fraction(0)] * 10,
                        list(rem) + [Fraction(0)] * 10)]
            assert oracles.poly_trim(back) == oracles.poly_trim(p)
            sp = sympy.Poly(list(reversed([sympy.Rational(c) for c in p])), x)
            sq = sympy.Poly(list(reversed([sympy.Rational(c) for c in q])), x)
            if sp.degree() >= 0 and sq.degree() >= 0:
                sgcd = sympy.gcd(sp, sq)
                ours = oracles.poly_gcd(p, q)
                assert oracles.poly_degree(ours) == sgcd.degree()

    def test_squarefree_detection(self):
        # (T-1)(T-2) is squarefree, (T-1)^2 is not
        assert oracles.poly_is_squarefree(oracles.poly_from_roots([1, 2]))
        assert not oracles.poly_is_squarefree(oracles.poly_from_roots([1, 1]))
        assert not oracles.poly_is_squarefree([0, 0, 1])  # T^2
        assert oracles.poly_is_squarefree([0, 1])         # T

    def test_from_roots(self):
        p = oracles.poly_from_roots([Fraction(1), Fraction(-2)])
        # (T-1)(T+2) = T^2 + T - 2
        assert list(p) == [Fraction(-2), Fraction(1), Fraction(1)]


_MATMUL_ENTRY = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70))


@st.composite
def matmul_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 4)), draw(st.integers(1, 4)),
                         draw(st.integers(1, 4)))
    a = draw(st.lists(st.lists(_MATMUL_ENTRY, min_size=inner,
                               max_size=inner), min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(_MATMUL_ENTRY, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return a, b, inner, cols


@settings(max_examples=150, deadline=None)
@given(matmul_pairs())
@example(([[2**31] * 4], [[2**31]] * 4, 4, 1))
@example(([[-2**62]], [[1]], 1, 1))
def test_matmul_matches_python_int_products(case):
    a, b, inner, cols = case
    want = [[sum(row[t] * b[t][j] for t in range(inner))
             for j in range(cols)] for row in a]
    got = linalg.matmul(linalg.integer_rows(a, inner),
                        linalg.integer_rows(b, cols))
    assert got.shape == (len(a), cols)
    assert got.tolist() == want
