"""Exact rational linear algebra and polynomial helpers.

Cross-checked against sympy on random instances; sympy is far too slow for
the main computations but fine as a second opinion here. The integer
elimination is also checked against a row-at-a-time Fraction elimination
kept here as the reference.
"""

import random
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import example, given, settings, strategies as st

from descent import linalg


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
        assert span.add([1, 0, 0])
        assert span.add([1, 1, 0])
        assert not span.add([2, 1, 0])
        assert span.dim == 2
        assert span.contains([5, -3, 0])
        assert not span.contains([0, 0, 1])

    def test_equality_is_basis_free(self):
        a = linalg.Span(3, [[1, 1, 0], [0, 1, 1]])
        b = linalg.Span(3, [[1, 0, -1], [0, 2, 2]])
        assert a.equals(b)
        assert a.canonical() == b.canonical()
        c = linalg.Span(3, [[1, 0, 0]])
        assert not a.equals(c)

    def test_sum_and_intersection_dims(self):
        rng = random.Random(3)
        for _ in range(25):
            rows_a = random_matrix(rng, rng.randint(0, 4), 5)
            rows_b = random_matrix(rng, rng.randint(0, 4), 5)
            a = linalg.Span(5, rows_a)
            b = linalg.Span(5, rows_b)
            total = a.sum(b)
            meet = a.intersection_dim(b)
            assert total.dim + meet == a.dim + b.dim
            for row in rows_a + rows_b:
                assert total.contains(row)

    def test_rank_against_sympy(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = random_matrix(rng, rng.randint(1, 5), 4)
            span = linalg.Span(4, rows)
            assert span.dim == sympy.Matrix(rows).rank()


class TestAugSpan:
    def test_express_recovers_coordinates(self):
        aug = linalg.AugSpan(3)
        aug.add([1, 2, 0])
        aug.add([0, 1, 1])
        combo = aug.express([2, 5, 1])
        assert combo is not None
        total = [Fraction(0)] * 3
        basis = [[1, 2, 0], [0, 1, 1]]
        for idx, coeff in combo.items():
            for k in range(3):
                total[k] += coeff * basis[idx][k]
        assert total == [2, 5, 1]
        assert aug.express([0, 0, 5]) is None


class TestElimination:
    def test_nullspace_against_sympy(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = random_matrix(rng, rng.randint(1, 4), 5)
            ours = linalg.nullspace(rows, 5)
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
            assert (linalg.rank(rows, 6)
                    + len(linalg.nullspace(rows, 6)) == 6)

    def test_solve_expresses_target_in_rows(self):
        rows = [[1, 2], [3, 4]]
        sol = linalg.solve(rows, [5, 6], 2)
        assert sol is not None
        combo = [sum(c * row[k] for c, row in zip(sol, rows))
                 for k in range(2)]
        assert combo == [5, 6]
        # target outside the row span
        assert linalg.solve([[1, 1], [2, 2]], [0, 1], 2) is None

    def test_rref_idempotent(self):
        rows = [[2, 4, 6], [1, 2, 4]]
        once = linalg.rref(rows, 3)
        twice = linalg.rref(once, 3)
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
        assert linalg.rank(rows, width) == len(oracle.rows)
        assert linalg.rref(rows, width) == oracle.basis()
        assert linalg.nullspace(rows, width) == oracle.nullspace()
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
            assert span.add(row) == oracle.add(row)
        assert span.contains(vec) == oracle.contains(vec)
        assert span.canonical() == tuple(oracle.basis())

    def test_int64_and_object_inputs_agree(self):
        rng = random.Random(29)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(6)]
            small = linalg.Span(5, np.array(rows, dtype=np.int64))
            big = linalg.Span(5, [[x * 2**64 for x in row] for row in rows])
            assert small.equals(big)


class TestPolynomials:
    def test_divmod_and_gcd_against_sympy(self):
        rng = random.Random(23)
        x = sympy.symbols("x")
        for _ in range(15):
            p = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
            q = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
            if linalg.poly_degree(q) < 0:
                q = [Fraction(1)]
            quo, rem = linalg.poly_divmod(p, q)
            back = [a + b for a, b in
                    zip(list(linalg.poly_mul(quo, q)) + [Fraction(0)] * 10,
                        list(rem) + [Fraction(0)] * 10)]
            assert linalg.poly_trim(back) == linalg.poly_trim(p)
            sp = sympy.Poly(list(reversed([sympy.Rational(c) for c in p])), x)
            sq = sympy.Poly(list(reversed([sympy.Rational(c) for c in q])), x)
            if sp.degree() >= 0 and sq.degree() >= 0:
                sgcd = sympy.gcd(sp, sq)
                ours = linalg.poly_gcd(p, q)
                assert linalg.poly_degree(ours) == sgcd.degree()

    def test_squarefree_detection(self):
        # (T-1)(T-2) is squarefree, (T-1)^2 is not
        assert linalg.poly_is_squarefree(linalg.poly_from_roots([1, 2]))
        assert not linalg.poly_is_squarefree(linalg.poly_from_roots([1, 1]))
        assert not linalg.poly_is_squarefree([0, 0, 1])  # T^2
        assert linalg.poly_is_squarefree([0, 1])         # T

    def test_poly_eval_low_to_high_order(self):
        # coefficient tuples are little-endian: p = 1 + 2T + 3T^2
        p = [Fraction(1), Fraction(2), Fraction(3)]
        assert linalg.poly_eval(p, Fraction(2)) == 1 + 4 + 12

    def test_from_roots(self):
        p = linalg.poly_from_roots([Fraction(1), Fraction(-2)])
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
