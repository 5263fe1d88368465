"""Exact linear algebra over the rationals.

Ranks, row spaces, kernels and linear dependencies (``AugSpan``) come
from one fraction-free elimination on integer rows: a rational row is
first scaled by the lcm of its denominators, and elimination only ever
cross-multiplies two rows and divides a row by the gcd of its entries.
Nothing is rounded and no ``Fraction`` is formed until a caller asks for
reduced rows or coefficients. Entries stay in int64 while a bound proves
the next step cannot overflow and move to Python integers otherwise.
Polynomials, short and rare, stay on ``fractions.Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

# an int64 result is exact while every term stays below this
INT64_SAFE = 1 << 62


def as_fractions(vec: Sequence) -> list[Fraction]:
    """Copy a sequence of numbers into a list of Fractions. A numpy
    integer becomes a Python int first: a Fraction would keep its
    fixed-width parts, and arithmetic on them wraps."""
    return [x if isinstance(x, Fraction)
            else Fraction(int(x) if isinstance(x, np.integer) else x)
            for x in vec]


def scaled_integers(vec: Sequence) -> tuple[list[int], int]:
    """The numbers as Python-int numerators over one common denominator,
    the lcm of theirs: ``vec == [n / den for n in nums]``."""
    vals = list(vec)
    if all(isinstance(v, (int, np.integer)) for v in vals):
        return [int(v) for v in vals], 1
    fr = as_fractions(vals)
    den = lcm(*(v.denominator for v in fr))
    return [v.numerator * (den // v.denominator) for v in fr], den


def absmax(arr) -> int:
    """Largest absolute entry of an integer array, as a Python int."""
    return int(np.abs(arr).max()) if arr.size else 0


def exact_dtype(bound):
    """int64 when every value is provably below ``bound``, else object."""
    return np.int64 if bound < INT64_SAFE else object


def matmul(A, B) -> np.ndarray:
    """Exact product of two integer matrices: in int64 when a bound on
    every entry proves it exact, on Python integers otherwise."""
    dtype = exact_dtype((absmax(A) + 1) * (absmax(B) + 1)
                        * max(A.shape[-1], 1))
    return A.astype(dtype, copy=False) @ B.astype(dtype, copy=False)


def integer_rows(rows, width: int) -> np.ndarray:
    """The rows as a 2-D integer array, each scaled by the lcm of its
    denominators, so every row spans the same line as the input row."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "i":
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError("rows of width %d expected" % width)
        return rows.astype(np.int64, copy=False)
    out = []
    for row in rows:
        vals = scaled_integers(row)[0]
        if len(vals) != width:
            raise ValueError("vector width %d, expected %d"
                             % (len(vals), width))
        out.append(vals)
    if not out:
        return np.zeros((0, width), dtype=np.int64)
    big = max(max(abs(v) for v in row) for row in out)
    return np.array(out, dtype=exact_dtype(big))


def _primitive(block):
    """Divide each row by the gcd of its entries (zero rows stay zero)."""
    g = np.gcd.reduce(block, axis=1)
    g[g == 0] = 1
    return block // g[:, None]


def eliminate(matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon basis of the row space of an integer matrix.

    Fraction-free Gauss-Jordan: a pivot row ``p`` clears its column from
    every other row ``r`` by ``r * p[c] - r[c] * p``, and each changed row
    is divided by the gcd of its entries. (Bareiss's exact division by the
    previous pivot keeps entries as minors of the input; on radical power
    spans those reach hundreds of digits, while primitive rows stay a few
    digits wide.) The result is canonical: each row primitive with a
    positive pivot, ordered by pivot column, every pivot column zero
    outside its row. Returns ``(rows, pivots)``; the rank is
    ``len(pivots)``.
    """
    M = matrix[np.any(matrix != 0, axis=1)]
    top = absmax(M)
    pivots: list[int] = []
    r = 0
    while r < M.shape[0]:
        live = np.flatnonzero(np.any(M[r:] != 0, axis=0))
        if not live.size:
            break
        c = int(live[0])
        col = M[r:, c]
        nz = np.flatnonzero(col)
        # the smallest pivot keeps the cross-multiplied rows small
        i = r + int(nz[np.argmin(np.abs(col[nz]))])
        if i != r:
            M[[r, i]] = M[[i, r]]
        prow = M[r].copy()
        others = np.flatnonzero(M[:, c])
        others = others[others != r]
        if others.size:
            if M.dtype != object and 2 * top * top >= INT64_SAFE:
                M = M.astype(object)
                prow = prow.astype(object)
            block = _primitive(M[others] * prow[c]
                               - M[others, c][:, None] * prow[None, :])
            M[others] = block
            top = max(top, absmax(block))
            below = others[others > r]
            gone = below[~np.any(block[others > r] != 0, axis=1)]
            if gone.size:
                M = np.delete(M, gone, axis=0)
        pivots.append(c)
        r += 1
    rows = _primitive(M[:r])
    if r:
        rows *= np.sign(rows[np.arange(r), pivots])[:, None]
    return rows, pivots


class Span:
    """A subspace kept as its canonical integer echelon basis.

    ``rows`` is the output of :func:`eliminate`: primitive integer rows with
    positive pivots at ``pivots``, each pivot column zero elsewhere. Equal
    subspaces have equal ``rows``, so comparisons need no elimination.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width: int, rows: Iterable[Sequence] | None = None):
        self.width = width
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []
        if rows is not None:
            self.extend(rows)

    def _residuals(self, vecs: np.ndarray) -> np.ndarray:
        """Scaled remainders of integer rows after projecting out the span:
        a row lies in the span exactly when its remainder is zero."""
        if not self.pivots:
            return vecs
        d = self.rows[np.arange(self.dim), self.pivots]
        den = lcm(*(int(v) for v in d))
        scale = np.array([den // int(v) for v in d], dtype=object)
        coef = vecs[:, self.pivots]
        bound = (absmax(vecs) + 1) * den * (1 + self.dim * absmax(self.rows))
        dtype = exact_dtype(bound)
        coef = coef.astype(object) * scale
        return (vecs.astype(dtype) * den
                - coef.astype(dtype) @ self.rows.astype(dtype))

    def extend(self, vecs: Iterable[Sequence]) -> int:
        """Insert vectors; return how much the dimension grew."""
        new = integer_rows(vecs, self.width)
        new = new[np.any(self._residuals(new) != 0, axis=1)]
        if not new.size:
            return 0
        before = self.dim
        dtype = object if object in (new.dtype, self.rows.dtype) else np.int64
        self.rows, self.pivots = eliminate(
            np.vstack([self.rows.astype(dtype), new.astype(dtype)]))
        return self.dim - before

    def add(self, vec: Sequence) -> bool:
        """Insert a vector; report whether the dimension grew."""
        return self.extend([vec]) > 0

    def contains(self, vec: Sequence) -> bool:
        res = self._residuals(integer_rows([vec], self.width))
        return not np.any(res != 0)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def basis(self) -> list[tuple[Fraction, ...]]:
        """The reduced row echelon basis, pivots normalized to 1."""
        return [tuple(Fraction(int(v), int(row[p])) for v in row)
                for row, p in zip(self.rows, self.pivots)]

    def canonical(self) -> tuple[tuple[Fraction, ...], ...]:
        """Canonical form of the row space; equal iff the spaces are equal."""
        return tuple(self.basis())

    def kernel(self) -> np.ndarray:
        """Integer basis of the right kernel, one primitive row per free
        column, with a positive entry at that column."""
        pivots = set(self.pivots)
        free = [j for j in range(self.width) if j not in pivots]
        d = [int(self.rows[i, p]) for i, p in enumerate(self.pivots)]
        den = lcm(*d)
        out = np.zeros((len(free), self.width), dtype=object)
        for k, f in enumerate(free):
            out[k, f] = den
            for i, p in enumerate(self.pivots):
                out[k, p] = -int(self.rows[i, f]) * (den // d[i])
        out = _primitive(out)
        return out.astype(exact_dtype(absmax(out)))

    def copy(self) -> "Span":
        out = Span(self.width)
        out.rows = self.rows.copy()
        out.pivots = self.pivots[:]
        return out

    def sum(self, other: "Span") -> "Span":
        if other.width != self.width:
            raise ValueError("width mismatch")
        out = self.copy()
        out.extend(other.rows)
        return out

    def intersection_dim(self, other: "Span") -> int:
        return self.dim + other.dim - self.sum(other).dim

    def equals(self, other: "Span") -> bool:
        return (self.width == other.width and self.pivots == other.pivots
                and np.array_equal(self.rows, other.rows))


class AugSpan:
    """A span that remembers which added vectors grew it, so that a vector
    inside it can be written over them.

    Every call to :meth:`add` takes the next index, a dependent vector's
    too. The vectors that grew the :class:`Span` are kept as integer rows,
    each with its index and the factor ``integer_rows`` scaled it by;
    :meth:`express` reads its combination off the one-row kernel of those
    rows stacked with the target, by the same elimination.
    """

    __slots__ = ("span", "grown", "count")

    def __init__(self, width: int):
        self.span = Span(width)
        self.grown: list[tuple[int, np.ndarray, Fraction]] = []
        self.count = 0

    def _scaled(self, vec: Sequence) -> tuple[np.ndarray, Fraction]:
        """``vec`` as the integer row ``s * vec``, and the factor ``s``."""
        nums, den = scaled_integers(vec)
        return integer_rows([nums], self.span.width)[0], Fraction(den)

    def add(self, vec: Sequence) -> bool:
        """Insert a vector under the next index; report whether the
        dimension grew."""
        row, scale = self._scaled(vec)
        idx = self.count
        self.count += 1
        if not self.span.extend(row[None]):
            return False
        self.grown.append((idx, row, scale))
        return True

    def express(self, vec: Sequence) -> dict[int, Fraction] | None:
        """Write ``vec`` over the added vectors, as {index: coefficient}
        with zero coefficients left out, or return None if outside."""
        row, scale = self._scaled(vec)
        if not self.span.contains(row):
            return None
        # the added rows are independent, so the kernel is one row with a
        # positive entry k at the target: target = -sum k_i s_i v_i / (k s)
        stacked = np.vstack([r for _, r, _ in self.grown] + [row])
        kern = Span(len(self.grown) + 1, stacked.T).kernel()[0]
        den = -int(kern[-1]) * scale
        return {idx: Fraction(int(c)) * s / den
                for (idx, _, s), c in zip(self.grown, kern) if c}

    @property
    def dim(self) -> int:
        return self.span.dim


def rref(rows: Iterable[Sequence], width: int) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon form with zero rows dropped."""
    return Span(width, rows).basis()


def rank(rows: Iterable[Sequence], width: int) -> int:
    return Span(width, rows).dim


def nullspace(rows: Iterable[Sequence], width: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel: all v with row . v = 0 for every row.

    Vector k has a 1 at the k-th non-pivot column and zeros at the other
    non-pivot columns.
    """
    span = Span(width, rows)
    pivots = set(span.pivots)
    free = [j for j in range(width) if j not in pivots]
    return [tuple(Fraction(int(v), int(vec[f])) for v in vec)
            for f, vec in zip(free, span.kernel())]


# ---------------------------------------------------------------------------
# polynomials over Q, coefficient lists with index = degree


def poly_trim(coeffs: Sequence) -> tuple[Fraction, ...]:
    c = as_fractions(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p: Sequence) -> int:
    q = poly_trim(p)
    return len(q) - 1 if q else -1


def poly_monic(p: Sequence) -> tuple[Fraction, ...]:
    q = list(poly_trim(p))
    if not q:
        return ()
    lead = q[-1]
    return tuple(x / lead for x in q)


def poly_mul(p: Sequence, q: Sequence) -> tuple[Fraction, ...]:
    a, b = poly_trim(p), poly_trim(q)
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(p: Sequence, q: Sequence):
    a = list(poly_trim(p))
    b = poly_trim(q)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        quot[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_gcd(p: Sequence, q: Sequence) -> tuple[Fraction, ...]:
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_derivative(p: Sequence) -> tuple[Fraction, ...]:
    q = poly_trim(p)
    return poly_trim([i * q[i] for i in range(1, len(q))])


def poly_is_squarefree(p: Sequence) -> bool:
    q = poly_trim(p)
    if poly_degree(q) <= 1:
        return True
    return poly_degree(poly_gcd(q, poly_derivative(q))) == 0


def poly_from_roots(roots: Iterable) -> tuple[Fraction, ...]:
    """Monic polynomial with the given roots, one factor per root."""
    out: tuple[Fraction, ...] = (ONE,)
    for r in roots:
        out = poly_mul(out, (-Fraction(r), ONE))
    return out
