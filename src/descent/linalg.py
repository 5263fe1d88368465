"""Exact linear algebra over the rationals.

Row spaces (``Span``), kernels and linear dependencies (``AugSpan``) come
from one fraction-free elimination on integer rows: a rational row of a
span or a kernel is first scaled by the lcm of its denominators, and
elimination only ever cross-multiplies two rows and divides a row by the
gcd of its entries. Nothing is rounded and no ``Fraction`` is formed
until a caller asks for reduced rows or coefficients. Entries stay in
int64 while a bound proves the next step cannot overflow and move to
Python integers otherwise.
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


def _integer_array(arr) -> bool:
    """Whether ``arr`` is an integer array, or an object array of Python
    integers."""
    return isinstance(arr, np.ndarray) and (
        arr.dtype.kind == "i" or arr.dtype == object
        and all(type(v) is int for v in arr.flat))


def integer_rows(rows, width: int) -> np.ndarray:
    """The rows as a 2-D integer array, each scaled by the lcm of its
    denominators, so every row spans the same line as the input row. An
    integer array, or an object array of Python integers, is taken as it
    is."""
    if _integer_array(rows):
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError("rows of width %d expected" % width)
        return rows.astype(np.int64 if rows.dtype.kind == "i"
                           else exact_dtype(absmax(rows)), copy=False)
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
    """Reduced echelon basis of the row space of an integer matrix, an
    int64 array or an object array of Python integers.

    Fraction-free Gauss-Jordan: per pivot column the live row with the
    smallest entry there is the pivot, since the smallest keeps the
    cross-multiplied rows small; the pivot row ``p`` clears its column
    from every other row ``r`` by ``r * p[c] - r[c] * p``, and each
    changed row is divided by the gcd of its entries. Rows that become
    zero are dropped. (Bareiss's exact division by the previous pivot
    keeps entries as minors of the input; on radical power spans those
    reach hundreds of digits, while primitive rows stay a few digits
    wide.) Entries stay in int64 while a bound proves the next step exact;
    once it does not, the matrix goes on in Python integers.

    Returns ``(rows, pivots)``, canonical: each row primitive with a
    positive pivot, ordered by pivot column, every pivot column zero
    outside its row; in int64 when every entry fits. The rank is
    ``len(pivots)``. The input is not modified.
    """
    live = (matrix != 0).any(axis=1)
    R = matrix[live]
    # rows not yet pivots are zero before their leading column
    lead = (R != 0).argmax(axis=1)
    # the pivot column of each row, -1 until it has one
    piv = np.full(len(R), -1)
    # the largest absolute entry of each row
    big = np.abs(R).max(axis=1, initial=0)
    while True:
        active = np.flatnonzero(piv < 0)
        if not active.size:
            break
        leads = lead[active]
        c = leads.min()
        cand = active[leads == c]
        p = cand[np.argmin(np.abs(R[cand, c]))]
        piv[p] = c
        t = np.flatnonzero(R[:, c])
        t = t[t != p]
        if not t.size:
            continue
        # |r * p[c] - r[c] * p| <= 2 big[r] big[p]
        if R.dtype != object and (
                big[t].max() >= -(-(INT64_SAFE // 2) // big[p])):
            R, big = R.astype(object), big.astype(object)
        block = _primitive(R[t] * R[p, c] - R[t, c][:, None] * R[p])
        R[t] = block
        big[t] = np.abs(block).max(axis=1)
        nonzero = block != 0
        lead[t] = nonzero.argmax(axis=1)
        dead = t[~nonzero.any(axis=1)]
        if dead.size:
            keep = np.ones(len(R), dtype=bool)
            keep[dead] = False
            R, piv, lead, big = R[keep], piv[keep], lead[keep], big[keep]
    order = np.argsort(piv)
    rows, piv = _primitive(R[order]), piv[order]
    if len(rows):
        rows *= np.sign(rows[np.arange(len(rows)), piv])[:, None]
    if rows.dtype == object and absmax(rows) < INT64_SAFE:
        rows = rows.astype(np.int64)
    return rows, piv.tolist()


class Span:
    """A subspace kept as its canonical integer echelon basis.

    ``rows`` is the output of :func:`eliminate`: primitive integer rows with
    positive pivots at ``pivots``, each pivot column zero elsewhere. Equal
    subspaces have equal ``rows``, so comparisons need no elimination.
    Rows enter through :meth:`add` alone.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width: int, rows: Iterable[Sequence] | None = None):
        self.width = width
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []
        if rows is not None:
            self.add(rows)

    @classmethod
    def _canonical(cls, width: int, rows: np.ndarray,
                   pivots: list[int]) -> "Span":
        """The span whose canonical basis is known: ``rows`` and
        ``pivots`` as :func:`eliminate` returns them, taken as they are."""
        out = cls.__new__(cls)
        out.width, out.rows, out.pivots = width, rows, pivots
        return out

    def _stacked(self, vecs: Iterable[Sequence]) -> np.ndarray:
        """The basis stacked over the vectors, as one integer matrix; over
        an empty basis the vectors, uncopied, which keeps peaks low."""
        new = integer_rows(vecs, self.width)
        return np.concatenate([self.rows, new]) if self.pivots else new

    def add(self, vecs: Iterable[Sequence]) -> int:
        """Insert vectors; return how much the dimension grew. The
        canonical form is unique, so one elimination of the basis stacked
        over the vectors gives it."""
        before = self.dim
        self.rows, self.pivots = eliminate(self._stacked(vecs))
        return self.dim - before

    def contains(self, vec: Sequence) -> bool:
        return len(eliminate(self._stacked([vec]))[1]) == self.dim

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def equals(self, other: "Span") -> bool:
        return (self.width == other.width and self.pivots == other.pivots
                and np.array_equal(self.rows, other.rows))


class AugSpan:
    """Integer vector sequences of one width, one sequence per member of a
    stack, read for the first linear dependency in each.

    :meth:`add` appends integer rows to every member's sequence, each under
    its member's next index. :meth:`dependencies` puts each member's rows
    as the columns of one matrix; the first basis vector k of its kernel
    (see :func:`nullspace`) has a 1 at the first free column m and zeros
    after it, so ``vec_m = -sum k_j vec_j`` over j < m.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[np.ndarray] = []

    def add(self, sequences) -> None:
        """Append one sequence of vectors to each member, as an integer
        array or an object array of Python integers, one row per vector;
        the first call sets the members, and every member takes as many
        vectors. Anything else raises ValueError: scaling a rational row
        to integers would change its coefficients."""
        rows = []
        for seq in sequences:
            if not _integer_array(seq):
                raise ValueError("integer rows expected")
            rows.append(integer_rows(seq, self.width))
        if self.rows:
            rows = [np.vstack([a, b]) for a, b in zip(self.rows, rows)]
        self.rows = rows

    @property
    def count(self) -> int:
        """How many vectors each member holds."""
        return len(self.rows[0]) if self.rows else 0

    def dependencies(self) -> list[tuple[int, dict[int, Fraction]] | None]:
        """Per member, ``(m, {j: c_j})`` for its first vector ``vec_m`` in
        the span of the ones before it, with ``vec_m = sum c_j vec_j`` and
        zero coefficients left out; None when its vectors are independent.
        """
        out = []
        for rows in self.rows:
            kern = nullspace(rows.T)
            if not kern:
                out.append(None)
                continue
            k = kern[0]
            m = max(j for j, v in enumerate(k) if v)
            out.append((m, {j: -k[j] for j in range(m) if k[j]}))
        return out


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of a 2-D array of rationals: all v with
    row . v = 0 for every row, from :func:`eliminate` of the rows scaled
    to integers.

    Vector k has a 1 at the k-th non-pivot column and zeros at the other
    non-pivot columns.
    """
    width = matrix.shape[1]
    rows, pivots = eliminate(integer_rows(matrix, width))
    lead = [int(rows[i, p]) for i, p in enumerate(pivots)]
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        vec = [ZERO] * width
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = Fraction(-int(rows[i, f]), lead[i])
        basis.append(tuple(vec))
    return basis
