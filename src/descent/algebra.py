"""Descent-algebra arithmetic over exact rationals.

A vector is stored by its coordinates on one of three bases, indexed by
generator-subset bitmask: the coset-sum basis x_I, the equal-descent-class
basis y_J, and the signed half-weight basis xp_I. Coordinates are integer
numerators over one positive common denominator. Products come from one
batched contraction with the integer structure constants of the ambient
Coxeter system, over their support, K inside J; an independent slow path
counts the products of the equal-ascent-set classes in the group itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

import numpy as np

from .coxeter import (iter_bits, memoized, popcount, subset_sums,
                      support_index, support_pairs)
from .errors import (
    InvalidSubset,
    NotInDescentAlgebra,
    SystemMismatch,
    WrongType,
)
from . import cartan, linalg
from .linalg import ONE, ZERO, AugSpan, Span

BASIS_X = "x"
BASIS_Y = "y"
BASIS_XPRIME = "xp"
_TAGS = (BASIS_X, BASIS_Y, BASIS_XPRIME)


def _as_mask(system, subset):
    """Accept a bitmask or an iterable of generator labels."""
    if isinstance(subset, (int, np.integer)):
        return system.check_mask(int(subset))
    return system.mask_of_labels(subset)


@lru_cache(maxsize=None)
def _text_order(n):
    """The subset masks of n generators in the order a vector's text lists
    them: larger subsets first, then by their sorted members."""
    return tuple(sorted(range(1 << n),
                        key=lambda m: (-popcount(m), tuple(iter_bits(m)))))


# ---------------------------------------------------------------------------
# coordinate transforms between the three bases (all invertible, per-bit)


@lru_cache(maxsize=None)
def _basis_weights(n, sign):
    """Per-mask weights of the subset-sum passes of ``_change_basis``:
    sign^|m|, and the xp weights sign^|m| 2^(n-|m|) before and
    sign^|m| 2^|m| after, as Python integers."""
    sgn = np.array([sign ** popcount(m) for m in range(1 << n)], dtype=object)
    half = np.array([1 << popcount(m) for m in range(1 << n)], dtype=object)
    return sgn, sgn * ((1 << n) // half), sgn * half


def _change_basis(nums, tag, n, sign):
    """Integer numerators on the basis ``tag`` to x-coordinates (sign -1)
    or back (sign +1). Returns the new numerators and the factor by which
    the common denominator grows."""
    if tag == BASIS_X:
        return list(nums), 1
    sgn, pre, post = _basis_weights(n, sign)
    v = np.array(nums, dtype=object)
    if tag == BASIS_Y:
        # y_J = sum over I >= J of (-1)^{|I|-|J|} x_I, so the y-coordinate
        # at J sums the x-coordinates at I <= J; the inverse is the same
        # sum with (-1)^|I| before and (-1)^|J| after
        return (sgn * subset_sums(sgn * v, n)).tolist(), 1
    # xp_I = sum over K <= I of (-1/2)^{|I|-|K|} x_K, and x_I = sum over
    # K <= I of (1/2)^{|I|-|K|} xp_K: the coordinate at K is
    # sign^|K| 2^|K| times the sum over I >= K of sign^|I| 2^-|I| v_I,
    # exact after scaling by 2**n
    return (post * subset_sums(pre * v, n, supersets=True)).tolist(), 1 << n


class DescentVector:
    """Immutable element of the descent algebra of one Coxeter system.

    ``nums`` are integer numerators over the positive denominator ``den``,
    in lowest terms, on the basis named by ``tag``.
    """

    __slots__ = ("system", "tag", "nums", "den")

    def __init__(self, system, coeffs, tag=BASIS_X):
        if tag not in _TAGS:
            raise ValueError("unknown basis tag %r" % (tag,))
        size = 1 << system.rank
        if len(coeffs) != size:
            raise ValueError("expected %d coordinates, got %d"
                             % (size, len(coeffs)))
        self._set(system, tag, *linalg.scaled_integers(coeffs))

    @classmethod
    def from_ints(cls, system, nums, den=1, tag=BASIS_X):
        """The vector with coordinates nums[m] / den on the basis ``tag``."""
        out = cls.__new__(cls)
        out._set(system, tag, nums, den)
        return out

    def _set(self, system, tag, nums, den):
        nums = [int(v) for v in nums]
        den = int(den)
        if den < 0:
            nums, den = [-v for v in nums], -den
        g = gcd(den, *nums)
        if g > 1:
            nums, den = [v // g for v in nums], den // g
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("DescentVector is immutable")

    # -- construction helpers ------------------------------------------

    @staticmethod
    def zero(system, tag=BASIS_X):
        return DescentVector.from_ints(system, [0] * (1 << system.rank), 1,
                                       tag)

    # -- ring structure -------------------------------------------------

    def _check_peer(self, other):
        if self.system is not other.system:
            raise SystemMismatch(
                "operands live over different Coxeter systems")

    def _combine(self, other, sign):
        if not isinstance(other, DescentVector):
            return NotImplemented
        self._check_peer(other)
        o = other.in_basis(self.tag)
        den = lcm(self.den, o.den)
        sa, sb = den // self.den, sign * (den // o.den)
        return DescentVector.from_ints(
            self.system, [a * sa + b * sb for a, b in zip(self.nums, o.nums)],
            den, self.tag)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return DescentVector.from_ints(
            self.system, [-a for a in self.nums], self.den, self.tag)

    def __mul__(self, other):
        if isinstance(other, DescentVector):
            return multiply(self, other)
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return DescentVector.from_ints(
                self.system, [c.numerator * a for a in self.nums],
                c.denominator * self.den, self.tag)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, DescentVector):
            return NotImplemented
        if self.system is not other.system:
            return False
        a, da = self.x_ints()
        b, db = other.x_ints()
        return all(u * db == v * da for u, v in zip(a, b))

    def __hash__(self):
        return hash((id(self.system), tuple(self.x_coords())))

    # -- coordinates ------------------------------------------------------

    def x_ints(self):
        """x-basis coordinates as (integer numerators, denominator)."""
        nums, scale = _change_basis(self.nums, self.tag, self.system.rank, -1)
        return nums, self.den * scale

    def x_coords(self):
        nums, den = self.x_ints()
        return [Fraction(v, den) for v in nums]

    def in_basis(self, tag):
        if tag == self.tag:
            return self
        if tag not in _TAGS:
            raise ValueError("unknown basis tag %r" % (tag,))
        xn, den = self.x_ints()
        nums, scale = _change_basis(xn, tag, self.system.rank, 1)
        return DescentVector.from_ints(self.system, nums, den * scale, tag)

    def is_zero(self):
        return not any(self.nums)

    # -- text form --------------------------------------------------------

    def _term_name(self, mask):
        if mask == self.system.full_mask and self.system.rank > 0:
            return "%sS" % self.tag
        labels = self.system.labels_of_mask(mask)
        return "%s[%s]" % (self.tag, ",".join(labels))

    def __str__(self):
        parts = []
        for mask in _text_order(self.system.rank):
            if self.nums[mask] == 0:
                continue
            c = Fraction(self.nums[mask], self.den)
            name = self._term_name(mask)
            mag = abs(c)
            body = name if mag == 1 else "%s*%s" % (mag, name)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return "<DescentVector %s over %s>" % (self, self.system.type_label)


class LoewyProfile:
    """Dimensions of the successive radical powers, until they vanish."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError("dims must be positive down to the last"
                             " nonzero power")
        if any(a <= b for a, b in zip(dims, dims[1:])):
            raise ValueError("radical power dimensions must strictly drop")
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("LoewyProfile is immutable")

    @property
    def loewy_length(self):
        return len(self.dims)

    def __eq__(self, other):
        if not isinstance(other, LoewyProfile):
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return "<LoewyProfile dims=%s>" % (self.dims,)


# ---------------------------------------------------------------------------
# basis constructors


def _unit_vector(system, subset, tag):
    out = [0] * (1 << system.rank)
    out[_as_mask(system, subset)] = 1
    return DescentVector.from_ints(system, out, 1, tag)


def basis_x(system, subset):
    return _unit_vector(system, subset, BASIS_X)


def basis_y(system, subset):
    return _unit_vector(system, subset, BASIS_Y)


def basis_xprime(system, subset):
    return _unit_vector(system, subset, BASIS_XPRIME)


def unit(system, tag=BASIS_X):
    """The multiplicative unit: the coset sum over the full generator set."""
    return basis_x(system, system.full_mask).in_basis(tag)


# ---------------------------------------------------------------------------
# multiplication


@memoized
def _tensor_support(system):
    """(Tc, its largest absolute entry), Tc[I, p] = T[I, J_p, K_p] over
    the pairs of ``coxeter.support_pairs``, one gather over the index
    that T is scattered from: by Solomon's Mackey formula x_I x_J sums
    x_K with K inside J, and T is only ever scattered from the checked
    support matrix, so Tc holds every nonzero entry of T."""
    Tc = system.structure_tensor().reshape(1 << system.rank, -1).take(
        support_index(system.rank)[0], axis=1)
    Tc.flags.writeable = False
    return Tc, linalg.absmax(Tc)


def products(system, A, B):
    """Every product of a row of A with a row of B.

    Rows hold integer x-coordinates, one element each. Entry [a, b, k] of
    the result is the x_k-coordinate of A[a] * B[b]: the sum over I, J of
    A[a, I] T[I, J, k] B[b, J] with T the structure tensor. Only the
    pairs (J, k) of ``coxeter.support_pairs``, k inside J, enter, the
    support that T is scattered from on every load and build: AT =
    A @ Tc with Tc the support matrix of ``_tensor_support``, and row a
    of the result sums AT[a] * B[:, J] over each k segment, one row at a
    time so no (a, b, 3^n) array is formed.
    Each step is computed in int64 when a bound on its sums proves it
    exact, on Python integers otherwise: a sum of AT has 2^n terms
    A[a, I] Tc[I, p], a k segment at most 2^n terms AT[a, p] B[b, J].
    """
    size = 1 << system.rank
    A = linalg.integer_rows(A, size)
    B = linalg.integer_rows(B, size)
    Tc, tmax = _tensor_support(system)
    # each bound also covers its factors alone when the other is zero
    dtype = linalg.exact_dtype((tmax + 1) * (linalg.absmax(A) + 1) * size)
    AT = A.astype(dtype, copy=False) @ Tc.astype(dtype, copy=False)
    dtype = linalg.exact_dtype(
        (linalg.absmax(AT) + 1) * (linalg.absmax(B) + 1) * size)
    AT = AT.astype(dtype, copy=False)
    J, _K, starts = support_pairs(system.rank)
    BJ = B.astype(dtype, copy=False)[:, J]
    out = np.empty((len(A), len(B), size), dtype=dtype)
    # every k segment holds the pair (k, k), so none is empty
    for a, row in enumerate(AT):
        out[a] = np.add.reduceat(row * BJ, starts, axis=1)
    return out


def x_matrix(vectors, width):
    """Integer matrix with one row per vector: its x-coordinates times its
    own denominator, so each row spans the vector's line."""
    rows = [v.x_ints()[0] for v in vectors]
    big = max((abs(c) for row in rows for c in row), default=0)
    return np.array(rows, dtype=linalg.exact_dtype(big)).reshape(-1, width)


def multiply(left, right):
    """Product in the descent algebra, via the structure constants."""
    if not isinstance(left, DescentVector) or not isinstance(
            right, DescentVector):
        raise TypeError("multiply expects two DescentVector operands")
    left._check_peer(right)
    a, da = left.x_ints()
    b, db = right.x_ints()
    nums = products(left.system, [a], [b])[0, 0]
    return DescentVector.from_ints(
        left.system, nums.tolist(), da * db).in_basis(left.tag)


def left_multiplication(vectors):
    """Matrices of x -> vector * x, one per vector of one system: row J
    holds the x-coordinates of vector * x_J, times the vector's
    denominator. Entry [J, K] is sum_I vector[I] T[I, J, K], so the
    matrices are the vectors times the support matrix, scattered."""
    system = vectors[0].system
    size = 1 << system.rank
    AT = linalg.matmul(x_matrix(vectors, size), _tensor_support(system)[0])
    out = np.zeros((len(AT), size * size), dtype=AT.dtype)
    out[:, support_index(system.rank)[0]] = AT
    return out.reshape(-1, size, size)


def right_multiplication(vectors):
    """Matrices of x -> x * vector, one per vector of one system: row J
    holds the x-coordinates of x_J * vector, times the vector's
    denominator. The products of the identity rows with the vectors,
    indexed vector first."""
    size = 1 << vectors[0].system.rank
    return products(vectors[0].system, np.eye(size, dtype=np.int64),
                    x_matrix(vectors, size)).swapaxes(0, 1)


def _y_rows(vectors):
    """(integer rows of the vectors' y-coordinates, their denominators)."""
    ys = [v.in_basis(BASIS_Y) for v in vectors]
    big = max(abs(c) for y in ys for c in y.nums)
    return (np.array([y.nums for y in ys], dtype=linalg.exact_dtype(big)),
            [y.den for y in ys])


def coset_sum(system, subset):
    """The group vector of x_I, as a boolean array: the coset sum over I
    collects exactly the w with I among their ascents R(w)."""
    return (system.rasc & subset) == subset


# at most this many cells are counted in one block of ``_class_counts``:
# each block asks ``multiplication_table`` for at most
# max(1, _SCATTER_CELLS // |W|) rows, so no |W| x |W| array is ever formed
_SCATTER_CELLS = 1 << 18


# up to this order every element is a witness of Solomon's theorem in
# ``_class_counts``; above it, the first and the last member of each class
ALL_WITNESS_ORDER = 6000


@memoized
def _class_counts(system):
    """D[J, K, L] = #{u : R(u) = K, R(u^-1 w) = L} at a w with R(w) = J,
    the coefficient of w in y_K y_L, as a read-only int64 array.

    Read from the ascent masks, the inverses and the group tables alone:
    R(u^-1 w) is the left ascent set of w^-1 u, so the row of w^-1 in
    ``multiplication_table`` gives the count at w, one ``np.bincount``
    per block of at most ``_SCATTER_CELLS`` cells. Solomon's theorem
    says the count does not depend on the choice of w: D[J] is read at
    the first witness of class J and checked at the others, every member
    up to ``ALL_WITNESS_ORDER`` and the first and the last member above
    it. A class whose witnesses disagree raises.
    """
    rasc, lasc, inv = system.rasc, system.lasc, system.inv
    order, size = system.order, 1 << system.rank
    if order <= ALL_WITNESS_ORDER:
        witnesses = np.arange(order)
    else:
        witnesses = np.concatenate([
            np.unique(rasc, return_index=True)[1],
            order - 1 - np.unique(rasc[::-1], return_index=True)[1]])
    block = max(1, min(len(witnesses),
                       _SCATTER_CELLS // max(order, size * size)))
    # the cell of (witness i of a block, R(u), L(w^-1 u)) less L(w^-1 u)
    base = (np.arange(block)[:, None] * size + rasc) * size
    D = np.zeros((size, size, size), dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    for lo in range(0, len(witnesses), block):
        ws = witnesses[lo:lo + block]
        cells = base[:len(ws)] + lasc[system.multiplication_table(inv[ws])]
        counts = np.bincount(cells.ravel(), minlength=len(ws) * size * size
                             ).reshape(len(ws), size, size)
        J = rasc[ws]
        D[J[~seen[J]]] = counts[~seen[J]]
        seen[J] = True
        off = np.flatnonzero((counts != D[J]).any(axis=(1, 2)))
        if off.size:
            raise NotInDescentAlgebra(
                "group products are not constant on the descent class of "
                "mask %d" % int(J[off[0]]))
    D.flags.writeable = False
    return D


def oracle_multiply(left, right):
    """Slow reference product in the group algebra, never read off the
    structure constants: of two vectors, or of two lists of vectors of one
    system as the nested list with row i, column j left[i] * right[j].
    The group coordinate at u is the y-coordinate at R(u), so the
    y-coordinate at J of a product is y_a . D[J] . y_b with D from
    ``_class_counts``, exact under the bound max|y_a| max|y_b| |W|, since
    the entries of each D[J] sum to |W|.
    """
    pair = isinstance(left, DescentVector) and isinstance(right, DescentVector)
    left, right = ([left], [right]) if pair else (list(left), list(right))
    if not all(isinstance(v, DescentVector) for v in left + right):
        raise TypeError("oracle_multiply expects two DescentVector operands "
                        "or two lists of them")
    if not left or not right:
        return [[] for _ in left]
    for v in left + right:
        left[0]._check_peer(v)
    system = left[0].system
    (ya, da), (yb, db) = _y_rows(left), _y_rows(right)
    dtype = linalg.exact_dtype(max(linalg.absmax(ya), 1)
                               * max(linalg.absmax(yb), 1) * system.order)
    D = _class_counts(system).astype(dtype, copy=False)
    prods = (ya.astype(dtype, copy=False) @ D
             @ yb.astype(dtype, copy=False).T).transpose(1, 2, 0)
    out = [None] * len(left)
    # one change of basis per distinct left tag, over all its products
    for tag in {v.tag for v in left}:
        at = [i for i, v in enumerate(left) if v.tag == tag]
        nums, scale = prods[at].tolist(), 1
        if tag != BASIS_Y:
            nums, _ = _change_basis(nums, BASIS_Y, system.rank, -1)
            nums, scale = _change_basis(nums, tag, system.rank, 1)
        for i, rows in zip(at, nums):
            out[i] = [DescentVector.from_ints(system, row, da[i] * e * scale,
                                              tag) for row, e in zip(rows, db)]
    return out[0][0] if pair else out


# ---------------------------------------------------------------------------
# characters, radical, Loewy series


@memoized
def tau_matrix(system):
    """Row k = shape class k: values of that character on the x-basis, as
    a read-only int64 array.

    The value at column I is the structure constant T[I, J, J] for any
    member J of the shape; the shapes are the classes of equal columns, so
    the canonical member's column stands for all of them.
    """
    canon = [shape.canonical for shape in system.shapes()]
    T = system.structure_tensor()
    mat = np.ascontiguousarray(T[:, canon, canon].T, dtype=np.int64)
    mat.flags.writeable = False
    return mat


def character_values(vectors):
    """Values of every one-dimensional character on each vector of one
    system, as ``(nums, dens)``: ``nums[b, k] / dens[b]`` is the value of
    the character of shape class k on vector b, with ``nums`` an integer
    matrix and every ``dens[b]`` positive."""
    system = vectors[0].system
    values = linalg.matmul(x_matrix(vectors, 1 << system.rank),
                           tau_matrix(system).T)
    return values, [v.x_ints()[1] for v in vectors]


def _lower_solve(lower, rhs):
    """X with lower @ X = rhs for a lower triangular integer matrix, by
    forward substitution in Python integers; raises unless X is integral."""
    out = np.zeros(rhs.shape, dtype=object)
    for i, row in enumerate(lower.astype(object)):
        rest = rhs[i] - row[:i] @ out[:i]
        if (rest % row[i]).any():
            raise AssertionError("triangular solve with a fractional entry")
        out[i] = rest // row[i]
    return out


@memoized
def cartan_invariants(system):
    """The Cartan matrix C[k, l] = dim e_k Sigma e_l over the shape
    classes, read-only int64. Sigma is basic and split with the characters
    as its simple modules (Solomon), so the trace of x -> x_I x x_J,
    Tr[I, J] = sum over K, M of T[I, K, M] T[M, J, K], is Theta^T C Theta
    with Theta = tau_matrix, upper triangular in the shape order at the
    canonical columns: two forward substitutions give C from that block.
    C must be integral, with a unit diagonal and entries summing to 2^n.
    """
    canon = np.array([shape.canonical for shape in system.shapes()])
    J, K, _starts = support_pairs(system.rank)
    traces = linalg.matmul(
        _tensor_support(system)[0][canon],
        system.structure_tensor()[K[:, None], canon, J[:, None]])
    lower = tau_matrix(system)[:, canon].T
    C = _lower_solve(lower, _lower_solve(lower, traces).T).T
    if (C.diagonal() != 1).any() or C.sum() != 1 << system.rank:
        raise AssertionError("Cartan matrix of %s" % system.type_label)
    C = C.astype(np.int64)
    C.flags.writeable = False
    return C


@memoized
def radical_basis(system):
    """Basis of the radical, the common kernel of all one-dimensional
    characters, as a read-only matrix of integer x-coordinate rows.

    Solomon's basis: x_J - x_c for every member J of a shape other than
    its canonical member c. Each vector has its own J, so they are
    independent, and there are 2^n minus the number of shapes of them.
    """
    pairs = [(member, shape.canonical) for shape in system.shapes()
             for member in shape.members if member != shape.canonical]
    rows = np.zeros((len(pairs), 1 << system.rank), dtype=np.int64)
    for i, (member, canonical) in enumerate(pairs):
        rows[i, member], rows[i, canonical] = 1, -1
    rows.flags.writeable = False
    return rows


def radical_powers(system, generators):
    """Spans of J, J^2, J^3, ... down to the last nonzero power, where J
    is spanned by the integer x-coordinate rows ``generators``.

    J^(k+1) is spanned by the products of the generators with a basis of
    J^k: one contraction and one exact rank per power.
    """
    size = 1 << system.rank
    out = []
    span = Span(size, generators)
    while span.dim > 0:
        out.append(span)
        span = Span(size, products(system, generators, span.rows)
                    .reshape(-1, size))
    return out


@memoized
def loewy_profile(system):
    """Dimension sequence of the radical filtration of the full algebra."""
    powers = radical_powers(system, radical_basis(system))
    return LoewyProfile([1 << system.rank] + [p.dim for p in powers])


def _semisimple(matrices, values):
    """Whether each vector a of a stack is semisimple, as a boolean array:
    ``matrices[b]`` is the matrix of x -> den a x or x -> x den a, and
    ``values[b]`` its character values times den. Sigma/rad is split and
    commutative, so a is semisimple exactly when the chain prod_v
    (den a - v) over its distinct values vanishes; a repeated value is an
    identity factor, as a repeated root would make a nilpotent's chain
    vanish. A factor multiplies the largest entry by at most its largest
    column sum, below 2^bits, so a chain runs in int64 residues modulo
    one modulus after another until their lcm covers the product of
    those bounds, or until it no longer vanishes.
    """
    size = matrices.shape[-1]
    roots = np.sort(values, axis=1)
    repeat = np.zeros(roots.shape, dtype=bool)
    repeat[:, 1:] = roots[:, 1:] == roots[:, :-1]
    colsum = np.abs(matrices).sum(axis=1, dtype=linalg.exact_dtype(
        linalg.absmax(matrices) * size)).max(axis=1)
    bits = (~repeat).sum(axis=1) * [
        int(c).bit_length() for c in colsum + np.abs(roots).max(axis=1)]
    out = np.ones(len(roots), dtype=bool)
    # a residue row times a residue matrix stays below size * m^2
    m, cover = isqrt(linalg.INT64_SAFE // size), 1
    while (todo := np.flatnonzero(out & (bits >= cover.bit_length()))).size:
        factor = (matrices[todo] % m).astype(np.int64)
        shift = (roots[todo] % m).astype(np.int64)
        chain = np.zeros((len(todo), size), dtype=np.int64)
        chain[:, -1] = 1
        for k in range(roots.shape[1]):
            step = ((chain[:, None] @ factor)[:, 0]
                    - shift[:, k, None] * chain) % m
            chain = np.where(repeat[todo, k, None], chain, step)
        out[todo] = ~chain.any(axis=1)
        cover, m = lcm(cover, m), m - 1
    return out


def minimal_polynomial(vectors):
    """Monic minimal polynomial of each vector of one system, as a
    low-to-high coefficient tuple: the product of (x - v) over the
    distinct character values v of a semisimple vector (``_semisimple``).
    The others take Krylov stacks: with L_b = left_multiplication(a_b),
    p_0 = 1 and p_k = p_{k-1} L_b up to k = 2^n are the integer
    x-coordinates of den_b^k a_b^k; one AugSpan reads each stack's first
    dependency p_m = sum c_k p_k, and x^k has coefficient -c_k den_b^(k-m).
    """
    size = 1 << vectors[0].system.rank
    L = left_multiplication(vectors)
    values, dens = character_values(vectors)
    out = [None] * len(vectors)
    for b in np.flatnonzero(_semisimple(L, values)):
        # prod_v (den x - v) is den^d times the monic product
        roots, coeffs = set(values[b].tolist()), [1]
        for v in roots:
            coeffs = [dens[b] * c - v * d
                      for c, d in zip([0] + coeffs, coeffs + [0])]
        out[b] = tuple(Fraction(c, dens[b] ** len(roots)) for c in coeffs)
    todo = [b for b in range(len(vectors)) if out[b] is None]
    if todo:
        powers = [np.zeros((len(todo), 1, size), dtype=np.int64)]
        powers[0][:, 0, -1] = 1
        for _ in range(size):
            powers.append(linalg.matmul(powers[-1], L[todo]))
        span = AugSpan(size)
        span.add(np.concatenate(powers, axis=1))
        for b, (m, combo) in zip(todo, span.dependencies()):
            coeffs = [ZERO] * m + [ONE]
            for k, c in combo.items():
                coeffs[k] = -c * Fraction(dens[b]) ** (k - m)
            out[b] = tuple(coeffs)
    return out


# ---------------------------------------------------------------------------
# positivity, families, ideals


def saturated_family(vector):
    """Downward closure of the support through the shape order: all J
    conjugate into some support subset I, that is T[I, J, J] > 0
    (Solomon; Kilmoyer: d^{-1} I d contains J for some d in X_{I,J}
    exactly when some conjugate of J lies inside I).
    """
    system = vector.system
    supp = np.array([m for m, c in enumerate(vector.x_ints()[0]) if c],
                    dtype=np.intp)
    masks = np.arange(1 << system.rank)
    hit = system.structure_tensor()[supp[:, None], masks, masks] > 0
    return frozenset(np.flatnonzero(hit.any(axis=0)).tolist())


def family_span(system, family):
    """The coordinate subspace spanned by the x-basis over the family: its
    identity rows are already the canonical echelon basis."""
    size = 1 << system.rank
    masks = sorted(family)
    return Span._canonical(size, np.eye(size, dtype=np.int64)[masks], masks)


def _ideals(vectors, matrices, axis):
    """The row spaces of the multiplication matrices of the vectors. The
    matrix of a has eigenvalue v as often as the composition factors of
    Sigma as a left or right module with value v, the sums along ``axis``
    of ``cartan_invariants``: its rank is at least their count over the
    nonzero values. When that many columns hold a nonzero entry, the
    ideal is their coordinate span; the other vectors are eliminated."""
    size = 1 << vectors[0].system.rank
    support = (matrices != 0).any(axis=1)
    coordinate = support.sum(axis=1) == (
        character_values(vectors)[0] != 0).astype(np.int64) @ (
        cartan_invariants(vectors[0].system).sum(axis=axis))
    eye = np.eye(size, dtype=np.int64)
    out = [Span._canonical(size, eye[row], np.flatnonzero(row).tolist())
           for row in support]
    for b in np.flatnonzero(~coordinate):
        out[b] = Span(size, matrices[b])
    return out


def right_ideal(vectors):
    """Spans of the products (vector * x_J), one per vector of one system:
    the principal right ideals."""
    return _ideals(vectors, left_multiplication(vectors), 1)


def left_ideal(vectors):
    """Spans of the products (x_J * vector), one per vector of one system:
    the principal left ideals."""
    return _ideals(vectors, right_multiplication(vectors), 0)


def commutator_image(vectors):
    """Spans of the values of x -> vector*x - x*vector on the basis, one
    per vector of one system."""
    size = 1 << vectors[0].system.rank
    return [Span(size, m) for m in left_multiplication(vectors)
            - right_multiplication(vectors)]


def centralizer_dimension(vectors):
    """Dimensions of the commutants {x : vector*x = x*vector}, one per
    vector of one system: for a semisimple vector, the sum of e_v Sigma e_v
    over its values v, the Cartan invariants C[k, l] over the classes k, l
    where its values agree; the others count the commutator image."""
    values, _dens = character_values(vectors)
    C = cartan_invariants(vectors[0].system)
    out = [int(C[row[:, None] == row].sum()) for row in values]
    rest = np.flatnonzero(~_semisimple(left_multiplication(vectors), values))
    if rest.size:
        images = commutator_image([vectors[b] for b in rest])
        for b, span in zip(rest, images):
            out[b] = (1 << vectors[0].system.rank) - span.dim
    return out


# ---------------------------------------------------------------------------
# permutation-character pairing


@memoized
def theta_value_table(system):
    """value[c][I]: value at class c of the permutation character of the
    coset action for mask I, as exact integers.

    By orbit-stabilizer, the u with u^-1 r_c u in W_I number |W| / |c|
    times the members of class c inside W_I, those with support in I;
    dividing by |W_I| counts the cosets u W_I that r_c fixes.
    """
    n = system.rank
    size = 1 << n
    cls, _reps, sizes = system.element_classes()
    cnts = np.bincount(cls.astype(np.int64) * size + system.supp,
                       minlength=len(sizes) * size).reshape(-1, size)
    subset_sums(cnts, n)
    cnts *= (system.order // np.array(sizes, dtype=np.int64))[:, None]
    vals, rem = np.divmod(cnts, cartan.parabolic_orders(system.matrix))
    if rem.any():
        raise AssertionError(
            "fixed-point count not divisible by the parabolic order")
    return tuple(tuple(row) for row in vals.tolist())


def bhs_pairing(system):
    """Matrix N[I][J]: the I-th coset character summed over the J-th
    distinguished-representative set. Symmetric by the character identity."""
    n = system.rank
    size = 1 << n
    theta = theta_value_table(system)
    cls, _reps, sizes = system.element_classes()
    cnt = np.bincount(cls.astype(np.int64) * size + system.rasc,
                      minlength=len(sizes) * size).reshape(len(sizes), size)
    # superset sums per class: X_J collects w with ascent mask containing J
    subset_sums(cnt, n, supersets=True)
    # each entry is at most |W| * |W|, exact in int64 up to rank 7
    pairing = np.array(theta, dtype=np.int64).T @ cnt
    return tuple(tuple(row) for row in pairing.tolist())


# ---------------------------------------------------------------------------
# named witnesses


def _positions_mask(system, lo, hi):
    """Bitmask of generator positions lo..hi inclusive (0-based)."""
    if lo > hi:
        return 0
    mask = 0
    for p in range(lo, hi + 1):
        if p < 0 or p >= system.rank:
            raise InvalidSubset("generator position %d out of range" % p)
        mask |= 1 << p
    return mask


def require_standard(system, family):
    """Raise WrongType unless the system is the family's irreducible one,
    numbered as its label numbers it: callers read generators by place."""
    comps = [(family, system.rank)]
    # the components first: the label's matrix is built only for them
    if (system.components != comps
            or system.matrix != cartan.matrix_for_components(comps)[1]):
        raise WrongType("expected %s%d numbered as its label numbers it"
                        % (family, system.rank))


def witness_elements_typeB(system):
    """Radical elements a_i and their alternating companions for the
    doubled-bond linear type, position 0 being the short-branch generator.

    Returns (a_list, tau_list): a_i of index i = 1..floor((n-1)/2), and the
    signed binomial combinations whose leading term tracks the product
    a_i * ... * a_1.
    """
    require_standard(system, "B")
    n = system.rank
    if n < 3:
        raise WrongType("witness family needs rank at least 3")
    r = (n - 1) // 2
    a_list = []
    t_list = []
    for i in range(1, r + 1):
        a = (basis_x(system, _positions_mask(system, 2 * i - 1, n - 2))
             - basis_x(system, _positions_mask(system, 2 * i, n - 1)))
        a_list.append(a)
        coeffs = [0] * (1 << n)
        for j in range(0, 2 * i):
            mask = _positions_mask(system, j + 1, n - 2 * i + j)
            coeffs[mask] += (-1) ** j * comb(2 * i - 1, j)
        t_list.append(DescentVector.from_ints(system, coeffs))
    return a_list, t_list
