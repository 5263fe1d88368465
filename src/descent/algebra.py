"""Descent-algebra arithmetic over exact rationals.

A vector is stored by its coordinates on one of three bases, indexed by
generator-subset bitmask: the coset-sum basis x_I, the equal-descent-class
basis y_J, and the signed half-weight basis xp_I. Coordinates are integer
numerators over one positive common denominator. Products come from one
batched contraction with the integer structure constants of the ambient
Coxeter system; an independent slow path multiplies honest group-algebra
vectors and folds the result back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

import numpy as np

from .coxeter import iter_bits, popcount, subset_sums
from .errors import (
    InvalidSubset,
    NotInDescentAlgebra,
    NotPositive,
    SystemMismatch,
    WrongType,
)
from . import linalg
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
    in lowest terms, on the basis named by ``tag``; ``coeffs`` gives the
    same coordinates as Fractions.
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

    @property
    def coeffs(self):
        return tuple(Fraction(v, self.den) for v in self.nums)

    # -- construction helpers ------------------------------------------

    @staticmethod
    def zero(system, tag=BASIS_X):
        return DescentVector.from_ints(system, [0] * (1 << system.rank), 1,
                                       tag)

    @staticmethod
    def from_map(system, mapping, tag=BASIS_X):
        out = [ZERO] * (1 << system.rank)
        for subset, c in mapping.items():
            out[_as_mask(system, subset)] += Fraction(c)
        return DescentVector(system, out, tag)

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

    def coefficient(self, subset):
        return Fraction(self.nums[_as_mask(self.system, subset)], self.den)

    def support(self):
        """Masks with nonzero coordinate, in the vector's own basis."""
        return [m for m, c in enumerate(self.nums) if c != 0]

    def is_zero(self):
        return not any(self.nums)

    def is_positive(self):
        """Componentwise nonnegative on the x-basis."""
        return all(c >= 0 for c in self.x_ints()[0])

    # -- text form --------------------------------------------------------

    def _term_name(self, mask):
        if mask == self.system.full_mask and self.system.rank > 0:
            return "%sS" % self.tag
        labels = self.system.labels_of_mask(mask)
        return "%s[%s]" % (self.tag, ",".join(labels))

    def __str__(self):
        parts = []
        order = sorted(range(len(self.nums)),
                       key=lambda m: (-popcount(m), tuple(iter_bits(m))))
        for mask in order:
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


class TauVector:
    """Values of every one-dimensional character on one element.

    Entry k is the character value at the shape with class id k. The kernel
    of the full collection is the radical, and the map is multiplicative.
    """

    __slots__ = ("system", "values")

    def __init__(self, system, values):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "values", tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError("TauVector is immutable")

    def __eq__(self, other):
        if not isinstance(other, TauVector):
            return NotImplemented
        return self.system is other.system and self.values == other.values

    def __hash__(self):
        return hash((id(self.system), self.values))

    def __repr__(self):
        return "<TauVector %s>" % (tuple(str(v) for v in self.values),)


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

    @property
    def dimension(self):
        return self.dims[0]

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


def _algebra_context(system):
    ctx = system.__dict__.get("_algebra_ctx")
    if ctx is None:
        ctx = {}
        system.__dict__["_algebra_ctx"] = ctx
    return ctx


def _exact_tensor(system, factor):
    """The structure tensor, in int64 when ``factor`` times its largest
    entry is below the int64 bound and on Python integers otherwise.
    ``factor`` bounds, for one entry of a contraction with T, the sum of
    the absolute values of what multiplies the entries of T in it."""
    T = system.structure_tensor()
    ctx = _algebra_context(system)
    tmax = ctx.get("tensor_max")
    if tmax is None:
        tmax = ctx["tensor_max"] = linalg.absmax(T)
    return T.astype(linalg.exact_dtype(tmax * factor), copy=False)


def products(system, A, B):
    """Every product of a row of A with a row of B, in one contraction.

    Rows hold integer x-coordinates, one element each. Entry [a, b, k] of
    the result is the x_k-coordinate of A[a] * B[b]: the sum over I, J of
    A[a, I] T[I, J, k] B[b, J] with T the structure tensor. Computed in
    int64 when a bound on that sum proves it exact, on Python integers
    otherwise.
    """
    size = 1 << system.rank
    A = linalg.integer_rows(A, size)
    B = linalg.integer_rows(B, size)
    # the bound also covers A and B themselves when the other is zero
    T = _exact_tensor(system, (linalg.absmax(A) + 1) * (linalg.absmax(B) + 1)
                      * size * size)
    AT = np.tensordot(A.astype(T.dtype, copy=False), T, axes=(1, 0))
    return np.tensordot(AT, B.astype(T.dtype, copy=False),
                        axes=(1, 1)).transpose(0, 2, 1)


def x_matrix(vectors, width):
    """Integer matrix with one row per vector: its x-coordinates times its
    own denominator, so each row spans the vector's line."""
    return linalg.integer_rows([v.x_ints()[0] for v in vectors], width)


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


def _multiplication(vector, axis):
    """T contracted with the vector's integer x-coordinates along its
    axis ``axis``: the left factor for 0, the right factor for 1."""
    size = 1 << vector.system.rank
    v = linalg.integer_rows([vector.x_ints()[0]], size)[0]
    T = _exact_tensor(vector.system, (linalg.absmax(v) + 1) * size)
    return np.tensordot(v.astype(T.dtype, copy=False), T, axes=(0, axis))


def left_multiplication(vector):
    """Matrix of x -> vector * x: row J holds the x-coordinates of
    vector * x_J, times the vector's denominator."""
    return _multiplication(vector, 0)


def right_multiplication(vector):
    """Matrix of x -> x * vector: row J holds the x-coordinates of
    x_J * vector, times the vector's denominator."""
    return _multiplication(vector, 1)


def _group_ints(vector):
    """Group-algebra coordinates as (integer array, denominator).

    The coset sum over mask I collects exactly the w whose ascent mask
    contains I, so the group coordinate at w is the y-coordinate at the
    ascent mask of w.
    """
    y = vector.in_basis(BASIS_Y)
    nums = np.array(y.nums, dtype=linalg.exact_dtype(max(map(abs, y.nums))))
    return nums[vector.system.rasc], y.den


def group_vector(vector):
    """Expand to coordinates on the group elements themselves."""
    nums, den = _group_ints(vector)
    return [Fraction(v, den) for v in nums.tolist()]


def _fold_group(system, nums, den, tag):
    """The descent vector with group coordinates nums / den (an integer
    array), after checking constancy on each equal-ascent-set class."""
    rasc = system.rasc
    masks, first = np.unique(rasc, return_index=True)
    y = np.zeros(1 << system.rank, dtype=nums.dtype)
    y[masks] = nums[first]
    off = np.flatnonzero(y[rasc] != nums)
    if off.size:
        raise NotInDescentAlgebra(
            "group vector is not constant on the descent class of "
            "mask %d" % int(rasc[off[0]]))
    return DescentVector.from_ints(system, y.tolist(), den,
                                   BASIS_Y).in_basis(tag)


def vector_from_group(system, gcoeffs, tag=BASIS_X):
    """Fold group-algebra coordinates back onto the descent basis.

    Requires constancy on each equal-ascent-set class; a violation means
    the group vector left the descent algebra and is reported as such.
    """
    nums, den = linalg.scaled_integers(gcoeffs)
    return _fold_group(system, linalg.integer_rows([nums], len(nums))[0],
                       den, tag)


def convolve(system, na, nb):
    """Product of two integer group-algebra vectors.

    Translates by the sparser factor, through rows or columns of the full
    multiplication table when the group is small enough and through
    per-element translations otherwise; translation index arrays are
    permutations, so fancy-indexed += is exact. In int64 when the
    coefficient bound allows and on Python integers beyond it.
    """
    order = system.order
    amax, bmax = linalg.absmax(na), linalg.absmax(nb)
    dtype = linalg.exact_dtype(max(amax * bmax * order, amax, bmax))
    na, nb = na.astype(dtype), nb.astype(dtype)
    mt = system.multiplication_table() if order <= 6000 else None
    out = np.zeros(order, dtype=dtype)
    if np.count_nonzero(na) <= np.count_nonzero(nb):
        for u in np.flatnonzero(na):
            at = mt[u] if mt is not None else system.left_translation(int(u))
            out[at] += na[u] * nb
    else:
        for v in np.flatnonzero(nb):
            at = (mt[:, v] if mt is not None
                  else system.right_translation(int(v)))
            out[at] += nb[v] * na
    return out


def oracle_multiply(left, right):
    """Slow reference product: convolve honest group-algebra vectors and
    fold the result back through the equal-ascent-class constancy check.
    """
    if not isinstance(left, DescentVector) or not isinstance(
            right, DescentVector):
        raise TypeError("oracle_multiply expects two DescentVector operands")
    left._check_peer(right)
    na, da = _group_ints(left)
    nb, db = _group_ints(right)
    return _fold_group(left.system, convolve(left.system, na, nb), da * db,
                       left.tag)


# ---------------------------------------------------------------------------
# characters, radical, Loewy series


def tau_matrix(system):
    """Row k = shape class k: values of that character on the x-basis, as
    a read-only int64 array.

    The value at column I is the structure constant T[I, J, J] for any
    member J of the shape; the shapes are the classes of equal columns, so
    the canonical member's column stands for all of them.
    """
    ctx = _algebra_context(system)
    mat = ctx.get("tau_matrix")
    if mat is None:
        canon = [shape.canonical for shape in system.shapes()]
        T = system.structure_tensor()
        mat = np.ascontiguousarray(T[:, canon, canon].T, dtype=np.int64)
        mat.flags.writeable = False
        ctx["tau_matrix"] = mat
    return mat


def tau(vector):
    """All one-dimensional character values of the element."""
    nums, den = vector.x_ints()
    vals = [Fraction(sum(t * v for t, v in zip(row, nums)), den)
            for row in tau_matrix(vector.system).tolist()]
    return TauVector(vector.system, vals)


def radical_basis(system):
    """Basis of the radical, the common kernel of all one-dimensional
    characters.

    Solomon's basis: x_J - x_c for every member J of a shape other than
    its canonical member c. Each vector has its own J, so they are
    independent, and there are 2^n minus the number of shapes of them.
    """
    ctx = _algebra_context(system)
    cached = ctx.get("radical_basis")
    if cached is None:
        size = 1 << system.rank
        out = []
        for shape in system.shapes():
            for member in shape.members:
                if member != shape.canonical:
                    vec = [0] * size
                    vec[member] = 1
                    vec[shape.canonical] = -1
                    out.append(DescentVector.from_ints(system, vec))
        cached = ctx["radical_basis"] = tuple(out)
    return list(cached)


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


def loewy_profile(system):
    """Dimension sequence of the radical filtration of the full algebra."""
    ctx = _algebra_context(system)
    prof = ctx.get("loewy_profile")
    if prof is None:
        powers = radical_powers(
            system, x_matrix(radical_basis(system), 1 << system.rank))
        prof = LoewyProfile([1 << system.rank] + [p.dim for p in powers])
        ctx["loewy_profile"] = prof
    return prof


def minimal_polynomial(vector):
    """Monic minimal polynomial, as a low-to-high coefficient tuple.

    Krylov iteration on integer rows: L = left_multiplication(a) is
    den * a on the x-basis, so p_0 = 1 and p_k = p_{k-1} L are the integer
    x-coordinates of den^k a^k. They go into an AugSpan until p_m is
    dependent; then p_m = sum c_k p_k, and the coefficient of x^k is
    -c_k den^(k-m).
    """
    system = vector.system
    size = 1 << system.rank
    den = vector.x_ints()[1]
    L = left_multiplication(vector)
    span = AugSpan(size)
    p = np.zeros(size, dtype=np.int64)
    p[system.full_mask] = 1
    while span.add(p):
        p = linalg.matmul(p[None], L)[0]
    m = span.count - 1
    coeffs = [ZERO] * m + [ONE]
    for k, c in span.express(p).items():
        coeffs[k] = -c * Fraction(den) ** (k - m)
    return tuple(coeffs)


def characteristic_polynomial_positive(vector):
    """Split characteristic polynomial of left multiplication.

    For a componentwise-nonnegative element this is the product over all
    generator subsets J of (T - tau_{shape(J)}(a)).
    """
    if not vector.is_positive():
        raise NotPositive("characteristic factorization needs nonnegative "
                          "x-coordinates")
    system = vector.system
    tv = tau(vector)
    roots = []
    for mask in range(1 << system.rank):
        roots.append(tv.values[system.shape_id_of_mask(mask)])
    return linalg.poly_from_roots(roots)


# ---------------------------------------------------------------------------
# positivity, families, ideals


def saturated_family(vector, equivariant=False):
    """Downward closure of the support, plainly or through the shape order.

    Plain: all subsets contained in some support subset. Equivariant: all
    subsets whose shape sits below some support subset's shape.
    """
    system = vector.system
    supp = [m for m, c in enumerate(vector.x_ints()[0]) if c != 0]
    size = 1 << system.rank
    fam = set()
    if equivariant:
        for i in range(size):
            si = system.shape_id_of_mask(i)
            for j in supp:
                if system.shape_order_leq(si, system.shape_id_of_mask(j)):
                    fam.add(i)
                    break
    else:
        for i in range(size):
            for j in supp:
                if i & ~j == 0:
                    fam.add(i)
                    break
    return frozenset(fam)


def family_span(system, family):
    """The coordinate subspace spanned by the x-basis over the family."""
    size = 1 << system.rank
    return Span(size, np.eye(size, dtype=np.int64)[sorted(family)])


def right_ideal(vector):
    """Span of the products (vector * x_J): the principal right ideal."""
    return Span(1 << vector.system.rank, left_multiplication(vector))


def left_ideal(vector):
    """Span of the products (x_J * vector): the principal left ideal."""
    return Span(1 << vector.system.rank, right_multiplication(vector))


def is_invertible(vector):
    """A unit precisely when no one-dimensional character vanishes on it."""
    return all(v != 0 for v in tau(vector).values)


def commutator_image(vector):
    """Span of the values of x -> vector*x - x*vector on the basis."""
    return Span(1 << vector.system.rank,
                left_multiplication(vector) - right_multiplication(vector))


def centralizer_dimension(vector):
    """Dimension of the commutant {x : vector*x = x*vector}."""
    size = 1 << vector.system.rank
    return size - commutator_image(vector).dim


def eigenspace_dim_on_regular(vector, value):
    """Multiplicity of an eigenvalue of the element on the group algebra.

    Valid for componentwise-nonnegative elements: the multiplicity of xi
    counts the group elements whose minimal-parabolic shape gives character
    value xi.
    """
    if not vector.is_positive():
        raise NotPositive(
            "regular-representation eigenvalue count needs nonnegative "
            "x-coordinates")
    system = vector.system
    value = Fraction(value)
    tv = tau(vector)
    _cls, cshapes, sizes = system.class_shape_ids()
    total = 0
    for c, size in enumerate(sizes):
        if tv.values[int(cshapes[c])] == value:
            total += size
    return total


# ---------------------------------------------------------------------------
# permutation-character pairing


# at most this many element indices are conjugated in one block, so that
# the memory of theta_value_table stays bounded on rank 7 (E7 has 60
# classes of 2,903,040 elements)
_CONJ_BLOCK = 1 << 23


def theta_value_table(system):
    """value[c][I]: value at class c of the permutation character of the
    coset action for mask I, as exact integers."""
    ctx = _algebra_context(system)
    cached = ctx.get("theta_table")
    if cached is None:
        n = system.rank
        size = 1 << n
        order = system.order
        conj = system.conj_tables()
        parent, lastgen, supp = system.parent, system.lastgen, system.supp
        _cls, reps, _sizes = system.element_classes()
        starts = np.searchsorted(system.length, np.arange(system.nroots + 2))
        cnts = np.zeros((len(reps), size), dtype=np.int64)
        block = max(1, _CONJ_BLOCK // order)
        for first in range(0, len(reps), block):
            chunk = reps[first:first + block]
            # row c holds u^-1 r_c u for every u, one length level at a time
            m = np.empty((len(chunk), order), dtype=np.int32)
            m[:, 0] = chunk
            for lo, hi in zip(starts[1:-1], starts[2:]):
                m[:, lo:hi] = conj[m[:, parent[lo:hi]], lastgen[lo:hi]]
            for c, row in enumerate(m, first):
                cnts[c] = np.bincount(supp[row], minlength=size)
        subset_sums(cnts, n)
        # each entry now counts all u with supp(u^-1 r u) inside I;
        # divide by |W_I| to count fixed cosets
        par_orders = [len(system.parabolic_indices(msk))
                      for msk in range(size)]
        vals, rem = np.divmod(cnts, par_orders)
        if rem.any():
            raise AssertionError(
                "fixed-point count not divisible by the parabolic order")
        cached = tuple(tuple(row) for row in vals.tolist())
        ctx["theta_table"] = cached
    return cached


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


def witness_element_typeA(system):
    """Radical element whose powers realize the maximal Loewy length in
    the single-laced linear type: difference of the two maximal proper
    interval subsets."""
    comps = system.components
    if len(comps) != 1 or comps[0][0] != "A":
        raise WrongType("expected an irreducible linear-diagram system")
    n = system.rank
    if n < 2:
        raise WrongType("need rank at least 2 for a nonzero witness")
    left = _positions_mask(system, 0, n - 2)
    right = _positions_mask(system, 1, n - 1)
    return basis_x(system, left) - basis_x(system, right)


def witness_elements_typeB(system):
    """Radical elements a_i and their alternating companions for the
    doubled-bond linear type, position 0 being the short-branch generator.

    Returns (a_list, tau_list): a_i of index i = 1..floor((n-1)/2), and the
    signed binomial combinations whose leading term tracks the product
    a_i * ... * a_1.
    """
    comps = system.components
    if len(comps) != 1 or comps[0][0] != "B":
        raise WrongType("expected an irreducible doubled-bond system")
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
        coeffs = {}
        for j in range(0, 2 * i):
            mask = _positions_mask(system, j + 1, n - 2 * i + j)
            c = Fraction((-1) ** j * comb(2 * i - 1, j))
            coeffs[mask] = coeffs.get(mask, ZERO) + c
        t_list.append(DescentVector.from_map(system, coeffs, BASIS_X))
    return a_list, t_list
