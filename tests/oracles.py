"""Paper facts and reference routes that only the tests use.

The package computes each result one way. The helpers here are the second
routes the tests check it against (group-algebra coordinates, a product
compared one pair at a time, a commuting square of morphisms), and the
closed forms the paper proves for special elements (the split
characteristic polynomial and the regular-representation eigenvalue
counts of positive elements, the type-A radical witness, the y-basis
criterion for a central longest element).
"""

from fractions import Fraction

import numpy as np

from descent import algebra as alg
from descent import automorphisms as auto
from descent import linalg
from descent import morphisms as mo
from descent.algebra import DescentVector
from descent.errors import InvalidSubset, NotPositive, WrongType

# ---------------------------------------------------------------------------
# polynomials over Q, coefficient lists with index = degree


def poly_mul(p, q):
    a, b = linalg.poly_trim(p), linalg.poly_trim(q)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return linalg.poly_trim(out)


def poly_from_roots(roots):
    """Monic polynomial with the given roots, one factor per root."""
    out = (Fraction(1),)
    for r in roots:
        out = poly_mul(out, (-Fraction(r), Fraction(1)))
    return out


# ---------------------------------------------------------------------------
# group-algebra coordinates


def group_vector(vector):
    """Expand to coordinates on the group elements themselves."""
    nums, den = alg._group_ints(vector)
    return [Fraction(v, den) for v in nums.tolist()]


def vector_from_group(system, gcoeffs, tag=alg.BASIS_X):
    """Fold group-algebra coordinates back onto the descent basis; the
    coordinates must be constant on each equal-ascent-set class."""
    nums, den = linalg.scaled_integers(gcoeffs)
    return alg._fold_group(
        system, linalg.integer_rows([nums], len(nums))[0], den, tag)


# ---------------------------------------------------------------------------
# positive elements


def is_positive(vector):
    """Componentwise nonnegative on the x-basis."""
    return all(c >= 0 for c in vector.x_ints()[0])


def characteristic_polynomial_positive(vector):
    """Split characteristic polynomial of left multiplication: for a
    positive element, the product over all generator subsets J of
    (T - tau_{shape(J)}(a))."""
    if not is_positive(vector):
        raise NotPositive("characteristic factorization needs nonnegative "
                          "x-coordinates")
    system = vector.system
    values = alg.tau(vector).values
    return poly_from_roots(values[system.shape_id_of_mask(mask)]
                           for mask in range(1 << system.rank))


def class_shape_ids(system):
    """(class id per element, shape id per element conjugacy class, class
    sizes): the shape of a class is the least shape among the supports of
    its members."""
    cid, reps, sizes = system.element_classes()
    m2s = np.asarray(system.shape_classes()[1], dtype=np.int32)
    supp_shape = m2s[system.supp.astype(np.intp)]
    class_shapes = np.empty(len(reps), dtype=np.int32)
    for c in range(len(reps)):
        seen = set(int(v) for v in np.unique(supp_shape[cid == c]))
        best = [s for s in seen
                if all(system.shape_order_leq(s, t) for t in seen)]
        if len(best) != 1:
            raise AssertionError(
                "no unique minimal support shape in class %d" % c)
        class_shapes[c] = best[0]
    return cid, class_shapes, sizes


def eigenspace_dim_on_regular(vector, value):
    """Multiplicity of an eigenvalue of a positive element on the group
    algebra: the number of group elements whose minimal-parabolic shape
    gives character value ``value``."""
    if not is_positive(vector):
        raise NotPositive(
            "regular-representation eigenvalue count needs nonnegative "
            "x-coordinates")
    value = Fraction(value)
    values = alg.tau(vector).values
    _cls, cshapes, sizes = class_shape_ids(vector.system)
    return sum(size for c, size in enumerate(sizes)
               if values[int(cshapes[c])] == value)


# ---------------------------------------------------------------------------
# named elements and criteria


def witness_element_typeA(system):
    """Radical element whose powers realize the maximal Loewy length in
    the linear type: the difference of the two maximal proper interval
    subsets."""
    comps = system.components
    if len(comps) != 1 or comps[0][0] != "A":
        raise WrongType("expected an irreducible linear-diagram system")
    n = system.rank
    if n < 2:
        raise WrongType("need rank at least 2 for a nonzero witness")
    return (alg.basis_x(system, alg._positions_mask(system, 0, n - 2))
            - alg.basis_x(system, alg._positions_mask(system, 1, n - 1)))


def is_invertible(vector):
    """A unit precisely when no one-dimensional character vanishes on it."""
    return all(v != 0 for v in alg.tau(vector).values)


def w0_centrality_criterion(system):
    """Centrality of the longest element, read off the y-basis: it is
    central exactly when every equal-descent-class sum is invertible.
    Returns the verdict and the masks whose sums are not."""
    bad = [mask for mask in range(1 << system.rank)
           if not is_invertible(alg.basis_y(system, mask))]
    return not bad, bad


def apply_automorphism(sigma, vector):
    """Permute the element by the automorphism, in its own basis: subset
    permutation commutes with all three coordinate transforms."""
    system = vector.system
    auto._check_sigma(system, sigma)
    out = [0] * len(vector.nums)
    for mask, c in enumerate(vector.nums):
        if c != 0:
            out[sigma.apply_mask(mask)] = c
    return DescentVector.from_ints(system, out, vector.den, vector.tag)


# ---------------------------------------------------------------------------
# morphisms


def is_multiplicative_pair(morphism, u, v):
    """The morphism sends u * v to the product of the images, compared by
    two single products."""
    return (morphism.apply(alg.multiply(u, v))
            == alg.multiply(morphism.apply(u), morphism.apply(v)))


def commuting_square_check(system, K, L):
    """Quotient-then-restrict equals restrict-then-quotient."""
    kmask = alg._as_mask(system, K)
    lmask = alg._as_mask(system, L)
    if kmask & ~lmask:
        raise InvalidSubset("need K inside L")
    ctx = mo.build_context(system, kmask)
    psi_top = mo.psi_K(system, kmask, ctx)
    res_left = mo.res_K(system, lmask)
    wl = res_left.codomain
    # positions of K inside the parabolic system
    k_in_l = mo.project_mask(kmask, res_left.metadata["positions"])
    psi_bottom = mo.psi_K(wl, k_in_l, mo.build_context(wl, k_in_l))
    # restriction inside the quotient system to the image of L
    res_right = mo.res_K(ctx.quotient, ctx.quotient_mask(lmask))
    left = mo.compose(psi_bottom, res_left)
    right = mo.compose(res_right, psi_top)
    return right.equal_matrix(
        left, codomain_perm=mo.align_positions(right.codomain, left.codomain))
