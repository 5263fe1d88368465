"""Paper facts and reference routes that only the tests use.

The package computes each result one way. The helpers here are the second
routes the tests check it against (the structure tensor from the
signature histogram of the group tables, and from any histogram in three
passes over a dense array, the unit rows, support and Mackey counts of a
dense tensor, the twist of the longest element walked over
every generator, group-algebra coordinates, the
convolution of two group vectors, a product compared one pair at a time,
the multiplicative pairs of a morphism summed one segment of the support
at a time, a commuting square of morphisms, the quotient's refined
structure sets compared one pair of subsets at a time,
conjugacy decided one element, member or point at a time, w_K and
subgroup embeddings found one element at a time, span helpers, the row
spaces of a stack by elimination, multiplication matrices as products
with the identity rows, the positivity suite's seeded vectors, the
polynomial gcd that decides squarefreeness, character values one element
at a time), and the closed forms the paper proves for special elements
(the split characteristic polynomial and the regular-representation
eigenvalue counts of positive elements, the type-A radical witness, the
y-basis criterion for a central longest element). The error those closed
forms raise on an element that is not positive is defined here too.
"""

import random
from fractions import Fraction
from math import lcm

import numpy as np

from descent import algebra as alg
from descent import automorphisms as auto
from descent import cartan, linalg
from descent import morphisms as mo
from descent import verify
from descent.algebra import DescentVector
from descent.coxeter import (dense_tensor, iter_bits, signature_keys,
                             subset_sums, support_pairs,
                             tensor_from_signatures)
from descent.errors import (DescentError, InvalidSubset, NotInDescentAlgebra,
                            WrongType)
from descent.linalg import Span

# ---------------------------------------------------------------------------
# the structure tensor from the group tables, and the twist of w0


def tensor_by_table_histogram(system):
    """Reference structure tensor: the signature of every element read
    off the ``rasc``, ``lasc`` and ``csany`` tables at once and counted
    with one ``np.unique``, then the production passes from the histogram
    to the support and the dense tensor."""
    keys = signature_keys(system.rank, system.rasc, system.lasc,
                          system.csany)
    return dense_tensor(system.rank, tensor_from_signatures(
        system.rank, *np.unique(keys, return_counts=True)))


def check_tensor(T, matrix, order, type_label):
    """Reference check of a dense tensor: raise AssertionError unless T
    has the unit rows, the support and the Mackey counts of the
    structure tensor of the group of order `order` with Coxeter matrix
    `matrix`."""
    full = 1 << len(matrix)
    S = full - 1
    eye = np.eye(full, dtype=T.dtype)
    if not (np.array_equal(T[S], eye) and np.array_equal(T[:, S], eye)):
        raise AssertionError(
            "structure tensor of %s: T[S, J, K] or T[J, S, K] is not "
            "the identity" % type_label)
    masks = np.arange(full)
    outside = (masks[None, :] & ~masks[:, None]) != 0   # [J, K]
    if T.any(axis=0)[outside].any():
        raise AssertionError(
            "structure tensor of %s: T[I, J, K] is nonzero for some K "
            "not inside J" % type_label)
    # |W : W_K| = |X_K|
    index = order // np.array(cartan.parabolic_orders(matrix),
                              dtype=np.int64)
    if not np.array_equal(T @ index, np.outer(index, index)):
        raise AssertionError(
            "structure tensor of %s fails the Mackey count "
            "|X_I| |X_J| = sum_K T[I, J, K] |X_K|" % type_label)


def tensor_from_signatures_three_pass(n, sigs, mult):
    """Reference route from the signature histogram to T, in three
    vectorized passes:

    1. H[I, D, b] sums the counts of the signatures with I a subset
       of a, image D = (d^{-1} I d) cap S and right ascents b, filled
       one left-ascent mask a at a time;
    2. n in-place steps of a superset sum over the last axis give
       G[I, D, J] = sum of H[I, D, b] over b containing J;
    3. T[I, J, D cap J] += G[I, D, J], one I row at a time, each
       row of T written over the row of G it came from.
    """
    full = 1 << n
    width = n.bit_length()
    # sorted keys group the signatures by a, the top field
    amask = sigs >> (n * width + n)
    bmask = sigs >> (n * width) & (full - 1)
    masks = np.arange(full)
    # every np.add.at below takes one flat index, its fast path
    G = np.zeros((full, full, full), dtype=np.int64)
    starts = np.flatnonzero(np.diff(amask, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(sigs))):
        a = int(amask[lo])
        subs = masks[(masks & ~a) == 0]
        D = np.zeros((hi - lo, len(subs)), dtype=np.intp)
        for s in iter_bits(a):
            code = sigs[lo:hi] >> (s * width) & ((1 << width) - 1)
            D |= np.where(subs >> s & 1, ((1 << code) >> 1)[:, None], 0)
        at = (subs * full + D) * full + bmask[lo:hi, None]
        np.add.at(G.reshape(-1), at.ravel(),
                  np.repeat(mult[lo:hi], len(subs)))

    subset_sums(G, n, supersets=True)
    # [D, J] -> J full + (D cap J), a flat index into one row of T
    meet = (masks * full + (masks[:, None] & masks)).ravel()
    for i in range(full):
        row = np.zeros(full * full, dtype=np.int64)
        np.add.at(row, meet, G[i].reshape(-1))
        G[i] = row.reshape(full, full)
    return G


def w0_twist_walk(system):
    """Reference twist of the longest element: w <- w s on the signed
    root permutation, over every generator, while some simple root has
    w(alpha_s) > 0, then w0(alpha_t) = -alpha_{sigma_0(t)}."""
    spos, _sperm, gidx, gsgn, root_to_gen, _ = system._root_action()
    w = np.arange(1, system.nroots + 1, dtype=np.int16)
    while True:
        up = np.flatnonzero(w[spos] > 0)
        if not up.size:
            break
        s = up[0]
        w = gsgn[s] * w[gidx[s]]
    return tuple(int(t) for t in root_to_gen[-w[spos] - 1])


# ---------------------------------------------------------------------------
# polynomials over Q, coefficient lists with index = degree: the gcd route
# to squarefreeness that the positivity suite's root count is checked
# against


def poly_trim(coeffs):
    c = linalg.as_fractions(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(p):
    q = poly_trim(p)
    return len(q) - 1 if q else -1


def poly_monic(p):
    q = list(poly_trim(p))
    if not q:
        return ()
    lead = q[-1]
    return tuple(x / lead for x in q)


def poly_divmod(p, q):
    a = list(poly_trim(p))
    b = poly_trim(q)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        quot[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_gcd(p, q):
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def poly_derivative(p):
    q = poly_trim(p)
    return poly_trim([i * q[i] for i in range(1, len(q))])


def poly_is_squarefree(p):
    q = poly_trim(p)
    if poly_degree(q) <= 1:
        return True
    return poly_degree(poly_gcd(q, poly_derivative(q))) == 0


def poly_mul(p, q):
    a, b = poly_trim(p), poly_trim(q)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_from_roots(roots):
    """Monic polynomial with the given roots, one factor per root."""
    out = (Fraction(1),)
    for r in roots:
        out = poly_mul(out, (-Fraction(r), Fraction(1)))
    return out


# ---------------------------------------------------------------------------
# characters


def tau_values(vector):
    """All one-dimensional character values of the element, entry k at
    shape class k."""
    (nums,), (den,) = alg.character_values([vector])
    return tuple(Fraction(int(v), den) for v in nums)


# ---------------------------------------------------------------------------
# spans


def span_basis(span):
    """The reduced row echelon basis, pivots normalized to 1."""
    return [tuple(Fraction(int(v), int(row[p])) for v in row)
            for row, p in zip(span.rows, span.pivots)]


def span_canonical(span):
    """Canonical form of the row space; equal iff the spaces are equal."""
    return tuple(span_basis(span))


def radical_vectors(system):
    """Solomon's radical basis as DescentVectors, in its row order."""
    return [DescentVector.from_ints(system, row)
            for row in alg.radical_basis(system).tolist()]


def positivity_vectors(system, seed):
    """The positivity suite's 100 seeded elements of the system, then
    their 100 squares: the stack that its ideal checks read."""
    rng = random.Random("positivity:%d:%s" % (seed, system.type_label))
    elements = [verify._random_positive(system, rng) for _ in range(100)]
    return elements + [alg.multiply(a, a) for a in elements]


def multiplication_matrices(vectors):
    """(left, right): the matrices of x -> a x and of x -> x a of each
    vector a, times its denominator, as the products of its row with the
    identity rows on either side."""
    system = vectors[0].system
    size = 1 << system.rank
    rows, eye = alg.x_matrix(vectors, size), np.eye(size, dtype=np.int64)
    return (alg.products(system, rows, eye),
            alg.products(system, eye, rows).swapaxes(0, 1))


def eliminated_spans(matrices):
    """The row space of each matrix of a stack, by elimination."""
    return [Span._canonical(matrices.shape[-1], *linalg.eliminate(m))
            for m in matrices]


def span_copy(span):
    out = Span(span.width)
    out.rows = span.rows.copy()
    out.pivots = span.pivots[:]
    return out


def span_kernel(span):
    """Integer basis of the right kernel, one primitive row per free
    column, with a positive entry at that column."""
    pivots = set(span.pivots)
    free = [j for j in range(span.width) if j not in pivots]
    d = [int(span.rows[i, p]) for i, p in enumerate(span.pivots)]
    den = lcm(*d)
    out = np.zeros((len(free), span.width), dtype=object)
    for k, f in enumerate(free):
        out[k, f] = den
        for i, p in enumerate(span.pivots):
            out[k, p] = -int(span.rows[i, f]) * (den // d[i])
    out = out // np.gcd.reduce(out, axis=1)[:, None]
    return out.astype(linalg.exact_dtype(linalg.absmax(out)))


def span_sum(a, b):
    if a.width != b.width:
        raise ValueError("width mismatch")
    out = span_copy(a)
    out.add(b.rows)
    return out


# ---------------------------------------------------------------------------
# conjugacy of elements and of generator subsets, one element or member
# at a time


def element_classes_search(system):
    """(class id per element, smallest index per class, sizes), each class
    found by a graph search over w -> s w s from its least index."""
    conj = system.conj_tables()
    cid = np.full(system.order, -1, dtype=np.int32)
    reps, sizes = [], []
    for w in range(system.order):
        if cid[w] >= 0:
            continue
        c = len(reps)
        stack = [w]
        cid[w] = c
        members = 0
        while stack:
            u = stack.pop()
            members += 1
            for s in range(system.rank):
                v = int(conj[u, s])
                if cid[v] < 0:
                    cid[v] = c
                    stack.append(v)
        reps.append(w)
        sizes.append(members)
    return cid, reps, sizes


def theta_by_conjugation_walk(system):
    """Coset-character table with every class representative conjugated by
    every element, one length level at a time: value[c][I] counts the u
    with supp(u^-1 r_c u) inside I, over |W_I|."""
    size = 1 << system.rank
    conj = system.conj_tables()
    parent, lastgen = system.parent, system.lastgen
    _cls, reps, _sizes = system.element_classes()
    starts = np.searchsorted(system.length, np.arange(system.nroots + 2))
    cnts = np.zeros((len(reps), size), dtype=np.int64)
    for c, rep in enumerate(reps):
        row = np.empty(system.order, dtype=np.int32)
        row[0] = rep
        for lo, hi in zip(starts[1:-1], starts[2:]):
            row[lo:hi] = conj[row[parent[lo:hi]], lastgen[lo:hi]]
        cnts[c] = np.bincount(system.supp[row], minlength=size)
    subset_sums(cnts, system.rank)
    par_orders = [len(system.parabolic_indices(m)) for m in range(size)]
    vals, rem = np.divmod(cnts, par_orders)
    assert not rem.any()
    return tuple(tuple(row) for row in vals.tolist())


def shape_order_leq(system, a, b):
    """True when shape a is conjugate to a subset of shape b: some member
    of a lies inside some member of b."""
    shapes = system.shapes()
    return any(jm & km == jm for jm in shapes[a].members
               for km in shapes[b].members)


def saturated_family_by_members(vector, equivariant=False):
    """Downward closure of the support, mask by mask: plainly, or through
    ``shape_order_leq``."""
    system = vector.system
    supp = [m for m, c in enumerate(vector.x_ints()[0]) if c != 0]
    sid = system.shape_id_of_mask
    if equivariant:
        return frozenset(
            i for i in range(1 << system.rank)
            if any(shape_order_leq(system, sid(i), sid(j)) for j in supp))
    return frozenset(i for i in range(1 << system.rank)
                     if any(i & ~j == 0 for j in supp))


def conjugate_masks_all(system, kmask):
    """w K w^{-1} for every w, as a mask, or -1 whenever some generator of
    K leaves the generator set."""
    positions = mo.mask_positions(kmask)
    if not positions:
        return np.zeros(system.order, dtype=np.int64)
    rows = system.csany[system.inv][:, positions].astype(np.int64)
    valid = (rows >= 0).all(axis=1)
    return np.where(valid,
                    np.left_shift(1, np.maximum(rows, 0)).sum(axis=1), -1)


def is_self_opposed_by_conjugation(system, kmask):
    """Every element sends the subset outside S or onto itself."""
    img = conjugate_masks_all(system, kmask)
    return bool(((img < 0) | (img == kmask)).all())


def conjugators_by_conjugation(system, kmask, kpmask):
    """The d with K among its left ascents, K' among its right ascents and
    d K' d^{-1} = K, found by conjugating K' by every element; for K' = K
    these are the members of the normalizer complement of W_K."""
    rasc = system.rasc
    hit = ((rasc & kpmask) == kpmask) & ((rasc[system.inv] & kmask) == kmask)
    hit &= conjugate_masks_all(system, kpmask) == kmask
    return np.flatnonzero(hit)


# ---------------------------------------------------------------------------
# group elements one at a time


def longest_in_parabolic_walk(system, mask):
    """w_K by ascent: multiply by the first generator of K that is still a
    right ascent until none is."""
    w = 0
    while True:
        av = int(system.rasc[w]) & mask
        if not av:
            return w
        w = int(system.rmul[w, (av & -av).bit_length() - 1])


def homomorphism_images_by_words(source, target, gen_words):
    """Image in ``target`` of every element of ``source`` under s ->
    the target element with word gen_words[s], built element by element
    along the source's parent links."""
    images = np.empty(source.order, dtype=np.int64)
    images[0] = 0
    for w in range(1, source.order):
        u = int(images[int(source.parent[w])])
        for s in gen_words[int(source.lastgen[w])]:
            u = int(target.rmul[u, s])
        images[w] = u
    return images


def fork_images_by_words(bn, dn):
    """The fork system inside the doubled-bond group: fork-twin to
    t*s1*t, the chain to itself."""
    return homomorphism_images_by_words(
        dn, bn, [(0, 1, 0)] + [(i,) for i in range(1, dn.rank)])


def quotient_images_by_words(context):
    """The quotient system inside the big group, one product per element
    with the image of its last generator."""
    system = context.system
    return homomorphism_images_by_words(
        context.quotient, system,
        [system.word(g) for g in context.generator_indices])


# ---------------------------------------------------------------------------
# automorphism orbits, one point at a time


def apply_mask(sigma, mask):
    out = 0
    for b in range(len(sigma.permutation)):
        if mask >> b & 1:
            out |= 1 << sigma.permutation[b]
    return out


def perm_order_walk(perm):
    n = len(perm)
    seen = [False] * n
    order = 1
    for i in range(n):
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln:
            order = lcm(order, ln)
    return order


def shape_image(system, sigma, shape_id):
    """Image of a shape under the automorphism, asserting that every
    member lands in the same shape."""
    images = {system.shape_id_of_mask(apply_mask(sigma, m))
              for m in system.shapes()[shape_id].members}
    assert len(images) == 1, "automorphism does not act on shape classes"
    return images.pop()


def _orbits_walk(count, image):
    seen = [False] * count
    orbits = []
    for first in range(count):
        orbit, t = [], first
        while not seen[t]:
            seen[t] = True
            orbit.append(t)
            t = image(t)
        if orbit:
            orbits.append(tuple(orbit))
    return orbits


def shape_orbits_walk(system, sigma):
    return _orbits_walk(len(system.shapes()),
                        lambda t: shape_image(system, sigma, t))


def mask_orbits_walk(system, sigma):
    return [tuple(sorted(orbit)) for orbit in _orbits_walk(
        1 << system.rank, lambda m: apply_mask(sigma, m))]


# ---------------------------------------------------------------------------
# group-algebra coordinates


def group_ints(vector):
    """Group-algebra coordinates as (integer array, denominator).

    The coset sum over mask I collects exactly the w whose ascent mask
    contains I, so the group coordinate at w is the y-coordinate at the
    ascent mask of w.
    """
    rows, dens = alg._y_rows([vector])
    return rows[0, vector.system.rasc], dens[0]


def group_vector(vector):
    """Expand to coordinates on the group elements themselves."""
    nums, den = group_ints(vector)
    return [Fraction(v, den) for v in nums.tolist()]


def vector_from_group(system, gcoeffs, tag=alg.BASIS_X):
    """Fold group-algebra coordinates back onto the descent basis; the
    coordinates must be constant on each equal-ascent-set class."""
    nums, den = linalg.scaled_integers(gcoeffs)
    return fold_group(
        system, linalg.integer_rows([nums], len(nums)), [den], tag)[0]


def fold_group(system, nums, dens, tag):
    """The descent vectors with group coordinates nums[r] / dens[r], one
    per row of the integer array nums, after checking every row constant
    on each equal-ascent-set class; the first entry off its class's
    value, in row-major order, raises."""
    rasc = system.rasc
    masks, first = np.unique(rasc, return_index=True)
    y = np.zeros((len(nums), 1 << system.rank), dtype=nums.dtype)
    y[:, masks] = nums[:, first]
    off = np.argwhere(y[:, rasc] != nums)
    if off.size:
        raise NotInDescentAlgebra(
            "group vector is not constant on the descent class of "
            "mask %d" % int(rasc[off[0, 1]]))
    return [DescentVector.from_ints(system, row, den, alg.BASIS_Y).in_basis(
        tag) for row, den in zip(y.tolist(), dens)]


def convolve(system, na, nb):
    """Product of two integer group-algebra vectors.

    Every product of a support element of the sparser factor with every
    element of the other is added in with one ``np.add.at`` scatter per
    block of at most ``_SCATTER_CELLS`` products. A block of left factors
    u lands at the rows ``multiplication_table(u)``; a block of right
    factors v at the inverses of the rows at v^-1, read at u^-1, since
    u v = (v^-1 u^-1)^-1. In int64 when the coefficient bound allows and
    on Python integers beyond it.
    """
    order, inv = system.order, system.inv
    amax, bmax = linalg.absmax(na), linalg.absmax(nb)
    dtype = linalg.exact_dtype(max(amax * bmax * order, amax, bmax))
    na, nb = na.astype(dtype), nb.astype(dtype)
    out = np.zeros(order, dtype=dtype)
    left_sparser = np.count_nonzero(na) <= np.count_nonzero(nb)
    sparse, dense = (na, nb) if left_sparser else (nb, na)
    support = np.flatnonzero(sparse)
    block = max(1, alg._SCATTER_CELLS // order)
    for first in range(0, len(support), block):
        blk = support[first:first + block]
        if left_sparser:
            at = system.multiplication_table(blk)
        else:
            at = inv[system.multiplication_table(inv[blk])[:, inv]]
        np.add.at(out, at, np.multiply.outer(sparse[blk], dense))
    return out


# ---------------------------------------------------------------------------
# positive elements


class NotPositive(DescentError):
    """Element has a negative coordinate where nonnegativity is required."""


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
    values = tau_values(vector)
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
                if all(shape_order_leq(system, s, t) for t in seen)]
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
    values = tau_values(vector)
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
    return all(v != 0 for v in tau_values(vector))


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
            out[apply_mask(sigma, mask)] = c
    return DescentVector.from_ints(system, out, vector.den, vector.tag)


# ---------------------------------------------------------------------------
# morphisms


def apply_morphism(morphism, vector):
    """The image of a vector of the domain, in the codomain's x-basis."""
    if vector.system is not morphism.domain:
        raise InvalidSubset("vector does not live in the domain")
    nums, den = vector.x_ints()
    row = linalg.integer_rows([nums], len(morphism.columns))
    return DescentVector.from_ints(
        morphism.codomain, linalg.matmul(row, morphism.columns)[0].tolist(),
        den, alg.BASIS_X)


def int_group_vector(vector):
    """Integer group-algebra coordinates of an element whose group
    coordinates are integers."""
    nums, den = group_ints(vector)
    if den != 1:
        raise AssertionError("expected integral group vector")
    return nums


def iota_group_vector(system, kmask, codomain_vector):
    """Embed a parabolic-algebra element as an integer group-algebra
    vector.

    The parabolic's coset sums become sums over the subgroup's elements
    inside the big group: the coordinate at a member is the y-coordinate
    at its ascent mask within the subset.
    """
    positions = mo.mask_positions(kmask)
    y = codomain_vector.in_basis(alg.BASIS_Y)
    if y.den != 1:
        raise AssertionError("expected integral coefficients")
    nums = linalg.integer_rows([y.nums], len(y.nums))[0]
    # the codomain mask of each subset of K
    local = np.zeros(1 << system.rank, dtype=np.intp)
    local[mo.expand_masks(positions)] = np.arange(len(nums))
    members = system.parabolic_indices(kmask)
    out = np.zeros(system.order, dtype=nums.dtype)
    out[members] = nums[local[system.rasc[members] & kmask]]
    return out


def is_multiplicative_pair(morphism, u, v):
    """The morphism sends u * v to the product of the images, compared by
    two single products."""
    return (apply_morphism(morphism, alg.multiply(u, v))
            == alg.multiply(apply_morphism(morphism, u),
                            apply_morphism(morphism, v)))


def multiplicative_pairs_by_segments(morphism):
    """``AlgebraMorphism.multiplicative_pairs`` over the support: the
    image of x_I * x_J sums T[I, J, K] columns[K] over K inside J, so with
    the support pairs ordered by J it is one product of the support
    tensor's J segment with the columns at its K per J, compared against
    every product of two columns."""
    domain = morphism.domain
    size = 1 << domain.rank
    Tc, tmax = alg._tensor_support(domain)
    Tc = Tc.astype(linalg.exact_dtype(
        tmax * (linalg.absmax(morphism.columns) + 1) * size), copy=False)
    J, K, _starts = support_pairs(domain.rank)
    by_j = np.argsort(J, kind="stable")
    bounds = np.searchsorted(J[by_j], np.arange(size + 1))
    Tc, K = Tc[:, by_j], K[by_j]
    cols = morphism.columns.astype(Tc.dtype, copy=False)
    images = np.empty((size, size, cols.shape[1]), dtype=Tc.dtype)
    for j in range(size):
        seg = slice(bounds[j], bounds[j + 1])
        images[:, j] = Tc[:, seg] @ cols[K[seg]]
    return (images == alg.products(morphism.codomain, morphism.columns,
                                   morphism.columns)).all(axis=2)


def commuting_square_check(system, K, L):
    """Quotient-then-restrict equals restrict-then-quotient."""
    kmask = alg._as_mask(system, K)
    lmask = alg._as_mask(system, L)
    if kmask & ~lmask:
        raise InvalidSubset("need K inside L")
    ctx = mo.build_context(system, kmask)
    psi_top = mo.psi_K(ctx)
    res_left = mo.res_K(system, lmask)
    wl = res_left.codomain
    # positions of K inside the parabolic system
    k_in_l = mo.project_mask(kmask, mo.mask_positions(lmask))
    psi_bottom = mo.psi_K(mo.build_context(wl, k_in_l))
    # restriction inside the quotient system to the image of L
    res_right = mo.res_K(ctx.quotient, ctx.quotient_mask(lmask))
    left = mo.compose(psi_bottom, res_left)
    right = mo.compose(res_right, psi_top)
    return right.equal_matrix(left)


def goetz1_pair_check(context, imask, jmask):
    """Set-level equality of the refining double-coset pieces, for one pair
    of subsets containing K: the quotient's pieces, pushed through the
    embedding, must coincide exactly with the big group's pieces.

    Each structure set is split by the piece subset of its elements. The
    (element, piece subset) pairs of the big group's members of the
    quotient group must be the images of the quotient's pairs, and every
    other element of the big set must lie in a piece whose subset misses
    part of K.
    """
    system, kmask = context.system, context.kmask
    q = context.quotient
    qI = context.quotient_mask(imask)
    qJ = context.quotient_mask(jmask)
    big = system.structure_set(imask, jmask)
    small = q.structure_set(qI, qJ)
    big_l = system._refine_masks(big, imask, jmask)
    small_l = (kmask | mo.expand_masks(context.outer_positions))[
        q._refine_masks(small, qI, qJ)]
    member = np.isin(big, context.images)
    if np.any((big_l[~member] & kmask) == kmask):
        return False
    size = 1 << system.rank
    return np.array_equal(np.sort(big[member] * size + big_l[member]),
                          np.sort(context.images[small] * size + small_l))


def goetz1_first_failure(context):
    """The first pair I, J of subsets containing K, I outer and J inner
    with masks ascending, that fails ``goetz1_pair_check``, or None."""
    kmask = context.kmask
    above = [m for m in range(1 << context.system.rank)
             if m & kmask == kmask]
    return next(((i, j) for i in above for j in above
                 if not goetz1_pair_check(context, i, j)), None)
