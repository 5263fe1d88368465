"""Morphisms between descent algebras.

Three constructions: restriction onto a standard parabolic subalgebra,
the doubled-bond-to-fork restriction between the two related classical
families, and the quotient morphism attached to a self-opposed generator
subset. Codomains are always standalone systems matched to the subgroup
by an explicit generator correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import linalg
from .coxeter import (CoxeterSystem, build_system, expand_masks, iter_bits,
                      memoized, popcount)
from .errors import (
    InvalidSubset,
    NotSelfOpposed,
    RankTooSmall,
)
from .linalg import Span


# ---------------------------------------------------------------------------
# mask bookkeeping between a system and a sub-collection of its generators


def mask_positions(mask):
    return tuple(iter_bits(mask))


def project_mask(mask, positions):
    """Rewrite a mask over `positions` into the codomain's own bits."""
    out = 0
    for i, p in enumerate(positions):
        if mask & (1 << p):
            out |= 1 << i
    return out


class AlgebraMorphism:
    """Linear map between two descent algebras, stored on the x-bases.

    ``columns`` is a read-only integer array: row I holds the
    x-coordinates of the image of x_I, in int64 when its entries allow
    and on Python integers otherwise. ``kmask`` is the subset of a
    restriction or a quotient morphism, None for any other map.
    """

    __slots__ = ("domain", "codomain", "columns", "kmask")

    def __init__(self, domain, codomain, columns, kmask=None):
        self.domain = domain
        self.codomain = codomain
        self.columns = linalg.integer_rows(columns, 1 << codomain.rank)
        self.columns.flags.writeable = False
        self.kmask = kmask

    def image_span(self):
        return Span(1 << self.codomain.rank, self.columns)

    def rank(self):
        return self.image_span().dim

    def multiplicative_pairs(self):
        """Boolean matrix whose entry [I, J] says whether the map sends
        x_I * x_J to the product of the images of x_I and x_J: the image
        of every basis product, the structure tensor times the columns,
        against every product of two columns."""
        images = linalg.matmul(self.domain.structure_tensor(), self.columns)
        return (images == alg.products(self.codomain, self.columns,
                                       self.columns)).all(axis=2)

    def equal_matrix(self, other):
        """Columnwise equality; False unless both codomains have the same
        generator labels in the same order and the same Coxeter matrix."""
        mine, theirs = self.codomain, other.codomain
        return (mine.labels == theirs.labels
                and mine.matrix == theirs.matrix
                and np.array_equal(self.columns, other.columns))


def compose(outer, inner):
    """outer after inner; inner's codomain must be outer's domain."""
    if inner.codomain is not outer.domain:
        raise InvalidSubset("the inner codomain is not the outer domain")
    return AlgebraMorphism(inner.domain, outer.codomain,
                           linalg.matmul(inner.columns, outer.columns))


# ---------------------------------------------------------------------------
# parabolic codomains


def parabolic_system(system, kmask):
    """Standalone system isomorphic to the standard parabolic subgroup."""
    kmask = system.check_mask(kmask)
    if kmask == system.full_mask:
        # outside the memo, so no system holds a reference to itself
        return system
    return _proper_parabolic_system(system, kmask)


@memoized
def _proper_parabolic_system(system, kmask):
    positions = mask_positions(kmask)
    sub = [[system.matrix[p][q] for q in positions] for p in positions]
    labels = [system.labels[p] for p in positions]
    return build_system(matrix=sub, labels=labels)


def res_K(system, K):
    """Restriction morphism onto the parabolic subalgebra of the subset."""
    kmask = alg._as_mask(system, K)
    codomain = parabolic_system(system, kmask)
    T = system.structure_tensor()
    return AlgebraMorphism(system, codomain,
                           T[:, kmask, expand_masks(mask_positions(kmask))],
                           kmask)


# ---------------------------------------------------------------------------
# group-algebra cross-checks for the restriction


def factorization_check(morphism):
    """x_L = x_K * (embedded x_L-within-K) for every L in K, verified in
    the group algebra by one level walk of the codomain.

    x_K's group vector is X_K, the u with K among their ascents, and the
    embedded x_L-within-K is the v of W_K with L among their ascents in
    W_K. Walking the codomain's length levels over the right
    multiplications by K from each u gives the |X_K| x |W_K| products
    u v. Every identity holds exactly when these hit every element of W
    once (L empty) and each R(u v) cap K is the ascent set of v in W_K
    (L a singleton): W = X_K W_K with unique factorization.
    """
    system, codomain = morphism.domain, morphism.codomain
    kmask = morphism.kmask
    positions = list(mask_positions(kmask))
    us = np.flatnonzero(alg.coset_sum(system, kmask))
    if len(us) * codomain.order != system.order:
        return False
    uv = codomain._level_walk(us, system.rmul[:, positions])
    return bool((np.bincount(uv.ravel(), minlength=system.order) == 1).all()
                and ((system.rasc[uv] & kmask)
                     == expand_masks(positions)[codomain.rasc]).all())


def res_linear_check(morphism):
    """The descent-algebra half of the factorization identity: expanding
    the restriction's columns back upstairs must reproduce right
    multiplication by the subset's basis element, whose row J is
    x_J * x_K = T[J, K] (Solomon's Mackey formula)."""
    system, kmask = morphism.domain, morphism.kmask
    size = 1 << system.rank
    expanded = np.zeros((size, size), dtype=morphism.columns.dtype)
    expanded[:, expand_masks(mask_positions(kmask))] = morphism.columns
    return np.array_equal(expanded, system.structure_tensor()[:, kmask])


def bbht_a_check(morphism):
    """x_K * embedded(Res(x)) = x * x_K, for every basis element.

    Split into the coset-sum factorization (a genuine group-algebra
    computation) plus the linear comparison in the descent algebra.
    """
    if not factorization_check(morphism):
        return False
    return res_linear_check(morphism)


def _characters_factor(morphism, big_masks):
    """Each one-dimensional character of the codomain, evaluated after the
    morphism, equals the domain's character at the matching subset:
    codomain mask c matches domain mask big_masks[c]."""
    dom, cod = morphism.domain, morphism.codomain
    big_shapes = np.asarray(dom.shape_classes()[1])[big_masks]
    small = alg.tau_matrix(cod)[cod.shape_classes()[1]]
    return np.array_equal(alg.tau_matrix(dom)[big_shapes],
                          linalg.matmul(small, morphism.columns.T))


def res_tau_check(morphism):
    """Parabolic characters factor through the restriction: evaluating a
    character of the small algebra after restricting equals evaluating
    the matching character upstairs."""
    return _characters_factor(
        morphism, expand_masks(mask_positions(morphism.kmask)))


def res_conjugate_check(mk, mkp):
    """Restrictions onto conjugate subsets differ by relabeling only."""
    system = mk.domain
    kmask, kpmask = mk.kmask, mkp.kmask
    # X_{K,K',K'}: the d with K in L(d), K' in R(d) and d^{-1} K d = K'
    idx = system.structure_set(kmask, kpmask, kpmask)
    if len(idx) == 0 or popcount(kmask) != popcount(kpmask):
        raise InvalidSubset("subsets are not conjugate")
    d = int(idx[0])
    kpos = mask_positions(kmask)
    # d_* sends generator p of K' to generator t of K; as a map of the
    # codomain masks it is a permutation
    row = system.csany[int(system.inv[d])]
    images = [int(row[p]) for p in mask_positions(kpmask)]
    if any(t not in kpos for t in images):
        raise AssertionError("conjugator does not carry subsets over")
    dmap = expand_masks([kpos.index(t) for t in images])
    return np.array_equal(mk.columns[:, dmap], mkp.columns)


# ---------------------------------------------------------------------------
# surjectivity analysis


def wk_action_permutations(system, kmask):
    """Distinct permutations the complement group induces on the subset:
    its members are X_{K,K,K}, the distinguished double-coset
    representatives normalizing K. The identity is one, so the list is
    never empty."""
    idx = system.structure_set(kmask, kmask, kmask)
    positions = mask_positions(kmask)
    rows = system.csany[system.inv[idx]][:, list(positions)]
    uniq = np.unique(rows, axis=0)
    where = {p: i for i, p in enumerate(positions)}
    return sorted(tuple(where[int(t)] for t in row) for row in uniq)


def wk_acts_trivially(system, kmask):
    return wk_action_permutations(system, kmask) == [tuple(
        range(popcount(kmask)))]


def pi_K_injective(system, kmask):
    """Whether distinct parabolic shapes of the subset stay distinct."""
    big_masks = expand_masks(mask_positions(kmask))
    big = [system.shape_id_of_mask(int(big_masks[shape.canonical]))
           for shape in parabolic_system(system, kmask).shapes()]
    return len(set(big)) == len(big)


def points_fixes_check(morphism):
    """The image lies in the fixed points of the complement group."""
    cols = morphism.columns
    return all(np.array_equal(cols, cols[:, expand_masks(perm)])
               for perm in wk_action_permutations(morphism.domain,
                                                  morphism.kmask))


def decomposition_check(morphism):
    """The algebra splits as the restriction's kernel plus the parabolic
    basis element's left ideal, and the kernel is exactly that element's
    right annihilator."""
    system = morphism.domain
    size = 1 << system.rank
    # row I is x_I * x_K: its row space is the left ideal, and a
    # annihilates x_K from the left iff a is in its left kernel
    products = system.structure_tensor()[:, morphism.kmask]
    # two matrices have the same left kernel iff their columns span the
    # same space
    columns = Span(size, morphism.columns.T)
    if not columns.equals(Span(size, products.T)):
        return False
    # then the kernel has dimension size - rank(products), and kernel
    # plus ideal is direct exactly when the map is injective on the ideal
    return Span(morphism.columns.shape[1],
                linalg.matmul(products, morphism.columns)).dim == columns.dim


def surjectivity_report(morphism):
    """Surjectivity verdict, by morphism rank == 2^|K|, with the two
    necessary conditions: injectivity on shapes and a trivial complement
    action."""
    system, kmask = morphism.domain, morphism.kmask
    rank = morphism.rank()
    return {
        "K": kmask,
        "surjective": rank == 1 << popcount(kmask),
        "morphism_rank": rank,
        "pi_injective": pi_K_injective(system, kmask),
        "complement_acts_trivially": wk_acts_trivially(system, kmask),
    }


# ---------------------------------------------------------------------------
# the doubled-bond to fork restriction


def sigma_n_automorphism(dn):
    """The fork swap as a diagram automorphism of the fork system."""
    from . import automorphisms as auto
    perm = (1, 0) + tuple(range(2, dn.rank))
    s0 = auto.sigma0(dn)
    return auto.DiagramAutomorphism(permutation=perm, order=2,
                                    is_inner_by_w0=s0.permutation == perm)


def res_BD(bn):
    """Restriction from a doubled-bond algebra onto the fork subalgebra
    of its index-two reflection subgroup. The fork system is built from
    its label, fork twin first, and uses the cache only if the domain does;
    at rank 7 the domain was already admitted, so the fork system is too."""
    alg.require_standard(bn, "B")
    n = bn.rank
    dn = build_system(type="D%d" % n, allow_rank7=n == 7,
                      cache=bn.cache_enabled)
    size = 1 << n
    cols = np.zeros((size, size), dtype=np.int64)
    for imask in range(size):
        if imask & 1:
            # drop the short generator; the first chain generator brings
            # in the fork twin
            cols[imask, (imask & ~1) | (imask >> 1 & 1)] = 1
        else:
            cols[imask, imask] += 1
            cols[imask, (imask & ~2) | 1 if imask & 2 else imask] += 1
    return AlgebraMorphism(bn, dn, cols)


def fork_images_in_b(bn, dn):
    """Index of each fork-system element inside the doubled-bond group.

    Generator correspondence: fork-twin goes to t*s1*t, the chain goes to
    itself.
    """
    gens = [int(bn.rmul[bn.rmul[bn.rmul[0, 0], 1], 0])] + [
        int(bn.rmul[0, i]) for i in range(1, dn.rank)]
    images = dn.homomorphism_images(bn, gens)
    if len(np.unique(images)) != dn.order:
        raise AssertionError("fork subgroup embedding is not injective")
    return images


def res_bd_a_check(morphism):
    """(1 + t) * embedded(Res(x)) = x * (1 + t), in the group algebra."""
    bn, dn = morphism.domain, morphism.codomain
    images = fork_images_in_b(bn, dn)
    t_elt = int(bn.rmul[0, 0])
    rt = bn.right_translation(t_elt)
    lt = bn.left_translation(t_elt)
    for imask, row in enumerate(morphism.columns):
        xvec = alg.coset_sum(bn, imask).astype(np.int64)
        rhs = xvec + xvec[rt]
        # the image of x_I in the group algebra of the fork group
        dvec = np.zeros(dn.order, dtype=row.dtype)
        for cmask in np.flatnonzero(row):
            dvec += row[cmask] * alg.coset_sum(dn, int(cmask))
        emb = np.zeros(bn.order, dtype=dvec.dtype)
        emb[images] = dvec
        lhs = emb + emb[lt]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def res_bd_image_check(morphism):
    """The image equals the fixed subalgebra of the fork swap."""
    from . import automorphisms as auto
    dn = morphism.codomain
    fixed = auto.fixed_subalgebra(dn, sigma_n_automorphism(dn))
    return morphism.image_span().equals(fixed.span)


def res_bd_square_check(top):
    """Restricting then folding equals folding then restricting, one rank
    down on both sides."""
    bn, dn = top.domain, top.codomain
    n = bn.rank
    if n < 3:
        raise RankTooSmall("need rank at least 3 to drop a generator")
    # inside the doubled-bond group: forget the last chain generator
    res_b = res_K(bn, bn.full_mask & ~(1 << (n - 1)))
    # inside the fork group: same
    res_d = res_K(dn, dn.full_mask & ~(1 << (n - 1)))
    bottom = res_BD(res_b.codomain)
    return compose(res_d, top).equal_matrix(compose(bottom, res_b))


def res_d_image_check(dn):
    """Dropping the fork system's top chain generator has image exactly
    the fixed subalgebra of the one-rank-down fork swap."""
    from . import automorphisms as auto
    alg.require_standard(dn, "D")
    n = dn.rank
    if n < 3:
        raise RankTooSmall("need rank at least 3 to drop a generator")
    m = res_K(dn, dn.full_mask & ~(1 << (n - 1)))
    sub = m.codomain
    fixed = auto.fixed_subalgebra(sub, sigma_n_automorphism(sub))
    return m.image_span().equals(fixed.span)


def res_b_triangular_check(bn):
    """Dropping the top chain generator is surjective with positive
    diagonal, triangular for the (cardinality, then lexicographic with
    the doubled bond first) order."""
    alg.require_standard(bn, "B")
    n = bn.rank
    sub = bn.full_mask & ~(1 << (n - 1))
    morphism = res_K(bn, sub)
    positions = mask_positions(sub)

    def rank_key(cmask):
        return (popcount(cmask),
                tuple(-(1 if cmask & (1 << b) else 0)
                      for b in range(len(positions))))

    # the square block on the chain's own subsets, rows and columns in
    # that order, must be lower triangular with a positive diagonal
    order = sorted(range(1 << (n - 1)), key=rank_key)
    block = morphism.columns[expand_masks(positions)[order]][:, order]
    return bool((np.diag(block) > 0).all()) and np.array_equal(
        block, np.tril(block))


# ---------------------------------------------------------------------------
# self-opposed subsets and the quotient morphism


def is_self_opposed(system, K):
    """No conjugate of the subset other than itself sits inside S: its
    shape has one member."""
    kmask = alg._as_mask(system, K)
    return len(system.shapes()[system.shape_id_of_mask(kmask)].members) == 1


@dataclass(frozen=True, eq=False)
class SelfOpposedContext:
    """The quotient group data attached to one self-opposed subset: the
    quotient generators w_{K,s} as indices of the big group, the
    generator positions outside K they stand for, the quotient system
    and the index in the big group of each of its elements."""

    system: CoxeterSystem
    kmask: int
    generator_indices: tuple
    outer_positions: tuple
    quotient: CoxeterSystem
    images: np.ndarray

    def quotient_mask(self, imask):
        """The quotient-system subset matching a subset of S containing K."""
        return project_mask(imask, self.outer_positions)


def build_context(system, K):
    """Construct the quotient Coxeter system of a self-opposed subset.

    Generators are the longest-element quotients w_{K,s}; their pairwise
    product orders give a Coxeter matrix which is built as a standalone
    system, or is the system itself when K is empty, and proved
    isomorphic to the normalizer complement by element counting.
    """
    kmask = alg._as_mask(system, K)
    if not is_self_opposed(system, kmask):
        raise NotSelfOpposed(
            "subset mask %d has another conjugate inside the generator set"
            % kmask)
    outer = [p for p in range(system.rank) if not kmask & (1 << p)]
    wk = system.longest_in_parabolic(kmask)
    gens = []
    for p in outer:
        wks = system.mul(system.longest_in_parabolic(kmask | (1 << p)), wk)
        gens.append(int(wks))
    members = system.structure_set(kmask, kmask, kmask)
    if not np.isin(gens, members).all():
        raise AssertionError("quotient generator escapes the normalizer "
                             "complement")
    if any(system.order_of(g) != 2 for g in gens):
        raise AssertionError("quotient generator is not an involution")
    m = len(outer)
    mat = [[1] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            prod = system.mul(gens[i], gens[j])
            mat[i][j] = mat[j][i] = system.order_of(prod)
    labels = [system.labels[p] for p in outer]
    if (mat, labels) == (system.matrix, system.labels):
        # K is empty: the quotient is the system itself
        quotient = system
    else:
        quotient = build_system(matrix=mat, labels=labels)
    images = quotient.homomorphism_images(system, gens)
    # members is sorted and duplicate-free
    if not np.array_equal(np.sort(images), members):
        raise AssertionError(
            "measured quotient system does not match the normalizer "
            "complement")
    return SelfOpposedContext(system, kmask, tuple(gens), tuple(outer),
                              quotient, images)


def psi_K(context):
    """The quotient morphism: kill basis elements missing the subset,
    rename the rest through the quotient generators."""
    system, kmask = context.system, context.kmask
    big = kmask | expand_masks(context.outer_positions)
    cols = np.zeros((1 << system.rank, len(big)), dtype=np.int64)
    cols[big, np.arange(len(big))] = 1
    return AlgebraMorphism(system, context.quotient, cols, kmask)


def goetz1_set_check(context):
    """The first pair I, J of subsets containing K, I outer and J inner
    with masks ascending, whose refined structure sets differ from the
    quotient's pushed through the embedding, or None.

    Pair I, J passes when the quotient-group members of X_{I,J} are the
    images d of the e in X_{qI,qJ}, with (d^-1 I d) cap J equal to
    bb[(e^-1 qI e) cap qJ], bb = K | expand_masks(outer), and every other
    element of X_{I,J} has a piece missing part of K. Let hit(d) say I in
    L(d) and K in R(d), ref(d) = (d^-1 I d) cap S, ref'(e) = bb[ref_q(e)]
    and R'(e) = bb[R_q(e)]. As bb[qJ] = J, bb[m cap qJ] = bb[m] cap J and
    d is in X_{I,J} iff hit(d) and K <= J <= R(d), every J passes iff
    1. no non-member has hit(d) and K in ref(d) (else J = K fails);
    2. hit(d) is qI in L_q(e) for each e, images being injective (else
       J = K fails), and where it holds R(d) = R'(e): two sets holding K
       with the same subsets holding K are equal;
    3. there (ref(d) xor ref'(e)) cap R(d) = 0: the pieces agree on every
       J inside R(d) iff on R(d) itself.
    Only an I that fails 3 alone is swept over J.
    """
    system, kmask, q = context.system, context.kmask, context.quotient
    bb = kmask | expand_masks(context.outer_positions)
    member = np.zeros(system.order, dtype=bool)
    member[context.images] = True
    above = [m for m in range(1 << system.rank) if m & kmask == kmask]
    for imask in above:
        qI = context.quotient_mask(imask)
        big = system.structure_set(imask, kmask)
        small = q.structure_set(qI, 0)
        ref = np.full(system.order, -1, dtype=np.int64)  # -1 off X_{I,K}
        ref[big] = system._refine_masks(big, imask, system.full_mask)
        d = context.images[small]
        if (((ref[big] & kmask) == kmask) & ~member[big]).any() or (
                member[big].sum() != len(d) or (ref[d] < 0).any()):
            return imask, kmask
        rd, rq = system.rasc[d], bb[q.rasc[small]]
        x = (ref[d] ^ bb[q._refine_masks(small, qI, q.full_mask)]) & rd
        for jmask in above if (rd != rq).any() or x.any() else ():
            under = (rd & jmask) == jmask
            if ((under != ((rq & jmask) == jmask)).any()
                    or (x[under] & jmask).any()):
                return imask, jmask
    return None


def varpi_tau_check(context):
    """Character factorization through the quotient morphism."""
    morphism = psi_K(context)
    return _characters_factor(
        morphism, context.kmask | expand_masks(context.outer_positions))
