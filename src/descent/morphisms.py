"""Morphisms between descent algebras.

Three constructions: restriction onto a standard parabolic subalgebra,
the doubled-bond-to-fork restriction between the two related classical
families, and the quotient morphism attached to a self-opposed generator
subset. Codomains are always standalone systems matched to the subgroup
by an explicit generator correspondence.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from . import linalg
from .algebra import DescentVector
from .coxeter import build_system, iter_bits, popcount
from .errors import (
    InvalidSubset,
    NotSelfOpposed,
    RankTooSmall,
)
from .linalg import Span

RES_K = "RES_K"
RES_BD = "RES_BD"
PSI_K = "PSI_K"


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


def expand_mask(cmask, positions):
    out = 0
    for i, p in enumerate(positions):
        if cmask & (1 << i):
            out |= 1 << p
    return out


def expand_masks(positions):
    """expand_mask of every codomain mask, as an index array."""
    out = np.zeros(1 << len(positions), dtype=np.intp)
    for i, p in enumerate(positions):
        out[1 << i:2 << i] = out[:1 << i] | (1 << p)
    return out


def align_positions(sys_a, sys_b):
    """The label-preserving generator bijection between two systems.

    Returns a tuple perm with perm[i] = position in sys_b of sys_a's
    generator i; requires equal label sets and matching Coxeter matrices.
    """
    if sorted(sys_a.labels) != sorted(sys_b.labels):
        raise InvalidSubset("systems have different generator label sets")
    perm = tuple(sys_b.labels.index(lab) for lab in sys_a.labels)
    for i in range(sys_a.rank):
        for j in range(sys_a.rank):
            if sys_a.matrix[i][j] != sys_b.matrix[perm[i]][perm[j]]:
                raise InvalidSubset(
                    "label-aligned Coxeter matrices disagree")
    return perm


class AlgebraMorphism:
    """Linear map between two descent algebras, stored on the x-bases.

    ``columns`` is a read-only integer array: row I holds the
    x-coordinates of the image of x_I, in int64 when its entries allow
    and on Python integers otherwise.
    """

    __slots__ = ("domain", "codomain", "columns", "kind", "metadata")

    def __init__(self, domain, codomain, columns, kind, metadata=None):
        self.domain = domain
        self.codomain = codomain
        self.columns = linalg.integer_rows(columns, 1 << codomain.rank)
        self.columns.flags.writeable = False
        self.kind = kind
        self.metadata = dict(metadata or {})

    def apply(self, vector):
        if vector.system is not self.domain:
            raise InvalidSubset("vector does not live in the domain")
        nums, den = vector.x_ints()
        row = linalg.integer_rows([nums], len(self.columns))
        return DescentVector.from_ints(
            self.codomain, linalg.matmul(row, self.columns)[0].tolist(), den,
            alg.BASIS_X)

    def image_span(self):
        return Span(1 << self.codomain.rank, self.columns)

    def rank(self):
        return self.image_span().dim

    def is_multiplicative_pair(self, u, v):
        lhs = self.apply(alg.multiply(u, v))
        rhs = alg.multiply(self.apply(u), self.apply(v))
        return lhs == rhs

    def multiplicative_pairs(self):
        """Boolean matrix whose entry [I, J] says whether the map sends
        x_I * x_J to the product of the images of x_I and x_J: the image
        of every basis product against every product of two columns."""
        T = self.domain.structure_tensor()
        images = linalg.matmul(T, self.columns)
        return (images == alg.products(self.codomain, self.columns,
                                       self.columns)).all(axis=2)

    def maps_unit_to_unit(self):
        return self.apply(alg.unit(self.domain)) == alg.unit(self.codomain)

    def equal_matrix(self, other, codomain_perm=None):
        """Columnwise equality, optionally permuting codomain generators."""
        if self.columns.shape != other.columns.shape:
            return False
        theirs = other.columns
        if codomain_perm is not None:
            theirs = theirs[:, expand_masks(codomain_perm)]
        return np.array_equal(self.columns, theirs)


def compose(outer, inner):
    """outer after inner; inner's codomain is aligned to outer's domain
    by generator labels."""
    perm = align_positions(inner.codomain, outer.domain)
    # perm is a bijection, so the scatter moves every entry once
    cols = np.zeros_like(inner.columns)
    cols[:, expand_masks(perm)] = inner.columns
    return AlgebraMorphism(inner.domain, outer.codomain,
                           linalg.matmul(cols, outer.columns),
                           kind=outer.kind + "*" + inner.kind)


# ---------------------------------------------------------------------------
# parabolic codomains


def parabolic_system(system, kmask):
    """Standalone system isomorphic to the standard parabolic subgroup."""
    kmask = system.check_mask(kmask)
    if kmask == system.full_mask:
        return system
    ctx = alg._algebra_context(system)
    key = ("parabolic", kmask)
    got = ctx.get(key)
    if got is None:
        positions = mask_positions(kmask)
        sub = [[system.matrix[p][q] for q in positions] for p in positions]
        labels = [system.labels[p] for p in positions]
        got = build_system(matrix=sub, labels=labels)
        ctx[key] = got
    return got


def res_K(system, K):
    """Restriction morphism onto the parabolic subalgebra of the subset."""
    kmask = alg._as_mask(system, K)
    codomain = parabolic_system(system, kmask)
    positions = mask_positions(kmask)
    T = system.structure_tensor()
    return AlgebraMorphism(system, codomain,
                           T[:, kmask, expand_masks(positions)], RES_K,
                           {"K": kmask, "positions": positions})


# ---------------------------------------------------------------------------
# group-algebra cross-checks for the restriction


def _int_group_vector(vector):
    nums, den = alg._group_ints(vector)
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
    positions = mask_positions(kmask)
    y = codomain_vector.in_basis(alg.BASIS_Y)
    if y.den != 1:
        raise AssertionError("expected integral coefficients")
    nums = linalg.integer_rows([y.nums], len(y.nums))[0]
    # the codomain mask of each subset of K
    local = np.zeros(1 << system.rank, dtype=np.intp)
    local[expand_masks(positions)] = np.arange(len(nums))
    members = system.parabolic_indices(kmask)
    out = np.zeros(system.order, dtype=nums.dtype)
    out[members] = nums[local[system.rasc[members] & kmask]]
    return out


def factorization_check(system, kmask):
    """x_L = x_K * (embedded x_L-within-K), verified in the group algebra."""
    positions = mask_positions(kmask)
    codomain = parabolic_system(system, kmask)
    xk = _int_group_vector(alg.basis_x(system, kmask))
    for cmask in range(1 << len(positions)):
        emb = iota_group_vector(
            system, kmask, alg.basis_x(codomain, cmask))
        got = alg.convolve(system, xk, emb)
        want = _int_group_vector(
            alg.basis_x(system, expand_mask(cmask, positions)))
        if not np.array_equal(got, want):
            return False
    return True


def res_linear_check(morphism):
    """The descent-algebra half of the factorization identity: expanding
    the restriction's columns back upstairs must reproduce right
    multiplication by the subset's basis element."""
    system = morphism.domain
    size = 1 << system.rank
    expanded = np.zeros((size, size), dtype=morphism.columns.dtype)
    expanded[:, expand_masks(morphism.metadata["positions"])] = \
        morphism.columns
    return np.array_equal(expanded, alg.right_multiplication(
        alg.basis_x(system, morphism.metadata["K"])))


def bbht_a_check(morphism):
    """x_K * embedded(Res(x)) = x * x_K, for every basis element.

    Split into the coset-sum factorization (a genuine group-algebra
    computation) plus the linear comparison in the descent algebra.
    """
    if not factorization_check(morphism.domain, morphism.metadata["K"]):
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
        morphism, expand_masks(morphism.metadata["positions"]))


def res_conjugate_check(system, kmask, kpmask):
    """Restrictions onto conjugate subsets differ by relabeling only."""
    kmask = system.check_mask(kmask)
    kpmask = system.check_mask(kpmask)
    rasc = system.rasc
    hit = ((rasc & kpmask) == kpmask) & ((rasc[system.inv] & kmask) == kmask)
    hit &= _conjugate_masks_all(system, kpmask) == kmask
    idx = np.flatnonzero(hit)
    if len(idx) == 0:
        raise InvalidSubset("subsets are not conjugate")
    d = int(idx[0])
    mk = res_K(system, kmask)
    mkp = res_K(system, kpmask)
    kpos = mk.metadata["positions"]
    # d_* sends generator p of K' to generator t of K; as a map of the
    # codomain masks it is a permutation
    row = system.csany[int(system.inv[d])]
    images = [int(row[p]) for p in mkp.metadata["positions"]]
    if any(t not in kpos for t in images):
        raise AssertionError("conjugator does not carry subsets over")
    dmap = expand_masks([kpos.index(t) for t in images])
    return np.array_equal(mk.columns[:, dmap], mkp.columns)


# ---------------------------------------------------------------------------
# surjectivity analysis


def _conjugate_masks_all(system, kmask):
    """Vectorized ^wK for every w: the conjugated mask, or -1 whenever
    some generator of K leaves the generator set."""
    positions = mask_positions(kmask)
    order = system.order
    if not positions:
        return np.zeros(order, dtype=np.int64)
    rows = system.csany[system.inv][:, positions].astype(np.int64)
    valid = (rows >= 0).all(axis=1)
    img = np.where(valid, np.left_shift(1, np.maximum(rows, 0)).sum(axis=1),
                   -1)
    return img


def wk_members(system, kmask):
    """The complement group: distinguished double-coset representatives
    normalizing the subset."""
    kmask = system.check_mask(kmask)
    rasc = system.rasc
    inv = system.inv
    hit = ((rasc & kmask) == kmask) & ((rasc[inv] & kmask) == kmask)
    hit &= _conjugate_masks_all(system, kmask) == kmask
    return [int(w) for w in np.flatnonzero(hit)]


def wk_action_permutations(system, kmask, members=None):
    """Distinct permutations the complement group induces on the subset."""
    if members is None:
        members = wk_members(system, kmask)
    if not members:
        return []
    positions = mask_positions(kmask)
    idx = np.asarray(members, dtype=np.int64)
    rows = system.csany[system.inv[idx]][:, list(positions)]
    uniq = np.unique(rows, axis=0)
    where = {p: i for i, p in enumerate(positions)}
    return sorted(tuple(where[int(t)] for t in row) for row in uniq)


def wk_acts_trivially(system, kmask):
    return wk_action_permutations(system, kmask) in ([], [tuple(
        range(popcount(kmask)))])


def pi_K_injective(system, kmask):
    """Whether distinct parabolic shapes of the subset stay distinct."""
    positions = mask_positions(kmask)
    big = [system.shape_id_of_mask(expand_mask(shape.canonical, positions))
           for shape in parabolic_system(system, kmask).shapes()]
    return len(set(big)) == len(big)


def points_fixes_check(morphism):
    """The image lies in the fixed points of the complement group."""
    cols = morphism.columns
    return all(np.array_equal(cols, cols[:, expand_masks(perm)])
               for perm in wk_action_permutations(morphism.domain,
                                                  morphism.metadata["K"]))


def decomposition_check(morphism):
    """The algebra splits as the restriction's kernel plus the parabolic
    basis element's left ideal, and the kernel is exactly that element's
    right annihilator."""
    system = morphism.domain
    size = 1 << system.rank
    # row I is x_I * x_K: its row space is the left ideal, and a
    # annihilates x_K from the left iff a is in its left kernel
    products = alg.right_multiplication(
        alg.basis_x(system, morphism.metadata["K"]))
    # two matrices have the same left kernel iff their columns span the
    # same space
    columns = Span(size, morphism.columns.T)
    if not columns.equals(Span(size, products.T)):
        return False
    # then the kernel has dimension size - rank(products), and kernel
    # plus ideal is direct exactly when the map is injective on the ideal
    return linalg.rank(linalg.matmul(products, morphism.columns),
                       morphism.columns.shape[1]) == columns.dim


def surjectivity_report(system, K):
    """Surjectivity verdict, by morphism rank == 2^|K|, with the two
    necessary conditions: injectivity on shapes and a trivial complement
    action."""
    kmask = alg._as_mask(system, K)
    rank = res_K(system, kmask).rank()
    return {
        "K": kmask,
        "surjective": rank == 1 << popcount(kmask),
        "morphism_rank": rank,
        "pi_injective": pi_K_injective(system, kmask),
        "complement_acts_trivially": wk_acts_trivially(system, kmask),
    }


def res_surjective(system, K):
    return surjectivity_report(system, K)["surjective"]


# ---------------------------------------------------------------------------
# the doubled-bond to fork restriction


def _paper_fork_matrix(n):
    """Coxeter matrix of the fork-diagram group on positions
    [fork-twin, chain-1, ..., chain-(n-1)]."""
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for i in range(1, n - 1):
        mat[i][i + 1] = mat[i + 1][i] = 3
    if n >= 3:
        mat[0][2] = mat[2][0] = 3
    return mat


def fork_system(n):
    """The index-two reflection subgroup's system, fork-twin first."""
    if n < 2:
        raise RankTooSmall("need rank at least 2")
    if n >= 4:
        return build_system(type="D%d" % n)
    labels = ["1p"] + [str(i) for i in range(1, n)]
    return build_system(matrix=_paper_fork_matrix(n), labels=labels)


def sigma_n_automorphism(dn):
    """The fork swap as a diagram automorphism of the fork system."""
    from . import automorphisms as auto
    perm = (1, 0) + tuple(range(2, dn.rank))
    s0 = auto.sigma0(dn)
    return auto.DiagramAutomorphism(permutation=perm, order=2,
                                    is_inner_by_w0=s0.permutation == perm)


def res_BD(n):
    """Restriction from the rank-n doubled-bond algebra onto the fork
    subalgebra of its index-two reflection subgroup."""
    if n < 2:
        raise RankTooSmall("the fork subgroup needs rank at least 2")
    bn = build_system(type="B%d" % n)
    dn = fork_system(n)
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
    return AlgebraMorphism(bn, dn, cols, RES_BD, {"n": n})


def fork_images_in_b(bn, dn):
    """Index of each fork-system element inside the doubled-bond group.

    Generator correspondence: fork-twin goes to t*s1*t, the chain goes to
    itself; images are built along the fork system's length BFS.
    """
    gen_words = {0: (0, 1, 0)}
    for i in range(1, dn.rank):
        gen_words[i] = (i,)
    images = np.empty(dn.order, dtype=np.int64)
    images[0] = 0
    for w in range(1, dn.order):
        u = int(images[int(dn.parent[w])])
        for s in gen_words[int(dn.lastgen[w])]:
            u = int(bn.rmul[u, s])
        images[w] = u
    if len(set(int(v) for v in images)) != dn.order:
        raise AssertionError("fork subgroup embedding is not injective")
    return images


def res_bd_a_check(n, morphism=None):
    """(1 + t) * embedded(Res(x)) = x * (1 + t), in the group algebra."""
    if morphism is None:
        morphism = res_BD(n)
    bn, dn = morphism.domain, morphism.codomain
    images = fork_images_in_b(bn, dn)
    t_elt = int(bn.rmul[0, 0])
    rt = bn.right_translation(t_elt)
    lt = bn.left_translation(t_elt)
    for imask in range(1 << n):
        xvec = _int_group_vector(alg.basis_x(bn, imask))
        rhs = xvec + xvec[rt]
        dvec = _int_group_vector(morphism.apply(alg.basis_x(bn, imask)))
        emb = np.zeros(bn.order, dtype=dvec.dtype)
        emb[images] = dvec
        lhs = emb + emb[lt]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def res_bd_image_check(n, morphism=None):
    """The image equals the fixed subalgebra of the fork swap."""
    from . import automorphisms as auto
    if morphism is None:
        morphism = res_BD(n)
    dn = morphism.codomain
    fixed = auto.fixed_subalgebra(dn, sigma_n_automorphism(dn))
    return morphism.image_span().equals(fixed.span)


def res_bd_square_check(n):
    """Restricting then folding equals folding then restricting, one rank
    down on both sides."""
    if n < 3:
        raise RankTooSmall("need rank at least 3 to drop a generator")
    top = res_BD(n)
    bottom = res_BD(n - 1)
    bn, dn = top.domain, top.codomain
    # inside the doubled-bond group: forget the last chain generator
    res_b = res_K(bn, bn.full_mask & ~(1 << (n - 1)))
    # inside the fork group: same
    res_d = res_K(dn, dn.full_mask & ~(1 << (n - 1)))
    left = compose(res_d, top)
    right = compose(bottom, res_b)
    return left.equal_matrix(
        right, codomain_perm=align_positions(left.codomain, right.codomain))


def res_d_image_check(n):
    """Dropping the fork system's top chain generator has image exactly
    the fixed subalgebra of the one-rank-down fork swap."""
    from . import automorphisms as auto
    if n < 3:
        raise RankTooSmall("need rank at least 3 to drop a generator")
    dn = fork_system(n)
    m = res_K(dn, dn.full_mask & ~(1 << (n - 1)))
    sub = m.codomain
    fixed = auto.fixed_subalgebra(sub, sigma_n_automorphism(sub))
    return m.image_span().equals(fixed.span)


def res_b_triangular_check(n):
    """Dropping the top chain generator is surjective with positive
    diagonal, triangular for the (cardinality, then lexicographic with
    the doubled bond first) order."""
    bn = build_system(type="B%d" % n)
    sub = bn.full_mask & ~(1 << (n - 1))
    morphism = res_K(bn, sub)
    positions = morphism.metadata["positions"]

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
    """No conjugate of the subset other than itself sits inside S."""
    kmask = alg._as_mask(system, K)
    img = _conjugate_masks_all(system, kmask)
    return bool(((img < 0) | (img == kmask)).all())


class SelfOpposedContext:
    """The quotient group data attached to one self-opposed subset."""

    __slots__ = ("system", "kmask", "generator_indices", "outer_positions",
                 "quotient", "images", "member_set")

    def __init__(self, system, kmask, generator_indices, outer_positions,
                 quotient, images, member_set):
        self.system = system
        self.kmask = kmask
        self.generator_indices = generator_indices
        self.outer_positions = outer_positions
        self.quotient = quotient
        self.images = images
        self.member_set = member_set

    def varpi(self, qmask):
        """Subset of S (containing K) matching a quotient-system subset."""
        return self.kmask | expand_mask(qmask, self.outer_positions)

    def quotient_mask(self, imask):
        """Inverse of varpi on subsets containing K."""
        return project_mask(imask, self.outer_positions)


def build_context(system, K):
    """Construct the quotient Coxeter system of a self-opposed subset.

    Generators are the longest-element quotients w_{K,s}; their pairwise
    product orders give a Coxeter matrix which is built as a standalone
    system and proved isomorphic to the normalizer complement by element
    counting.
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
    members = wk_members(system, kmask)
    member_set = set(members)
    for g in gens:
        if g not in member_set:
            raise AssertionError("quotient generator escapes the "
                                 "normalizer complement")
        if system.order_of(g) != 2:
            raise AssertionError("quotient generator is not an involution")
    m = len(outer)
    mat = [[1] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            prod = system.mul(gens[i], gens[j])
            mat[i][j] = mat[j][i] = system.order_of(prod)
    labels = [system.labels[p] for p in outer]
    quotient = build_system(matrix=mat, labels=labels)
    images = np.empty(quotient.order, dtype=np.int64)
    images[0] = 0
    for w in range(1, quotient.order):
        u = int(images[int(quotient.parent[w])])
        images[w] = system.mul(u, gens[int(quotient.lastgen[w])])
    distinct = set(int(v) for v in images)
    if len(distinct) != quotient.order or distinct != member_set:
        raise AssertionError(
            "measured quotient system does not match the normalizer "
            "complement")
    return SelfOpposedContext(system, kmask, tuple(gens), tuple(outer),
                              quotient, images, member_set)


def psi_K(system, K, context=None):
    """The quotient morphism: kill basis elements missing the subset,
    rename the rest through the quotient generators."""
    if context is None:
        context = build_context(system, K)
    kmask = context.kmask
    big = kmask | expand_masks(context.outer_positions)
    cols = np.zeros((1 << system.rank, len(big)), dtype=np.int64)
    cols[big, np.arange(len(big))] = 1
    return AlgebraMorphism(system, context.quotient, cols, PSI_K,
                           {"K": kmask, "context": context})


def goetz1_set_check(system, context, imask, jmask):
    """Set-level equality of the refining double-coset pieces, for one pair
    of subsets containing K: the quotient's pieces, pushed through the
    embedding, must coincide exactly with the big group's pieces.

    Each structure set is split by the piece subset of its elements. The
    (element, piece subset) pairs of the big group's members of the
    quotient group must be the images of the quotient's pairs, and every
    other element of the big set must lie in a piece whose subset misses
    part of K.
    """
    kmask = context.kmask
    q = context.quotient
    qI = context.quotient_mask(imask)
    qJ = context.quotient_mask(jmask)
    big = np.array([e.index for e in system.structure_set(imask, jmask)],
                   dtype=np.int64)
    small = np.array([e.index for e in q.structure_set(qI, qJ)],
                     dtype=np.int64)
    big_l = system._refine_masks(big, imask, jmask)
    small_l = (kmask | expand_masks(context.outer_positions))[
        q._refine_masks(small, qI, qJ)]
    member = np.isin(big, context.images)
    if np.any((big_l[~member] & kmask) == kmask):
        return False
    size = 1 << system.rank
    return np.array_equal(np.sort(big[member] * size + big_l[member]),
                          np.sort(context.images[small] * size + small_l))


def varpi_tau_check(system, context):
    """Character factorization through the quotient morphism."""
    morphism = psi_K(system, context.kmask, context)
    return _characters_factor(
        morphism, context.kmask | expand_masks(context.outer_positions))


def e7_f4_quotient():
    """Rank-7 showcase: the alternating three-node subset is self-opposed
    and its quotient system is the doubled-bond rank-4 type. Expensive
    to build; callers gate it explicitly."""
    e7 = build_system(type="E7", allow_rank7=True)
    kmask = e7.mask_of_labels(["2", "5", "7"])
    return build_context(e7, kmask)


def commuting_square_check(system, K, L):
    """Quotient-then-restrict equals restrict-then-quotient."""
    kmask = alg._as_mask(system, K)
    lmask = alg._as_mask(system, L)
    if kmask & ~lmask:
        raise InvalidSubset("need K inside L")
    ctx = build_context(system, kmask)
    psi_top = psi_K(system, kmask, ctx)
    res_left = res_K(system, lmask)
    wl = res_left.codomain
    # positions of K inside the parabolic system
    k_in_l = project_mask(kmask, res_left.metadata["positions"])
    ctx_l = build_context(wl, k_in_l)
    psi_bottom = psi_K(wl, k_in_l, ctx_l)
    # restriction inside the quotient system to the image of L
    lk_mask = ctx.quotient_mask(lmask)
    res_right = res_K(ctx.quotient, lk_mask)
    left = compose(psi_bottom, res_left)
    right = compose(res_right, psi_top)
    return right.equal_matrix(
        left, codomain_perm=align_positions(right.codomain, left.codomain))
