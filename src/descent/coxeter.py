"""Finite Coxeter systems: enumeration, descent data, cosets, shapes.

Elements are enumerated breadth-first by length, ties broken by the
lexicographically smallest reduced word, so element index 0 is the identity
and the last index is the longest element. Each element is represented by
the signed permutation it induces on the positive roots; everything else
(lengths, ascent sets, conjugation of generators, coset representatives)
derives from that action.

The group is enumerated on first use, not on construction: the first read
of any group table (``parent``, ``lastgen``, ``length``, ``supp``,
``rmul``, ``rasc``, ``lasc``, ``csany``, ``inv``) builds all nine,
in the element order described above. A cold structure tensor reads none
of them: it walks the same length levels, makes each element once, from
its smallest right descent, and counts one level's element signatures
before it moves on. It walks only levels 0 to floor(N/2), N the number of
positive roots, and counts the signature of w0 w with that of each w
below the middle: l(w0 w) = N - l(w), so w -> w0 w, its own inverse, maps
level l one-to-one onto level N - l, and the middle level of an even N
onto itself. With sigma the twist, w0 s w0 = sigma(s), the right ascents
of w0 w are the right descents of w, s is a left ascent of w0 w iff
sigma(s) is a left descent of w, and (w0 w)^{-1} s (w0 w) =
w^{-1} sigma(s) w, so the descent data of w0 w are bit operations on
those of w. The signature histogram goes to the support matrix T[:, J, K],
K inside J, in one fill and n folds, checked, cached and scattered once.

The structure tensor, loaded from the cache, and the root action, built
on first use too, answer the rest without enumerating: the shapes are
read off the tensor and the twist of the longest element off one walk on
the roots, so a warm ``descent table`` row or ``descent mult`` product
never enumerates, and a warm product never builds the root action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from . import cartan, rootperm
from .errors import InvalidSubset, UnsupportedType


def memoized(f):
    """f(obj, *args), computed once per object and hashable arguments and
    kept in the object's own ``__dict__``, so it lives and dies with the
    object. A call that raises stores nothing."""
    @wraps(f)
    def once(obj, *args):
        memo = obj.__dict__.setdefault("_memo", {})
        if (f, args) not in memo:
            memo[f, args] = f(obj, *args)
        return memo[f, args]
    return once


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return bin(mask).count("1")


def expand_masks(positions):
    """The mask with bit positions[i] for each bit i, for every mask of
    len(positions) bits, as an index array."""
    out = np.zeros(1 << len(positions), dtype=np.intp)
    for i, p in enumerate(positions):
        out[1 << i:2 << i] = out[:1 << i] | (1 << p)
    return out


def subset_sums(arr, rank, supersets=False):
    """Sum over subsets in place along the last axis, of length 2**rank:
    entry J becomes the sum of the entries of the subsets of J (of the
    supersets of J with ``supersets``). ``arr`` must be C-contiguous, so
    that each reshape below is a view of it."""
    for s in range(rank):
        pairs = arr.reshape(arr.shape[:-1] + (-1, 2, 1 << s))
        if supersets:
            pairs[..., 0, :] += pairs[..., 1, :]
        else:
            pairs[..., 1, :] += pairs[..., 0, :]
    return arr


@lru_cache(maxsize=None)
def support_pairs(n):
    """The 3^n pairs (J, K) with K a subset of J, sorted by K, as read-only
    index arrays J and K, and the start of each K segment."""
    masks = np.arange(1 << n)
    K, J = np.nonzero((masks[:, None] & ~masks[None, :]) == 0)
    starts = np.searchsorted(K, masks)
    for arr in (J, K, starts):
        arr.flags.writeable = False
    return J, K, starts


@lru_cache(maxsize=None)
def support_index(n):
    """(J << n | K, by_j, K[by_j], J starts) over the pairs of
    ``support_pairs``: the index of each pair in a row T[I] of the dense
    tensor, flattened, then the pairs by J, K ascending in each J."""
    J, K, _starts = support_pairs(n)
    by_j = np.argsort(J, kind="stable")
    return (J << n | K, by_j, K[by_j],
            np.searchsorted(J[by_j], np.arange(1 << n)))


def dense_tensor(n, Tc):
    """The dense int64 tensor of the support matrix Tc of rank n."""
    full = 1 << n
    T = np.zeros((full, full * full), dtype=np.int64)
    T[:, support_index(n)[0]] = Tc
    return T.reshape(full, full, full)


class _GroupTable:
    """A group table; the first read of any one builds them all."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, system, owner=None):
        if system is None:
            return self
        system._build()
        return system.__dict__[self.name]


@dataclass(frozen=True)
class Shape:
    """One W-conjugacy class of generator subsets."""
    class_id: int
    members: tuple
    canonical: int
    cardinality_of_member: int


class CoxeterSystem:
    parent = _GroupTable()    # w = parent[w] s_{lastgen[w]}, one shorter
    lastgen = _GroupTable()
    length = _GroupTable()
    supp = _GroupTable()      # mask of the generators in a reduced word
    rmul = _GroupTable()      # rmul[w, s] = w s
    rasc = _GroupTable()      # R(w) = {s : l(ws) > l(w)}
    lasc = _GroupTable()      # {s : l(sw) > l(w)} = R(w^{-1})
    csany = _GroupTable()     # csany[w, s] = t iff w^{-1} s w = s_t, else -1
    inv = _GroupTable()

    def __init__(self, matrix, labels=None, type_label=None, components=None,
                 allow_rank7=False, cache=False):
        n = len(matrix)
        # recognizes the isomorphism type; raises InfiniteGroup otherwise.
        # The rank-0 matrix is the trivial group, a morphism codomain
        parts = cartan.classify_parts(matrix) if n else []
        if components is None:
            components = sorted(part[:2] for part in parts)
        if type_label is None:
            type_label = cartan.normalized_label(components) or "A0"
        cartan.enforce_rank_cap(n, allow_rank7)
        nroots = sum(cartan.component_nroots(fam, p) for fam, p, _ in parts)
        if nroots > np.iinfo(np.int16).max:
            # the signed root numbers are int16
            raise UnsupportedType(
                "%s has %d positive roots; at most %d are supported"
                % (type_label, nroots, np.iinfo(np.int16).max))
        self.matrix = [list(row) for row in matrix]
        self.rank = n
        self.labels = list(labels) if labels else [str(i + 1) for i in range(n)]
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise UnsupportedType("generator labels must be distinct")
        self.components = components
        self.type_label = type_label
        # a cache file holds the tensor in the numbering of its label
        self.cache_enabled = bool(cache) and n > 0 and (
            (self.labels, self.matrix)
            == cartan.matrix_for_components(components))
        self.order = cartan.order_for_components(components)
        self.full_mask = (1 << n) - 1
        self.nroots = nroots
        self._parts = parts
        # w sends alpha_t into the root block of t's component, so the
        # element key codes that image inside the block: twice its offset
        # there, plus one if it is negative
        width = [0] * n
        for fam, p, order in parts:
            top = 2 * cartan.component_nroots(fam, p) - 1
            for node in order:
                width[node] = top.bit_length()
        if sum(width) > 63:
            # the smallest such system, A3xI2(2049)xI2(2049), has about
            # 4 * 10**8 elements and 4104 roots
            raise UnsupportedType(
                "the elements of %s do not fit one int64 key" % type_label)
        self._key_shift = [sum(width[:t]) for t in range(n)]
        # _bits[t] = 1 << t, and _bits[-1] = 0 for a csany entry of -1
        self._bits = np.append(1 << np.arange(n, dtype=np.int64), 0)

    # ------------------------------------------------------------------
    # enumeration

    @memoized
    def _root_action(self):
        """The generators' signed root permutations, built on first use:
        (spos, sperm, gidx, gsgn, root_to_gen, first_root) with spos[t]
        the index of the simple root alpha_t, sperm the (n, N) int16
        signed permutations, gidx and gsgn the index and sign of the image
        of each root under each generator, root_to_gen[i] the generator
        whose simple root is root i, else -1, and first_root[t] the first
        index of the root block of t's component."""
        n, N = self.rank, self.nroots
        sperm, spos, first_root = rootperm.build_root_action(n, self._parts)
        spos = np.asarray(spos, dtype=np.intp)
        sperm = np.asarray(sperm, dtype=np.int16).reshape(n, N)
        root_to_gen = np.full(N, -1, dtype=np.int8)
        root_to_gen[spos] = np.arange(n)
        return (spos, sperm, np.abs(sperm).astype(np.intp) - 1,
                np.sign(sperm), root_to_gen, first_root)

    def _levels(self, choose, mirrored=False):
        """Walk W up its length levels from the identity, holding the root
        permutations of the current level only.

        At each level, choose(w, s, cols) gets the pairs (w, s) with s a
        right ascent of w, in row-major order with w numbered within the
        level, and cols, the images of the simple roots under ws, one row
        per pair. It returns (pick, info): the indices of the pairs that
        make the next level's elements, one pair each, and anything the
        caller wants back. Yields (w, s, pick, right, left, info) per
        level past the identity's, with right and left the images of the
        simple roots under the picked elements ws and under their
        inverses. The last level is N, the number of positive roots: it
        holds the longest element w0 alone.

        With ``mirrored`` the walk stops at level floor(N/2) and counts
        each level l < N/2 twice: w -> w0 w maps level l one-to-one onto
        level N - l, so the levels walked and the images of those below
        the middle make up W.
        """
        n, N, order = self.rank, self.nroots, self.order
        spos, sperm, gidx, gsgn, _, _ = self._root_action()
        # where each generator sends the simple roots, as one row of
        # (generator, simple root) pairs
        sidx, ssgn = gidx[:, spos].ravel(), gsgn[:, spos].ravel()
        level = np.arange(1, N + 1, dtype=np.int16)[None]
        right = left = level[:, spos]

        def copies(depth):
            # the level, and with mirrored its image under w -> w0 w
            return 2 if mirrored and 2 * depth < N else 1

        count = copies(0)
        for depth in range(1, (N // 2 if mirrored else N) + 1):
            ascents = np.flatnonzero(right > 0)     # w n + s
            w, s = np.divmod(ascents, n)
            # images of the simple roots under ws for every s, then the
            # rows of the pairs
            images = level.take(sidx, axis=1)
            images *= ssgn
            cols = images.reshape(-1, n).take(ascents, axis=0)
            # freed before the next level is made, the peak of the walk
            del images, ascents
            pick, info = choose(w, s, cols)
            count += len(pick) * copies(depth)
            if count > order:
                raise AssertionError(
                    "enumeration found more than %d elements" % order)
            pw, ps = w[pick], s[pick]
            right = cols[pick]
            # (ws)^{-1} = s w^{-1}
            up = left[pw]
            left = np.sign(up) * sperm[ps[:, None], np.abs(up) - 1]
            # one generator at a time: whole rows, then one column order,
            # so no index array of the level's size is formed
            new = np.empty((len(pick), N), dtype=np.int16)
            for t in range(n):
                at = np.flatnonzero(ps == t)
                rows = level.take(pw[at], axis=0).take(gidx[t], axis=1)
                rows *= gsgn[t]
                new[at] = rows
            level = new
            yield w, s, pick, right, left, info
        if count != order:
            raise AssertionError(
                "enumeration found %d elements, expected %d" % (count, order))

    def _descent_data(self, right, left):
        """(rasc, lasc, csany) of the elements whose rows of simple-root
        images under themselves and their inverses are right and left."""
        root_to_gen = self._root_action()[4]
        bits = np.arange(self.rank, dtype=np.int16)
        rasc = ((right > 0) << bits).sum(axis=1, dtype=np.int16)
        lasc = ((left > 0) << bits).sum(axis=1, dtype=np.int16)
        return rasc, lasc, root_to_gen[np.abs(left) - 1]

    def _build(self):
        """Enumerate W and fill the group tables, one vectorized step of
        ``_levels`` per length level.

        The pairs (w, s) of a level with s a right ascent of w are taken in
        row-major order; the new element ws is numbered by its first pair,
        which becomes its parent and last generator. Elements are told
        apart by one int64 key packing the images of the simple roots.
        Each element keeps the images of the simple roots under itself and
        its inverse; an inverse has the length of its element, so it is
        looked up among the keys of its own level.
        """
        n, order = self.rank, self.order
        spos, *_, first_root = self._root_action()
        shift = self._key_shift

        def pack(cols):
            """One key per row of signed root numbers, one per generator."""
            key = np.zeros(len(cols), dtype=np.int64)
            for t in range(n):
                col = cols[:, t].astype(np.int64)
                key |= (2 * (np.abs(col) - 1 - first_root[t]) + (col < 0)
                        ) << shift[t]
            return key

        def first_pairs(w, s, cols):
            uniq, first, which = np.unique(
                pack(cols), return_index=True, return_inverse=True)
            by_first = np.argsort(first)
            number = np.empty_like(by_first)
            number[by_first] = np.arange(len(uniq))
            return first[by_first], (uniq, number, which)

        parent = np.empty(order, dtype=np.int32)
        lastgen = np.empty(order, dtype=np.int8)
        length = np.empty(order, dtype=np.int16)
        supp = np.empty(order, dtype=np.int16)
        inv = np.empty(order, dtype=np.int32)
        parent[0], lastgen[0], length[0], supp[0], inv[0] = -1, -1, 0, 0, 0
        rmul = np.full((order, n), -1, dtype=np.int32)
        right = np.empty((order, n), dtype=np.int16)   # w(alpha_t)
        left = np.empty((order, n), dtype=np.int16)    # w^{-1}(alpha_t)
        right[0] = left[0] = spos + 1

        lo, hi = 0, 1
        for w, s, pick, up, down, (uniq, number, which) in self._levels(
                first_pairs):
            new = slice(hi, hi + len(pick))
            w = w + lo
            v = number[which] + hi
            rmul[w, s] = v
            rmul[v, s] = w
            pw, ps = w[pick], s[pick]
            parent[new] = pw
            lastgen[new] = ps
            length[new] = length[lo] + 1
            supp[new] = supp[pw] | (1 << ps)
            right[new] = up
            left[new] = down
            inv_keys = pack(down)
            at = np.minimum(np.searchsorted(uniq, inv_keys), len(uniq) - 1)
            missing = np.flatnonzero(uniq[at] != inv_keys)
            if missing.size:
                raise AssertionError(
                    "inverse of element %d is not enumerated"
                    % (hi + missing[0]))
            inv[new] = number[at] + hi
            lo, hi = new.start, new.stop

        self.parent = parent
        self.lastgen = lastgen
        self.length = length
        self.supp = supp
        self.rmul = rmul
        self.rasc, self.lasc, self.csany = self._descent_data(right, left)
        self.inv = inv

    # ------------------------------------------------------------------
    # basic element access

    def word(self, i):
        out = []
        i = int(i)
        while i:
            out.append(int(self.lastgen[i]))
            i = int(self.parent[i])
        return tuple(reversed(out))

    def mul(self, a, b):
        w = int(a)
        for s in self.word(b):
            w = int(self.rmul[w, s])
        return w

    @memoized
    def lmul(self):
        lm = np.empty_like(self.rmul)
        inv = self.inv
        for s in range(self.rank):
            lm[:, s] = inv[self.rmul[inv, s]]
        return lm

    @memoized
    def conj_tables(self):
        """conj[w, s] = s w s."""
        lm = self.lmul()
        out = np.empty_like(self.rmul)
        for s in range(self.rank):
            out[:, s] = lm[self.rmul[:, s], s]
        return out

    def right_translation(self, v):
        """Index array t with t[u] = index of u*v."""
        idx = np.arange(self.order, dtype=np.int32)
        for s in self.word(v):
            idx = self.rmul[idx, s]
        return idx

    def left_translation(self, u):
        """Index array t with t[v] = index of u*v."""
        return self.multiplication_table([u])[0]

    def multiplication_table(self, us):
        """Rows mt[i, v] = index of us[i]*v, for a batch of elements us,
        walked over ``rmul`` one length level at a time; each row costs
        |W| cells. Nothing is kept, so callers ask for rows in blocks."""
        return self._level_walk(us, self.rmul)

    def _level_walk(self, starts, step):
        """r[:, 0] = starts and r[:, w] = step[r[:, parent[w]],
        lastgen[w]], one length level at a time, as a (len(starts), |W|)
        view of a walk that fills the transpose, so a level gathers whole
        rows. Flat indices r n + s < step.size stay in step's dtype."""
        n = step.shape[1]
        flat = step.ravel()
        r = np.empty((self.order, len(starts)), dtype=step.dtype)
        r[0] = starts
        bounds = np.searchsorted(self.length, np.arange(self.nroots + 2))
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            at = r[self.parent[lo:hi]]
            at *= n
            at += self.lastgen[lo:hi, None]
            flat.take(at, out=r[lo:hi])
        return r.T

    def order_of(self, i):
        k, w = 1, int(i)
        while w != 0:
            w = self.mul(w, i)
            k += 1
        return k

    def homomorphism_images(self, target, gens):
        """Index in ``target`` of the image of every element under the
        homomorphism s -> gens[s]: w = parent[w] s_{lastgen[w]} goes to
        image(parent[w]) gens[lastgen[w]], a level walk over the target's
        right translations by the gens."""
        rt = np.array([target.right_translation(g) for g in gens],
                      dtype=np.int64).reshape(len(gens), target.order)
        return self._level_walk([0], rt.T)[0]

    # ------------------------------------------------------------------
    # subsets of generators

    def check_mask(self, mask):
        if not 0 <= mask <= self.full_mask:
            raise InvalidSubset("subset mask %r out of range" % (mask,))
        return int(mask)

    def mask_of_labels(self, names):
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.labels.index(name)
            except ValueError:
                raise InvalidSubset("unknown generator label %r" % (name,))
        return mask

    def labels_of_mask(self, mask):
        return [self.labels[s] for s in iter_bits(self.check_mask(mask))]

    def longest_in_parabolic(self, mask):
        """w_K, the unique longest element of W_K: elements are numbered
        by length, so it is the last member."""
        return int(self.parabolic_indices(mask)[-1])

    def w0_twist(self):
        """The permutation t -> sigma_0(t) with w0 s_t w0 = s_{sigma_0(t)}.

        On I2(m) it swaps the two nodes iff m is odd: for even m,
        w0 = (st)^{m/2} is central. On the other components it walks
        w <- w s on the signed root permutation while some of their simple
        roots has w(alpha_s) > 0; each step adds one to the length, so at
        the end w(alpha_t) = -alpha_{sigma_0(t)} for their generators t.
        """
        spos, _sperm, gidx, gsgn, root_to_gen, _ = self._root_action()
        perm = list(range(self.rank))
        walked = []
        for fam, p, order in self._parts:
            if fam != "I":
                walked += order
            elif p % 2:
                perm[order[0]], perm[order[1]] = order[1], order[0]
        w = np.arange(1, self.nroots + 1, dtype=np.int16)
        while up := [s for s in walked if w[spos[s]] > 0]:
            w = gsgn[up[0]] * w[gidx[up[0]]]
        for t in walked:
            perm[t] = int(root_to_gen[-w[spos[t]] - 1])
        if any(t < 0 for t in perm):
            raise AssertionError("longest element does not normalize the "
                                 "generator set")
        return tuple(perm)

    def parabolic_indices(self, mask):
        mask = self.check_mask(mask)
        return np.flatnonzero((self.supp & ~mask) == 0)

    # ------------------------------------------------------------------
    # structure sets

    def _refine_masks(self, idxs, imask, jmask):
        """(d^{-1} I d) cap J as masks, for each d in idxs with I among its
        left ascents."""
        rows = self.csany.take(idxs, axis=0)
        out = np.zeros(len(idxs), dtype=np.int64)
        for s in iter_bits(imask):
            out |= self._bits.take(rows[:, s])
        return out & jmask

    def structure_set(self, imask, jmask, kmask=None):
        """X_{I,J}, the elements with I among their left ascents and J
        among their right ascents (or its refinement X_{I,J,K}, those
        with (d^{-1} I d) cap J = K), as a sorted int64 index array."""
        imask = self.check_mask(imask)
        jmask = self.check_mask(jmask)
        hit = ((self.lasc & imask) == imask) & ((self.rasc & jmask) == jmask)
        idxs = np.flatnonzero(hit).astype(np.int64, copy=False)
        if kmask is not None:
            kmask = self.check_mask(kmask)
            idxs = idxs[self._refine_masks(idxs, imask, jmask) == kmask]
        return idxs

    # ------------------------------------------------------------------
    # shapes (conjugacy classes of generator subsets)

    @memoized
    def shape_classes(self):
        """(shapes, mask_to_shape): the W-conjugacy classes of generator
        subsets, ordered by (size, smallest member).

        J and K are conjugate exactly when the columns T[:, J, J] and
        T[:, K, K] of the structure tensor agree: that column is the
        character of the shape, and T[J, J, J] >= 1 makes equal columns
        give K inside a conjugate of J and J inside a conjugate of K.
        """
        masks = np.arange(1 << self.rank)
        T = self.structure_tensor()
        _, label = np.unique(T[:, masks, masks].T, axis=0,
                             return_inverse=True)
        groups = {}
        for jmask, cid in enumerate(label.ravel().tolist()):
            groups.setdefault(cid, []).append(jmask)
        classes = sorted(groups.values(),
                         key=lambda ms: (popcount(ms[0]), ms[0]))
        shapes = []
        mask_to_shape = [0] * len(masks)
        for cid, members in enumerate(classes):
            members = tuple(members)
            for m in members:
                mask_to_shape[m] = cid
            shapes.append(Shape(class_id=cid, members=members,
                                canonical=members[0],
                                cardinality_of_member=popcount(members[0])))
        return shapes, mask_to_shape

    def shapes(self):
        return self.shape_classes()[0]

    def shape_id_of_mask(self, mask):
        _, m2s = self.shape_classes()
        return m2s[self.check_mask(mask)]

    # ------------------------------------------------------------------
    # conjugacy classes of elements

    @memoized
    def element_classes(self):
        """(class id per element, smallest index per class, sizes).

        Min-label propagation over the generator conjugations w -> s w s,
        which connect each class: every element takes the least label of
        its neighbours, then the label of its label, until nothing moves.
        Each label stays inside its class and the least one never moves,
        so the fixed point labels every element with the smallest index
        of its class, the (length, word)-least element. Classes are
        numbered by that index.
        """
        conj = self.conj_tables()
        lab = np.arange(self.order)
        while True:
            prev = lab
            for s in range(self.rank):
                lab = np.minimum(lab, lab[conj[:, s]])
            lab = lab[lab]
            if np.array_equal(lab, prev):
                break
        reps, cid = np.unique(lab, return_inverse=True)
        return (cid.astype(np.int32), reps.tolist(),
                np.bincount(cid).tolist())

    # ------------------------------------------------------------------
    # structure constants

    @memoized
    def structure_tensor(self):
        """T[I, J, K] = #{d in X_{I,J} : (d^{-1} I d) cap J = K}."""
        from . import cache as cache_mod
        if self.cache_enabled:
            T = cache_mod.load_tensor(self)
            if T is not None:
                return T
        Tc = self._compute_tensor()
        check_support(Tc, self.matrix, self.order, self.type_label)
        if self.cache_enabled:
            cache_mod.store_tensor(self, Tc)
        return dense_tensor(self.rank, Tc)

    def _compute_tensor(self):
        """The support matrix of T from the histogram of element
        signatures, streamed over the length levels without group tables.

        Each element ws of the next level is made once, from the one pair
        (w, s) with s its smallest right descent; each level's signature
        keys are counted before the walk moves on, and the level counts
        are merged at the end, or every 64 levels when the levels are many
        and short, as with a large dihedral factor.

        The walk stops at level floor(N/2). As l(w0 w) = N - l(w) and
        w -> w0 w is its own inverse, it maps level l one-to-one onto
        level N - l, so the levels l < N/2 and their images are W less
        the middle level of an even N, which maps onto itself and is
        counted once. With sigma the twist, w0 s w0 = sigma(s), the
        signature of w0 w is read off that of w:
        - R(w0 w) = S minus R(w), as l(w0 w s) = N - l(w s);
        - s is in L(w0 w) iff sigma(s) is not in L(w), as
          s w0 w = w0 sigma(s) w;
        - (w0 w)^{-1} s (w0 w) = w^{-1} sigma(s) w, so the code of s is
          csany[w, sigma(s)].
        So the descent data of w0 w are rasc ^ S, twist[lasc] ^ S and
        csany[:, sigma], with bit s of twist[m] the bit sigma(s) of m, read
        off those of w without a second pass over the root images.
        """
        def smallest_descent(w, s, cols):
            return np.flatnonzero((cols < 0).argmax(axis=1) == s), None

        def count(depth, right, left):
            rasc, lasc, csany = self._descent_data(right, left)
            keys = signature_keys(n, rasc, lasc, csany)
            if 2 * depth < N:
                # the w0 w of this level, on level N - depth
                keys = np.concatenate([keys, signature_keys(
                    n, rasc ^ S, twist[lasc] ^ S, csany[:, sigma])])
            return np.unique(keys, return_counts=True)

        def merge(counted):
            keys, counts = (np.concatenate(part) for part in zip(*counted))
            sigs, which = np.unique(keys, return_inverse=True)
            mult = np.zeros(len(sigs), dtype=np.int64)
            np.add.at(mult, which, counts)
            return [(sigs, mult)]

        n, N, S = self.rank, self.nroots, self.full_mask
        sigma = list(self.w0_twist())
        # bit s of twist[m] is bit sigma(s) of m, sigma an involution
        twist = expand_masks(sigma)
        one = (self._root_action()[0] + 1).astype(np.int16)[None]
        counted = [count(0, one, one)]
        for depth, (*_, right, left, _) in enumerate(
                self._levels(smallest_descent, mirrored=True), 1):
            counted.append(count(depth, right, left))
            if len(counted) > 64:
                counted = merge(counted)
        # the level counts go before the tensor is made
        [(sigs, mult)] = counted = merge(counted)
        return tensor_from_signatures(n, sigs, mult)


def signature_keys(n, rasc, lasc, csany):
    """One int64 key per element of rank n, packing its signature: its
    left ascents a, its right ascents b and, for each s in a, the code of
    d^{-1} s d: t + 1 when it is the generator s_t, else 0.

    The code lies in 0..n and takes n.bit_length() <= 3 bits for n <= 7,
    so the key (codes, then b, then a) takes n (3 + 2) <= 35 bits.
    """
    width = n.bit_length()
    if n * (width + 2) > 63:
        raise AssertionError(
            "signature keys of rank %d do not fit 63 bits" % n)
    lasc = lasc.astype(np.int64)
    key = (lasc << n | rasc) << (n * width)
    for s in range(n):
        t = csany[:, s].astype(np.int64)
        ascent = (lasc >> s & 1).astype(bool)
        key |= np.where(ascent & (t >= 0), t + 1, 0) << (s * width)
    return key


def tensor_from_signatures(n, sigs, mult):
    """The int64 support matrix Tc[I, p] = T[I, J_p, K_p] of rank n over
    the pairs of ``support_pairs``, from the sorted signature keys
    ``sigs`` (see ``signature_keys``) and their counts ``mult``.

    d counts towards T[I, J, K] when I is among its left ascents a,
    J among its right ascents b, and D cap J = K, D = (d^{-1} I d) cap S.
    D lies inside b: s in D is d^{-1} t d, t in I, so ds = td is one
    longer than d. So (b_s, D_s) is (0, 0), (1, 0) or (1, 1), the digit
    b_s + D_s = [s in J] + [s in K], and for a fixed I the conditions
    hold one s at a time:

    1. H[I, c] sums the counts of the signatures with I inside a and
       c = tern(b) + tern(D), tern(m) = sum_{s in m} 3^s, one mask a at
       a time; conjugation is injective, so tern(D) sums over s in I;
    2. n in-place passes add digits 1 and 2 of a generator into its 0
       (s not in J); one gather puts the columns into pair order.

    Codes that are not distinct generators inside b raise AssertionError.
    For a fixed I an entry counts distinct elements, so it is at most
    mult.sum(), and H is int32 below 2^31.
    """
    full = 1 << n
    width = n.bit_length()
    # sorted keys group the signatures by a, the top field
    amask = sigs >> (n * width + n)
    bmask = sigs >> (n * width) & (full - 1)
    # D as the sum and as the union of the bits t - 1 of the codes t > 0
    image, union = np.zeros((2, len(sigs)), dtype=np.int64)
    for s in range(n):
        bit = (1 << (sigs >> s * width & (1 << width) - 1)) >> 1
        image += bit
        union |= bit
    if ((image != union) | (union & ~bmask != 0)).any():
        raise AssertionError("a signature's codes are not distinct "
                             "generators among its right ascents")
    tern = (np.arange(full)[:, None] >> np.arange(n) & 1) @ 3 ** np.arange(n)
    by_code = tern[(1 << np.arange(n + 1)) >> 1]     # 3^(t - 1), 0 for 0
    acc = np.int32 if mult.sum() < 2 ** 31 else np.int64
    H = np.zeros(full * 3 ** n, dtype=acc)
    starts = np.flatnonzero(np.diff(amask, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(sigs))):
        # I 3^n + c for every I inside a, doubled over the bits of a
        a = int(amask[lo])
        at = np.empty((hi - lo, 1 << popcount(a)), dtype=np.intp)
        at[:, 0] = tern[bmask[lo:hi]]
        for i, s in enumerate(iter_bits(a)):
            step = by_code[sigs[lo:hi, None] >> s * width & (1 << width) - 1]
            np.add(at[:, :1 << i], step + (3 ** n << s),
                   out=at[:, 1 << i:2 << i])
        # one flat index, the fast path of np.add.at
        np.add.at(H, at.ravel(),
                  np.repeat(mult[lo:hi].astype(acc), at.shape[1]))
    for s in range(n):
        digits = H.reshape(-1, 3, 3 ** s)       # axis 1: the digit of s
        digits[:, 0] += digits[:, 1]
        digits[:, 0] += digits[:, 2]
    J, K, _starts = support_pairs(n)
    return H.reshape(full, -1).take(tern[J] + tern[K], axis=1).astype(
        np.int64, copy=False)


def check_support(Tc, matrix, order, type_label):
    """Raise AssertionError unless the support matrix Tc has the unit row
    T[S, J, K] = [J = K], the unit column T[I, S, K] = [I = K] and the
    Mackey counts of the group of order `order` with Coxeter matrix
    `matrix` (|W_K| from classifying, not enumerating). T vanishes off
    the support, as it is only ever scattered from Tc."""
    n = len(matrix)
    J, K, _starts = support_pairs(n)
    if not (np.array_equal(Tc[-1], J == K) and np.array_equal(
            Tc[:, J == len(Tc) - 1], np.eye(len(Tc)))):
        raise AssertionError(
            "structure tensor of %s: T[S, J, K] or T[J, S, K] is not "
            "the identity" % type_label)
    # |W : W_K| = |X_K|
    index = order // np.array(cartan.parabolic_orders(matrix), np.int64)
    _flat, by_j, k_by_j, j_starts = support_index(n)
    counts = np.add.reduceat(Tc.take(by_j, axis=1) * index[k_by_j],
                             j_starts, axis=1)
    if not np.array_equal(counts, np.outer(index, index)):
        raise AssertionError(
            "structure tensor of %s fails the Mackey count "
            "|X_I| |X_J| = sum_K T[I, J, K] |X_K|" % type_label)


def build_system(type=None, matrix=None, labels=None, allow_rank7=False,
                 cache=True):
    """Build a finite Coxeter system from a type label or a Coxeter matrix.

    ``cache`` applies to a system built from a label: a cache file is
    named by its type label and checked against the label's matrix, so a
    system built from a matrix, whose generators may be numbered otherwise,
    never reads or writes one.
    """
    if (type is None) == (matrix is None):
        raise UnsupportedType("give exactly one of type= or matrix=")
    if type is not None:
        comps = cartan.parse_label(type)
        built_labels, mat = cartan.matrix_for_components(comps)
        return CoxeterSystem(mat, labels=built_labels,
                             type_label=cartan.normalized_label(comps),
                             components=comps, allow_rank7=allow_rank7,
                             cache=cache)
    return CoxeterSystem(matrix, labels=labels, allow_rank7=allow_rank7,
                         cache=False)
