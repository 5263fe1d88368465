"""Group engine checks against brute-force recomputation.

Everything here is verified from first principles on small systems: descent
masks from the length function, coset representatives from explicit cosets,
conjugacy of subsets by conjugating every generator by every element.
"""

import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from descent import (algebra, automorphisms, build_system, cartan, coxeter,
                     rootperm)
from descent import morphisms
from descent.algebra import bhs_pairing, multiply, theta_value_table
from descent.coxeter import (check_support, dense_tensor, expand_masks,
                             iter_bits, memoized, popcount, support_pairs)
from descent.errors import (InfiniteGroup, InvalidSubset, RankCapExceeded,
                            UnsupportedType)
from descent.exprs import parse_expression
from descent.table import SUPPORTED_TYPES, available_sigma_orders, build_row

SMALL = ["A1", "A2", "A3", "B2", "B3", "I2(5)", "I2(7)", "A1xA1", "A2xA1"]


def gen_index(system, s):
    """Index of the generator s as a group element."""
    return int(system.rmul[0, s])


def brute_right_ascents(system, w):
    mask = 0
    for s in range(system.rank):
        if system.length[system.rmul[w, s]] > system.length[w]:
            mask |= 1 << s
    return mask


def brute_left_ascents(system, w):
    lm = system.lmul()
    mask = 0
    for s in range(system.rank):
        if system.length[lm[w, s]] > system.length[w]:
            mask |= 1 << s
    return mask


@pytest.mark.parametrize("label", SMALL)
def test_descent_masks_match_length_function(system_factory, label):
    system = system_factory(label)
    for w in range(system.order):
        assert int(system.rasc[w]) == brute_right_ascents(system, w)
        assert int(system.lasc[w]) == brute_left_ascents(system, w)


@pytest.mark.parametrize("label", SMALL)
def test_words_are_reduced_and_reproduce_elements(system_factory, label):
    system = system_factory(label)
    for w in range(system.order):
        word = system.word(w)
        assert len(word) == int(system.length[w])
        assert system.mul(0, w) == w
        assert all(0 <= s < system.rank for s in word)


@pytest.mark.parametrize("label", SMALL)
def test_inverse_and_support_tables(system_factory, label):
    system = system_factory(label)
    for w in range(system.order):
        assert system.mul(w, int(system.inv[w])) == 0
        assert system.length[system.inv[w]] == system.length[w]
        msk = 0
        for s in system.word(w):
            msk |= 1 << s
        assert int(system.supp[w]) == msk


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "I2(5)", "H4"])
def test_multiplication_table_matches_word_walk(system_factory, label):
    # every row of the small groups at every column; a random batch of H4
    # rows, in random order and with a repeat, at random columns
    system = system_factory(label)
    rng = np.random.default_rng(5)
    if system.order < 100:
        us = np.arange(system.order)
        vs = range(system.order)
    else:
        us = rng.choice(system.order, 8, replace=False)
        us = np.append(us, us[0])
        vs = np.append(rng.choice(system.order, 200, replace=False),
                       [0, system.order - 1])
    mt = system.multiplication_table(us)
    assert mt.shape == (len(us), system.order)
    for u, row in zip(us, mt):
        assert np.array_equal(np.sort(row), np.arange(system.order))
        for v in vs:
            assert int(row[v]) == system.mul(u, v)
    assert np.array_equal(system.left_translation(us[1]), mt[1])


@pytest.mark.parametrize("label", SMALL)
def test_generator_conjugation_table(system_factory, label):
    system = system_factory(label)
    gens = {gen_index(system, s): s for s in range(system.rank)}
    for w in range(system.order):
        wi = int(system.inv[w])
        for s in range(system.rank):
            conj = system.mul(system.mul(wi, gen_index(system, s)), w)
            expect = gens.get(conj, -1)
            assert int(system.csany[w, s]) == expect


@pytest.mark.parametrize("label", SMALL)
def test_longest_element_complements_descents(system_factory, label):
    system = system_factory(label)
    w0 = system.order - 1
    assert int(system.length[w0]) == system.nroots
    assert system.mul(w0, w0) == 0
    full = system.full_mask
    for w in range(system.order):
        w0w = system.mul(w0, w)
        assert int(system.rasc[w0w]) == full ^ int(system.rasc[w])


@pytest.mark.parametrize("label", ["A3", "B3", "B4", "H3", "D4", "A2xA1"])
def test_coset_representative_counts(system_factory, label):
    system = system_factory(label)
    for mask in range(system.full_mask + 1):
        nreps = np.count_nonzero((system.rasc & mask) == mask)
        sub = len(system.parabolic_indices(mask))
        assert nreps * sub == system.order


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "I2(7)"])
def test_coset_reps_are_length_minimal(system_factory, label):
    system = system_factory(label)
    for mask in range(system.full_mask + 1):
        members = [int(v) for v in system.parabolic_indices(mask)]
        reps = set(np.flatnonzero((system.rasc & mask) == mask).tolist())
        seen = set()
        for w in range(system.order):
            coset = sorted(system.mul(w, v) for v in members)
            key = tuple(coset)
            if key in seen:
                continue
            seen.add(key)
            shortest = min(coset, key=lambda u: int(system.length[u]))
            assert shortest in reps
        assert len(seen) == len(reps)


@pytest.mark.parametrize("label", SMALL)
def test_parabolic_membership_is_word_support(system_factory, label):
    system = system_factory(label)
    for mask in range(system.full_mask + 1):
        members = set(int(v) for v in system.parabolic_indices(mask))
        for w in range(system.order):
            inside = all(s in set(iter_bits(mask)) for s in system.word(w))
            assert (w in members) == inside


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "I2(5)"])
def test_structure_sets_partition_double_reps(system_factory, label):
    system = system_factory(label)
    size = system.full_mask + 1
    for imask in range(size):
        for jmask in range(size):
            both = system.structure_set(imask, jmask)
            assert both.dtype == np.int64
            pieces = [system.structure_set(imask, jmask, kmask)
                      for kmask in range(size)]
            for kmask, piece in enumerate(pieces):
                tval = int(system.structure_tensor()[imask, jmask, kmask])
                assert len(piece) == tval
            assert np.array_equal(np.sort(np.concatenate(pieces)), both)


def brute_conjugates(system, jmask):
    """All masks w J w^{-1}, conjugating by every element of W."""
    img = oracles.conjugate_masks_all(system, jmask)
    return set(img[img >= 0].tolist())


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "H3"])
def test_shapes_match_brute_conjugacy(system_factory, label):
    system = system_factory(label)
    seen = set()
    for shape in system.shapes():
        assert shape.canonical in shape.members
        for member in shape.members:
            assert member not in seen
            seen.add(member)
            brute = brute_conjugates(system, member)
            assert brute == set(shape.members)
            assert popcount(member) == shape.cardinality_of_member
    assert seen == set(range(system.full_mask + 1))


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_subset_conjugator_witnesses(system_factory, label):
    system = system_factory(label)
    for shape in system.shapes():
        kmask = shape.canonical
        for jmask in shape.members:
            hits = np.flatnonzero(
                oracles.conjugate_masks_all(system, jmask) == kmask)
            assert hits.size
            # w J w^{-1} = K, so d = w^{-1} has d^{-1} J d = K
            w = int(system.inv[hits[0]])
            got = 0
            row = system.csany[w]
            for s in iter_bits(jmask):
                t = int(row[s])
                assert t >= 0
                got |= 1 << t
            assert got == kmask


def permuted_system(label, perm):
    _labels, mat = cartan.matrix_for_components(cartan.parse_label(label))
    return build_system(matrix=[[mat[a][b] for b in perm] for a in perm])


SHAPE_ROSTER = [(label, None) for label in SUPPORTED_TYPES + (
    "A2xA1", "A1xA1xA1xA1", "B3xA2", "H3xA1", "I2(509)xA1xA1xA1xA1")] + [
    ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)), ("A2xB2", (3, 0, 2, 1))]


def roster_system(system_factory, label, perm):
    if perm is None:
        return system_factory(label)
    return permuted_system(label, perm)


@pytest.mark.parametrize("label,perm", SHAPE_ROSTER)
def test_tensor_shapes_are_the_brute_conjugacy_classes(system_factory, label,
                                                       perm):
    system = roster_system(system_factory, label, perm)
    shapes = system.shapes()
    brute = {frozenset(brute_conjugates(system, jmask))
             for jmask in range(system.full_mask + 1)}
    assert {frozenset(shape.members) for shape in shapes} == brute
    keys = [(popcount(shape.canonical), shape.canonical) for shape in shapes]
    assert keys == sorted(keys)
    for cid, shape in enumerate(shapes):
        assert shape.class_id == cid
        assert shape.members == tuple(sorted(shape.members))
        assert shape.canonical == shape.members[0]
        assert all(system.shape_id_of_mask(m) == cid for m in shape.members)


@pytest.mark.parametrize("label,perm", SHAPE_ROSTER)
def test_walked_w0_twist_matches_enumerated_w0(system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    twist = system.w0_twist()
    w0 = system.order - 1
    assert int(system.length[w0]) == system.nroots
    assert twist == tuple(int(t) for t in system.csany[w0])


@pytest.mark.parametrize("label", SUPPORTED_TYPES + tuple(
    "I2(%d)" % m for m in range(3, 13)) + (
    "I2(4001)xA3", "A1xI2(300)xA2", "I2(7)xA2"))
def test_w0_twist_matches_the_walk_over_every_generator(label):
    system = build_system(type=label, cache=False)
    assert system.w0_twist() == oracles.w0_twist_walk(system)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_shape_order_respects_containment(system_factory, label):
    system = system_factory(label)
    for amask in range(system.full_mask + 1):
        sub = amask
        while True:
            assert oracles.shape_order_leq(
                system, system.shape_id_of_mask(sub),
                system.shape_id_of_mask(amask))
            if sub == 0:
                break
            sub = (sub - 1) & amask
    empty = system.shape_id_of_mask(0)
    full = system.shape_id_of_mask(system.full_mask)
    for shape in system.shapes():
        assert oracles.shape_order_leq(system, empty, shape.class_id)
        assert oracles.shape_order_leq(system, shape.class_id, full)
        assert oracles.shape_order_leq(system, shape.class_id, shape.class_id)


@pytest.mark.parametrize("label,w0_central", [
    ("A2", False), ("A3", False), ("B3", True), ("D4", True),
    ("H3", True), ("I2(5)", False), ("I2(6)", True), ("E6", False),
])
def test_longest_element_centrality(system_factory, label, w0_central):
    system = system_factory(label)
    assert (system.w0_twist() == tuple(range(system.rank))) == w0_central


@pytest.mark.parametrize("label", ["A3", "B3", "H3"])
def test_longest_in_parabolic(system_factory, label):
    system = system_factory(label)
    for mask in range(system.full_mask + 1):
        w = system.longest_in_parabolic(mask)
        members = set(int(v) for v in system.parabolic_indices(mask))
        assert w in members
        assert int(system.rasc[w]) & mask == 0
        assert system.mul(w, w) == 0
        assert int(system.length[w]) == max(
            int(system.length[v]) for v in members)


@pytest.mark.parametrize("label,h", [
    ("A2", 3), ("A3", 4), ("B2", 4), ("B3", 6), ("H3", 10),
    ("I2(7)", 7), ("F4", 12), ("D4", 6), ("E6", 12),
])
def test_coxeter_element_order(system_factory, label, h):
    system = system_factory(label)
    cox = 0
    for s in range(system.rank):
        cox = int(system.rmul[cox, s])
    assert system.order_of(cox) == h


@pytest.mark.parametrize("label,classes", [
    ("A2", 3), ("A3", 5), ("B2", 5), ("B3", 10), ("I2(5)", 4),
    ("I2(6)", 6), ("D4", 13), ("A1xA1", 4),
])
def test_conjugacy_class_counts(system_factory, label, classes):
    system = system_factory(label)
    cid, reps, sizes = system.element_classes()
    assert len(reps) == classes
    assert sum(sizes) == system.order


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "I2(5)"])
def test_element_classes_closed_under_conjugation(system_factory, label):
    system = system_factory(label)
    cid, reps, sizes = system.element_classes()
    for w in range(system.order):
        for g in range(system.order):
            conj = system.mul(system.mul(int(system.inv[g]), w), g)
            assert cid[conj] == cid[w]
    for c, rep in enumerate(reps):
        assert cid[rep] == c
        assert sizes[c] == int((cid == c).sum())


def test_label_round_trips(system_factory):
    system = system_factory("D4")
    assert system.labels == ["1p", "1", "2", "3"]
    mask = system.mask_of_labels(["1p", "2"])
    assert system.labels_of_mask(mask) == ["1p", "2"]
    with pytest.raises(InvalidSubset):
        system.mask_of_labels(["nope"])
    with pytest.raises(InvalidSubset):
        system.check_mask(system.full_mask + 1)


def test_explicit_matrix_agrees_with_named_build(system_factory):
    named = system_factory("B3")
    raw = build_system(matrix=[[1, 4, 2], [4, 1, 3], [2, 3, 1]])
    assert raw.order == named.order
    assert raw.type_label == "B3"
    assert np.array_equal(raw.structure_tensor(), named.structure_tensor())


def test_mismatched_labels_rejected():
    with pytest.raises(UnsupportedType):
        build_system(matrix=[[1, 3], [3, 1]], labels=["a"])
    with pytest.raises(UnsupportedType):
        build_system(matrix=[[1, 3], [3, 1]], labels=["a", "a"])


def test_rank_zero_system():
    trivial = build_system(matrix=[])
    assert trivial.order == 1
    assert trivial.rank == 0
    assert trivial.full_mask == 0
    assert trivial.type_label == "A0"
    assert trivial.structure_tensor().shape == (1, 1, 1)
    assert int(trivial.structure_tensor()[0, 0, 0]) == 1


def test_bit_helpers():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert popcount(0) == 0
    assert popcount(0b1011) == 3


# ---------------------------------------------------------------------------
# lazy, level-by-level enumeration against the per-element reference

GROUP_TABLES = ("parent", "lastgen", "length", "supp", "rmul", "rasc",
                "lasc", "csany", "inv")


def enumerate_by_element(system):
    """Reference enumeration: one element and one generator at a time,
    new elements found through a dict keyed by their root permutation."""
    n, N, order = system.rank, system.nroots, system.order
    spos, sperm, *_ = system._root_action()
    gidx = [np.abs(s).astype(np.intp) - 1 for s in sperm]
    gsgn = [np.sign(s).astype(np.int16) for s in sperm]

    P = np.empty((order, N), dtype=np.int16)
    P[0] = np.arange(1, N + 1, dtype=np.int16)
    index = {P[0].tobytes(): 0}
    parent = np.empty(order, dtype=np.int32)
    lastgen = np.empty(order, dtype=np.int8)
    length = np.empty(order, dtype=np.int16)
    supp = np.empty(order, dtype=np.int16)
    parent[0], lastgen[0], length[0], supp[0] = -1, -1, 0, 0
    rmul = np.full((order, n), -1, dtype=np.int32)
    count = 1
    lv_start = 0
    while lv_start < count:
        lv_end = count
        F = P[lv_start:lv_end]
        for pos in range(lv_end - lv_start):
            w = lv_start + pos
            for s in range(n):
                if F[pos, spos[s]] <= 0:
                    continue
                row = (gsgn[s] * F[pos, gidx[s]]).astype(np.int16)
                key = row.tobytes()
                v = index.get(key)
                if v is None:
                    v = count
                    index[key] = v
                    P[v] = row
                    parent[v] = w
                    lastgen[v] = s
                    length[v] = length[w] + 1
                    supp[v] = supp[w] | (1 << s)
                    count += 1
                rmul[w, s] = v
                rmul[v, s] = w
        lv_start = lv_end
    assert count == order

    PI = np.empty_like(P)
    cols = np.abs(P).astype(np.intp) - 1
    vals = np.sign(P).astype(np.int16) * np.arange(
        1, N + 1, dtype=np.int16)[None, :]
    np.put_along_axis(PI, cols, vals, axis=1)
    right_cols = P[:, spos]
    left_cols = PI[:, spos]
    rasc = np.zeros(order, dtype=np.int16)
    lasc = np.zeros(order, dtype=np.int16)
    for s in range(n):
        rasc |= (right_cols[:, s] > 0).astype(np.int16) << s
        lasc |= (left_cols[:, s] > 0).astype(np.int16) << s
    root_to_gen = np.full(N, -1, dtype=np.int8)
    for g in range(n):
        root_to_gen[spos[g]] = g
    csany = np.empty((order, n), dtype=np.int8)
    for s in range(n):
        csany[:, s] = root_to_gen[np.abs(left_cols[:, s]).astype(np.intp) - 1]
    inv = np.array([index[PI[w].tobytes()] for w in range(order)],
                   dtype=np.int32)
    return {"parent": parent, "lastgen": lastgen,
            "length": length, "supp": supp, "rmul": rmul, "rasc": rasc,
            "lasc": lasc, "csany": csany, "inv": inv}


def assert_tables_match_reference(system):
    expected = enumerate_by_element(system)
    for name in GROUP_TABLES:
        got = getattr(system, name)
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_group_tables_match_per_element_enumeration(system_factory, label):
    assert_tables_match_reference(system_factory(label))


def test_a7_group_tables_match_per_element_enumeration():
    assert_tables_match_reference(
        build_system(type="A7", allow_rank7=True, cache=False))


def test_rank_zero_group_tables_match_per_element_enumeration():
    assert_tables_match_reference(build_system(matrix=[]))


@pytest.mark.parametrize("label,perm", [
    ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)), ("A2xB2", (3, 0, 2, 1)),
])
def test_permuted_matrix_group_tables_match_per_element_enumeration(
        label, perm):
    _labels, mat = cartan.matrix_for_components(cartan.parse_label(label))
    permuted = [[mat[a][b] for b in perm] for a in perm]
    assert_tables_match_reference(build_system(matrix=permuted))


@pytest.mark.parametrize("label", [
    "I2(509)xA1xA1xA1xA1", "I2(251)xA1xA1xA1xA1xA1", "A1xI2(300)xA2",
])
def test_many_root_group_tables_match_per_element_enumeration(label):
    # a large dihedral factor gives more roots than one key field per
    # generator of the same width could hold
    assert_tables_match_reference(
        build_system(type=label, allow_rank7=True, cache=False))


def test_large_dihedral_product_enumerates():
    system = build_system(type="I2(250)xA2xA2xA1", allow_rank7=True,
                          cache=False)
    assert system.order == 36000
    ids = np.arange(system.order)
    assert np.array_equal(system.inv[system.inv], ids)
    for s in range(system.rank):
        assert np.array_equal(system.rmul[system.rmul[:, s], s], ids)
    assert int(system.length[-1]) == system.nroots == 257


def test_element_key_overflow_raises_on_construction():
    # the smallest system whose element key needs more than 63 bits
    with pytest.raises(UnsupportedType, match="int64 key"):
        build_system(type="A3xI2(2049)xI2(2049)", allow_rank7=True,
                     cache=False)
    system = build_system(type="A3xI2(2048)xI2(2049)", allow_rank7=True,
                          cache=False)
    assert not set(GROUP_TABLES) & set(system.__dict__)


def test_warm_multiply_never_enumerates(system_factory, monkeypatch):
    system_factory("B4").structure_tensor()     # primes the cache

    # nor does it build the root action
    def refuse(*args):
        raise AssertionError("root action built for a warm product")

    monkeypatch.setattr(rootperm, "build_root_action", refuse)
    system = build_system(type="B4")
    left = parse_expression(system, "x[1,2] + 2*x[3]")
    right = parse_expression(system, "x[2,4] - x[]")
    text = str(multiply(left, right))
    assert text
    assert "rmul" not in system.__dict__
    assert not set(GROUP_TABLES) & set(system.__dict__)


def test_warm_table_rows_never_enumerate(system_factory):
    for label in SUPPORTED_TYPES:
        system_factory(label).structure_tensor()    # primes the cache
        system = build_system(type=label)
        for order in available_sigma_orders(system):
            build_row(label, order, system=system)
        automorphisms.sigma0(system)
        system.w0_twist()
        system.shapes()
        algebra.tau_matrix(system)
        assert not set(GROUP_TABLES) & set(system.__dict__), label


def test_enumeration_holds_one_level_of_root_permutations():
    # the int16 root permutations of the whole group, order x N x 2
    # bytes (1.73 MB on H4), are never held at once: beyond the tables
    # it returns, the enumeration's peak stays below them
    system = build_system(type="H4", cache=False)
    tracemalloc.start()
    try:
        system._build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tables = sum(getattr(system, name).nbytes for name in GROUP_TABLES)
    assert peak - tables < system.order * system.nroots * 2


@pytest.mark.parametrize("name", GROUP_TABLES)
def test_reading_one_table_builds_all(name):
    system = build_system(type="B3", cache=False)
    assert not set(GROUP_TABLES) & set(system.__dict__)
    getattr(system, name)
    assert set(GROUP_TABLES) <= set(system.__dict__)


def test_construction_errors_raise_before_enumeration():
    with pytest.raises(RankCapExceeded):
        build_system(type="E7")
    with pytest.raises(RankCapExceeded):
        build_system(type="A8", allow_rank7=True)
    with pytest.raises(UnsupportedType):
        build_system(matrix=[[1, 3], [2, 1]])
    with pytest.raises(UnsupportedType):
        build_system(matrix=[[1, 3, 2], [3, 1, 3]])
    with pytest.raises(InfiniteGroup):
        build_system(matrix=[[1, 3, 3], [3, 1, 3], [3, 3, 1]])


# ---------------------------------------------------------------------------
# vectorized consumers of the group tables against per-element loops


def theta_by_element(system):
    """Reference coset-character table: each class representative
    conjugated by every element, one element at a time through the parent
    tree, on Python lists."""
    size = 1 << system.rank
    conj = system.conj_tables().tolist()
    parent, lastgen = system.parent.tolist(), system.lastgen.tolist()
    supp = system.supp.tolist()
    _cls, reps, _sizes = system.element_classes()
    par_orders = [len(system.parabolic_indices(m)) for m in range(size)]
    out = []
    for r in reps:
        m = [r] * system.order
        cnts = [0] * size
        cnts[supp[r]] += 1
        for w in range(1, system.order):
            m[w] = conj[m[parent[w]]][lastgen[w]]
            cnts[supp[m[w]]] += 1
        for b in range(system.rank):
            for msk in range(size):
                if msk >> b & 1:
                    cnts[msk] += cnts[msk ^ (1 << b)]
        out.append(tuple(int(cnts[msk]) // par_orders[msk]
                         for msk in range(size)))
    return tuple(out)


def bhs_by_element(system, theta):
    """Reference BHS pairing: class-by-ascent-set counts one element at
    a time."""
    size = 1 << system.rank
    cls, _reps, sizes = system.element_classes()
    cnt = np.zeros((len(sizes), size), dtype=np.int64)
    for w in range(system.order):
        cnt[int(cls[w]), int(system.rasc[w])] += 1
    for b in range(system.rank):
        for msk in range(size):
            if not msk >> b & 1:
                cnt[:, msk] += cnt[:, msk | (1 << b)]
    return tuple(
        tuple(sum(theta[c][i] * int(cnt[c, j]) for c in range(len(sizes)))
              for j in range(size))
        for i in range(size))


def refine_mask_by_element(system, d, imask, jmask):
    out = 0
    for s in iter_bits(imask):
        t = int(system.csany[d, s])
        if t >= 0:
            out |= 1 << t
    return out & jmask


@pytest.mark.parametrize("label", ["B4", "D5", "F4", "H4"])
def test_theta_and_bhs_match_per_element_loops(system_factory, label):
    system = system_factory(label)
    theta = theta_value_table(system)
    assert theta == theta_by_element(system)
    assert bhs_pairing(system) == bhs_by_element(system, theta)


@pytest.mark.parametrize("label", ["B4", "D5", "F4", "H4"])
def test_refined_structure_sets_match_per_element_masks(system_factory,
                                                        label):
    system = system_factory(label)
    size = system.full_mask + 1
    # every I against a spread of J keeps H4 and D5 quick
    for imask in range(size):
        for jmask in range(imask % 4, size, 4):
            both = system.structure_set(imask, jmask)
            masks = np.array([refine_mask_by_element(system, d, imask, jmask)
                              for d in both.tolist()], dtype=np.int64)
            for kmask in set(masks.tolist()) | {jmask, 0}:
                assert np.array_equal(
                    system.structure_set(imask, jmask, kmask),
                    both[masks == kmask])


# ---------------------------------------------------------------------------
# one route per conjugacy fact against the per-element and per-member routes


# every permutation of five generators is a diagram automorphism of A1^5,
# so its cycle types mix lengths 2 and 3
CONJUGACY_ROSTER = [(label, None) for label in SUPPORTED_TYPES + (
    "A2xA1", "A1xA1xA1xA1", "B3xA2", "A1xA1xA1xA1xA1")] + [
    ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)), ("A2xB2", (3, 0, 2, 1))]


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_element_classes_match_the_graph_search(system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    cid, reps, sizes = system.element_classes()
    want_cid, want_reps, want_sizes = oracles.element_classes_search(system)
    assert cid.dtype == np.int32 and np.array_equal(cid, want_cid)
    assert reps == want_reps and sizes == want_sizes


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_theta_matches_the_conjugation_walks(system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    theta = theta_value_table(system)
    assert theta == theta_by_element(system)
    assert theta == oracles.theta_by_conjugation_walk(system)


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_shape_order_is_read_off_the_tensor(system_factory, label, perm):
    # T[I, J, J] > 0 exactly when a member of J's shape lies inside a
    # member of I's shape
    system = roster_system(system_factory, label, perm)
    shapes, m2s = system.shape_classes()
    leq = np.array([[oracles.shape_order_leq(system, a, b)
                     for b in range(len(shapes))]
                    for a in range(len(shapes))])
    masks = np.arange(system.full_mask + 1)
    m2s = np.asarray(m2s)
    T = system.structure_tensor()
    assert np.array_equal(T[:, masks, masks] > 0,
                          leq[m2s[None, :], m2s[:, None]])


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_saturated_families_match_member_containment(system_factory, label,
                                                     perm):
    system = roster_system(system_factory, label, perm)
    size = system.full_mask + 1
    rng = np.random.default_rng(size)
    vectors = [algebra.basis_x(system, m) for m in (0, size - 1, size // 3)]
    vectors += [algebra.DescentVector.from_ints(
        system, (rng.random(size) < 0.15) * rng.integers(-3, 4, size))
        for _ in range(3)]
    for v in vectors:
        assert (algebra.saturated_family(v)
                == oracles.saturated_family_by_members(v, True))


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_self_opposed_subsets_match_conjugation(system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    for kmask in range(system.full_mask + 1):
        assert (morphisms.is_self_opposed(system, kmask)
                == oracles.is_self_opposed_by_conjugation(system, kmask))


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_automorphisms_act_on_shapes(system_factory, label, perm):
    # each automorphism sends all members of a shape into one shape, and
    # the orbits and orders of the one cycle walk match the walks point by
    # point
    system = roster_system(system_factory, label, perm)
    shapes, m2s = system.shape_classes()
    for sigma in automorphisms.diagram_automorphisms(system):
        images = expand_masks(sigma.permutation)
        for shape in shapes:
            assert len({m2s[images[m]] for m in shape.members}) == 1
        assert sigma.order == oracles.perm_order_walk(sigma.permutation)
        assert (automorphisms.mask_orbits(system, sigma)
                == oracles.mask_orbits_walk(system, sigma))
        assert (automorphisms.shape_orbits(system, sigma)
                == oracles.shape_orbits_walk(system, sigma))


# ---------------------------------------------------------------------------
# vectorized structure tensor against the per-signature loop


def tensor_by_signature_loop(system):
    """Reference structure tensor: signatures counted in a dict, then every
    pair of subsets I of L(d) and J of R(d) visited one at a time."""
    full = 1 << system.rank
    sigs = {}
    for d in range(system.order):
        amask = int(system.lasc[d])
        row = system.csany[d]
        cmap = tuple(int(row[s]) for s in iter_bits(amask))
        key = (amask, int(system.rasc[d]), cmap)
        sigs[key] = sigs.get(key, 0) + 1
    T = np.zeros((full, full, full), dtype=np.int64)
    for (amask, bmask, cmap), mult in sigs.items():
        images = {}
        for pos, s in enumerate(iter_bits(amask)):
            t = cmap[pos]
            images[1 << s] = (1 << t) if t >= 0 else 0
        imask = amask
        while True:
            dmask = 0
            rem = imask
            while rem:
                low = rem & -rem
                dmask |= images[low]
                rem ^= low
            jmask = bmask
            while True:
                T[imask, jmask, dmask & jmask] += mult
                if jmask == 0:
                    break
                jmask = (jmask - 1) & bmask
            if imask == 0:
                break
            imask = (imask - 1) & amask
    return T


def assert_tensor_matches_reference(system, loop=True):
    """The streamed tensor, computed before any group table is built,
    against the table histogram and, with ``loop``, the per-signature
    loop."""
    got = dense_tensor(system.rank, system._compute_tensor())
    assert np.array_equal(got, oracles.tensor_by_table_histogram(system))
    if loop:
        assert np.array_equal(got, tensor_by_signature_loop(system))


@pytest.mark.parametrize("label", SUPPORTED_TYPES)
def test_tensor_matches_signature_loop(label):
    assert_tensor_matches_reference(build_system(type=label, cache=False))


@pytest.mark.parametrize("system", [
    lambda: build_system(type="A7", allow_rank7=True, cache=False),
    lambda: build_system(matrix=[]),
    lambda: build_system(type="I2(509)xA1xA1xA1xA1", cache=False),
    lambda: build_system(type="I2(251)xA1xA1xA1xA1xA1", allow_rank7=True,
                         cache=False),
    lambda: build_system(type="A1xI2(300)xA2", cache=False),
    # w0 twists both factors; N = 9 and N = 10, so the half walk ends
    # below the middle and on a middle level mapped onto itself
    lambda: build_system(type="A2xA3", cache=False),
    lambda: build_system(type="I2(7)xA2", cache=False),
], ids=["A7", "rank0", "I2(509)xA1xA1xA1xA1", "I2(251)xA1xA1xA1xA1xA1",
        "A1xI2(300)xA2", "A2xA3", "I2(7)xA2"])
def test_more_tensors_match_signature_loop(system):
    assert_tensor_matches_reference(system())


@pytest.mark.parametrize("label", ["B7", "D7"])
def test_rank7_tensors_match_table_histogram(label):
    assert_tensor_matches_reference(
        build_system(type=label, allow_rank7=True, cache=False), loop=False)


@pytest.mark.parametrize("label,perm", [
    ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)), ("A2xB2", (3, 0, 2, 1)),
])
def test_permuted_matrix_tensor_matches_signature_loop(label, perm):
    _labels, mat = cartan.matrix_for_components(cartan.parse_label(label))
    permuted = [[mat[a][b] for b in perm] for a in perm]
    assert_tensor_matches_reference(build_system(matrix=permuted))


@pytest.mark.parametrize("system", [
    lambda: build_system(type="B3", cache=False),
    lambda: build_system(type="D4", cache=False),
    lambda: build_system(type="A1", cache=False),
    lambda: build_system(matrix=[]),
], ids=["B3", "D4", "A1", "rank0"])
def test_cold_tensor_walks_the_lower_half(monkeypatch, system):
    system = system()
    walk = system._levels
    depths = {}

    def counted(choose, mirrored=False):
        depths[mirrored] = 0
        for level in walk(choose, mirrored):
            depths[mirrored] += 1
            yield level

    monkeypatch.setattr(system, "_levels", counted)
    system._compute_tensor()
    assert depths == {True: system.nroots // 2}
    system._build()
    assert depths == {True: system.nroots // 2, False: system.nroots}


@pytest.mark.parametrize("label,twisted", [
    ("A3", True), ("D5", True), ("E6", True), ("I2(5)", True),
    ("A2xA3", True), ("I2(7)xA2", True), ("B3", False),
])
def test_cold_tensor_mirrors_the_descent_data(monkeypatch, label, twisted):
    # the signature of w0 w is read off the descent data of w: each level
    # below the middle must give the descent data of the rows of w0 w
    system = build_system(type=label, cache=False)
    sigma = list(system.w0_twist())
    assert (sigma != list(range(system.rank))) == twisted
    identity = (system._root_action()[0] + 1).astype(np.int16)[None]
    rows, keyed = [(identity, identity)], []
    walk, keys = system._levels, coxeter.signature_keys

    def walked(choose, mirrored=False):
        for level in walk(choose, mirrored):
            rows.append(level[3:5])
            yield level

    def recorded(n, *data):
        keyed.append(data)
        return keys(n, *data)

    monkeypatch.setattr(system, "_levels", walked)
    monkeypatch.setattr(coxeter, "signature_keys", recorded)
    system._compute_tensor()
    calls = iter(keyed)
    for depth, (right, left) in enumerate(rows):
        expected = [system._descent_data(right, left)]
        if 2 * depth < system.nroots:
            expected.append(system._descent_data(-right, -left[:, sigma]))
        for want in expected:
            got = next(calls)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert next(calls, None) is None


def streamed_histogram(system):
    """(n, sigs, mult) that the cold tensor of ``system`` folds, taken
    from its streamed walk, which builds no group table."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coxeter, "tensor_from_signatures",
                      lambda *args: seen.append(args))
        system._compute_tensor()
    assert not set(GROUP_TABLES) & set(system.__dict__)
    return seen[0]


def assert_fold_matches_three_pass(n, sigs, mult):
    got = coxeter.tensor_from_signatures(n, sigs, mult)
    assert got.dtype == np.int64
    J, K, _starts = support_pairs(n)
    assert np.array_equal(
        got, oracles.tensor_from_signatures_three_pass(n, sigs, mult)[:, J, K])
    return got


@pytest.mark.parametrize("label", SUPPORTED_TYPES + ("A7", "D7"))
def test_fold_matches_three_pass_on_group_histograms(label):
    assert_fold_matches_three_pass(*streamed_histogram(
        build_system(type=label, allow_rank7=True, cache=False)))


def synthetic_histogram(n, seed, inside, size=300):
    """Sorted signature keys of random (a, b, codes), the codes of a
    injective like those of a conjugation, with random counts. With
    ``inside`` the image D of a is added to b: D lies inside the right
    ascents of every group element. Without, b is drawn apart from D, so
    most keys belong to no element."""
    rng = np.random.default_rng(seed)
    width = n.bit_length()
    a, b = rng.integers(0, 1 << n, size=(2, size))
    # one permutation of the generators per key, each image kept or not
    perms = rng.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
    codes = image = 0
    for s in range(n):
        code = np.where(rng.random(size) < 0.7, perms[:, s] + 1, 0)
        code = np.where(a >> s & 1, code, 0)
        codes |= code << (s * width)
        image |= (1 << code) >> 1
    if inside:
        b |= image
    sigs = np.unique((a << n | b) << (n * width) | codes)
    return n, sigs, rng.integers(1, 1000, size=len(sigs))


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_matches_three_pass_on_synthetic_histograms(n, seed):
    assert_fold_matches_three_pass(*synthetic_histogram(n, seed, True))


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_rejects_codes_outside_the_right_ascents(n, seed):
    with pytest.raises(AssertionError, match="right ascents"):
        coxeter.tensor_from_signatures(*synthetic_histogram(n, seed, False))


def test_fold_rejects_two_generators_with_one_image():
    # a = b = {1, 2} with 1 -> 1 and 2 -> 1: no conjugation does that
    n, width = 2, 2
    sigs = np.array([(0b11 << n | 0b11) << n * width | 1 | 1 << width])
    with pytest.raises(AssertionError, match="distinct"):
        coxeter.tensor_from_signatures(n, sigs, np.array([1]))


@pytest.mark.parametrize("mult,top", [
    # past the int32 accumulator, and just inside it
    ([2 ** 31 + 5], 2 ** 31 + 5), ([2 ** 30, 2 ** 30 - 1], 2 ** 31 - 1),
])
def test_fold_counts_past_int32(mult, top):
    n, width = 3, 2
    # a = b = S with 1 -> 2, 2 -> 3 and 3 -> none; a = b = {1}, 1 -> 1
    keys = [(0b111 << n | 0b111) << n * width | 2 | 3 << width,
            (0b001 << n | 0b001) << n * width | 1]
    sigs = np.sort(np.array(keys[:len(mult)], dtype=np.int64))
    Tc = assert_fold_matches_three_pass(n, sigs, np.array(mult))
    # every element counts towards T[{}, {}, {}], the first pair
    assert Tc[0, 0] == top


def test_cold_tensor_leaves_the_group_tables_unbuilt():
    system = build_system(type="D5", cache=False)
    system.structure_tensor()
    assert not set(GROUP_TABLES) & set(system.__dict__)


@pytest.mark.parametrize("walk", ["_build", "_compute_tensor"])
@pytest.mark.parametrize("order,problem", [
    (40, "more than 40 elements"), (49, "found 48 elements, expected 49"),
])
def test_both_walks_count_the_elements(walk, order, problem):
    # B3 has 48 elements
    system = build_system(type="B3", cache=False)
    system.order = order
    with pytest.raises(AssertionError, match=problem):
        getattr(system, walk)()


@pytest.mark.parametrize("index,delta,problem", [
    ((0b111, 1, 1), 1, "is not the identity"),      # S = 0b111 in B3
    ((1, 0b111, 1), -1, "is not the identity"),
    ((0, 0, 0), 1, "Mackey"),
], ids=["unit-row", "unit-column", "mackey"])
def test_corrupted_tensor_trips_invariant(system_factory, index, delta,
                                          problem):
    system = system_factory("B3")
    i, j, k = index
    J, K, _starts = support_pairs(system.rank)
    Tc = algebra._tensor_support(system)[0].copy()
    args = (system.matrix, system.order, system.type_label)
    check_support(Tc, *args)
    Tc[i, (J == j) & (K == k)] += delta
    with pytest.raises(AssertionError, match=problem):
        check_support(Tc, *args)


def test_reference_check_trips_outside_the_support(system_factory):
    # the dense tensor is only scattered from the support, so only the
    # reference check of a dense T can see an entry off it
    system = system_factory("B3")
    T = system.structure_tensor().copy()
    args = (system.matrix, system.order, system.type_label)
    oracles.check_tensor(T, *args)
    T[0, 0b001, 0b010] += 1
    with pytest.raises(AssertionError, match="not inside J"):
        oracles.check_tensor(T, *args)


@pytest.mark.parametrize("label", SUPPORTED_TYPES + ("A7", "D7"))
def test_dense_tensor_passes_the_reference_check(system_factory, label):
    system = system_factory(label, allow_rank7=label.endswith("7"))
    oracles.check_tensor(system.structure_tensor(), system.matrix,
                         system.order, system.type_label)


def test_fresh_tensor_is_checked(monkeypatch):
    system = build_system(type="A3", cache=False)
    bad = system._compute_tensor()
    # the first pair is (J, K) = ({}, {})
    bad[0, 0] += 1
    monkeypatch.setattr(system, "_compute_tensor", lambda: bad)
    with pytest.raises(AssertionError, match="Mackey"):
        system.structure_tensor()


def test_int16_root_numbering_limit(monkeypatch):
    # the signed root numbers are int16: 32767 positive roots at most.
    # Systems are lazy, so I2(32767) builds without enumerating
    system = build_system(type="I2(32767)")
    assert system.nroots == 32767

    # the count is checked after classifying and before any root array
    # is built
    def refuse(*args):
        raise AssertionError("root arrays built before the count check")

    monkeypatch.setattr(rootperm, "build_root_action", refuse)
    for label, count in (("I2(32768)", 32768), ("I2(20000)xI2(20000)", 40000)):
        with pytest.raises(UnsupportedType,
                           match="has %d positive roots" % count):
            build_system(type=label)
    with pytest.raises(UnsupportedType, match="has 32768 positive roots"):
        build_system(matrix=[[1, 32768], [32768, 1]])


# ---------------------------------------------------------------------------
# root action against the per-root splice


def root_action_by_root(mat):
    """Reference root action: each component block spliced into the
    global numbering one root at a time. Returns the root count, the
    root permutations, the simple root of each generator and the offset
    of its block."""
    n = len(mat)
    plans, total = [], 0
    for nodes in cartan.diagram_components(mat):
        fam, p, order = cartan.classify_component(nodes, mat)
        local = rootperm._component_sperm(fam, p)
        plans.append((order, local))
        total += len(local[0])
    sperm = [np.arange(1, total + 1, dtype=np.int16) for _ in range(n)]
    simple_index, offsets = [0] * n, [0] * n
    offset = 0
    for order, local in plans:
        nroots = len(local[0])
        for k, node in enumerate(order):
            block = local[k]
            sg = sperm[node]
            offsets[node] = offset
            for i in range(nroots):
                v = int(block[i])
                sg[offset + i] = (abs(v) + offset) * (1 if v > 0 else -1)
                if v < 0:
                    simple_index[node] = offset + i
        offset += nroots
    return total, sperm, simple_index, offsets


@pytest.mark.parametrize("label,perm", [
    (label, None) for label in SUPPORTED_TYPES + ("A2xB2xA1",)] + [
    ("F4", (2, 0, 3, 1)), ("D5", (4, 1, 3, 0, 2)), ("A2xB2", (3, 0, 2, 1))])
def test_root_action_matches_per_root_splice(label, perm):
    _labels, mat = cartan.matrix_for_components(cartan.parse_label(label))
    if perm is not None:
        mat = [[mat[a][b] for b in perm] for a in perm]
    sperm, simple_index, first_root = rootperm.build_root_action(
        len(mat), cartan.classify_parts(mat))
    total, ref_sperm, ref_simple, ref_offsets = root_action_by_root(mat)
    assert simple_index == ref_simple
    assert first_root == ref_offsets
    for got, expect in zip(sperm, ref_sperm, strict=True):
        assert got.dtype == np.int16
        assert got.shape == (total,)
        assert np.array_equal(got, expect)


# sha256 of the shape and the bytes of each standard component's root
# permutations, first 16 hex digits: the root numbering every group table
# and cache file rests on
COMPONENT_SPERM_DIGESTS = {
    ("A", 1): "6550d2f34575375b",
    ("A", 2): "de64a771ae431dd6",
    ("A", 3): "7768d3c7e57ab482",
    ("A", 4): "c419f4d54ab08d98",
    ("A", 5): "3909a21e584e531c",
    ("A", 6): "e552aa8b57a3cb9e",
    ("A", 7): "ebf1d0a928c77f98",
    ("A", 8): "85312f860a71eb02",
    ("B", 2): "eaf7954bd6b657e0",
    ("B", 3): "d0dab7bc55e042ea",
    ("B", 4): "25d9b0335e07fe5b",
    ("B", 5): "23840da2fd9a7daa",
    ("B", 6): "58278ce0b860e4da",
    ("B", 7): "99bfa19a18f3c67f",
    ("B", 8): "084fdd74c14a783b",
    ("D", 4): "65e7da4641c9e557",
    ("D", 5): "e63a75fd09cade71",
    ("D", 6): "293da5ef3e30d0b8",
    ("D", 7): "36bae6122303c788",
    ("D", 8): "3cce253035ba403f",
    ("E", 6): "3da221c439f50085",
    ("E", 7): "b80dbe1bd046b652",
    ("E", 8): "b031ca207360ac20",
    ("F", 4): "84ae7161b3770ce2",
    ("H", 3): "b341d7646d9891ef",
    ("H", 4): "a62a67f256f6d308",
    ("I", 3): "1c9e9a72f1a195c3",
    ("I", 4): "d45731eed1c070a3",
    ("I", 5): "810dd629b830af99",
    ("I", 6): "0cb219d789b4c0d7",
    ("I", 7): "e3af6d7efd15c58e",
    ("I", 8): "6ba3a7e6926e51f4",
    ("I", 12): "a6a76d47a5447d40",
}


@pytest.mark.parametrize("fam,p", sorted(COMPONENT_SPERM_DIGESTS))
def test_component_root_actions_are_pinned(fam, p):
    arr = np.stack(rootperm._component_sperm(fam, p))
    digest = hashlib.sha256(str(arr.shape).encode() + arr.tobytes())
    assert digest.hexdigest()[:16] == COMPONENT_SPERM_DIGESTS[fam, p]


@pytest.mark.parametrize("kwargs,components,type_label", [
    ({"type": "A2xB2xA1"}, [(0, 1), (2, 3), (4,)], "A2xB2xA1"),
    ({"matrix": [[1, 2, 2, 3, 2], [2, 1, 4, 2, 2], [2, 4, 1, 2, 2],
                 [3, 2, 2, 1, 2], [2, 2, 2, 2, 1]]},
     [(0, 3), (1, 2), (4,)], "A1xA2xB2"),
], ids=["label", "matrix"])
def test_each_component_is_classified_once_per_build(
        monkeypatch, kwargs, components, type_label):
    calls = []
    classify = cartan.classify_component

    def counted(nodes, mat):
        calls.append(tuple(nodes))
        return classify(nodes, mat)

    monkeypatch.setattr(cartan, "classify_component", counted)
    assert build_system(**kwargs).type_label == type_label
    assert calls == components


@pytest.mark.parametrize("label", SUPPORTED_TYPES + (
    "A7", "B7", "D7", "E7", "A2xB2xA1"))
def test_classified_order_is_the_standard_numbering(label):
    # matrix_for_components numbers each component's generators in the
    # standard order, so classification must hand them back unchanged
    _labels, mat = cartan.matrix_for_components(cartan.parse_label(label))
    components = cartan.diagram_components(mat)
    assert [n for nodes in components for n in nodes] == list(range(len(mat)))
    for nodes in components:
        _fam, _p, order = cartan.classify_component(nodes, mat)
        assert order == nodes


# every finite Coxeter type of order at most 1152 and rank at least 2
PERMUTABLE_TYPES = ("A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3",
                    "I2(5)", "I2(8)", "A2xA1", "A1xA1xA1", "A3xA1", "B3xA1",
                    "H3xA1", "A2xB2", "A2xA2", "D4xA1", "A1xA1xA1xA1")


@st.composite
def permuted_types(draw):
    label = draw(st.sampled_from(PERMUTABLE_TYPES))
    rank = cartan.total_rank(cartan.parse_label(label))
    return label, tuple(draw(st.permutations(range(rank))))


@settings(max_examples=40, deadline=None)
@given(permuted_types())
def test_generator_permutations_preserve_every_conjugacy_fact(case):
    label, perm = case
    base = build_system(type=label)
    system = permuted_system(label, perm)
    # permuted mask m is the base mask e[m]: generator a is base perm[a]
    e = expand_masks(perm)
    assert (cartan.classify_matrix(system.matrix)
            == cartan.classify_matrix(base.matrix))
    assert np.array_equal(system.structure_tensor(),
                          base.structure_tensor()[np.ix_(e, e, e)])
    assert algebra.loewy_profile(system) == algebra.loewy_profile(base)
    assert ({frozenset(e[list(s.members)].tolist()) for s in system.shapes()}
            == {frozenset(s.members) for s in base.shapes()})
    for m in range(system.full_mask + 1):
        family = algebra.saturated_family(algebra.basis_x(system, m))
        assert set(e[sorted(family)].tolist()) == algebra.saturated_family(
            algebra.basis_x(base, int(e[m])))
        assert (morphisms.is_self_opposed(system, m)
                == morphisms.is_self_opposed(base, int(e[m])))
    assert (sorted(system.element_classes()[2])
            == sorted(base.element_classes()[2]))


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_conjugators_are_the_refined_structure_sets(system_factory, label,
                                                    perm):
    # X_{K,K',K'} holds the d with d K' d^{-1} = K, and X_{K,K,K} the
    # normalizer complement of W_K, as found by conjugating by every
    # element; every K is a member of its shape, so K' = K is covered
    system = roster_system(system_factory, label, perm)
    for shape in system.shapes():
        for kmask in shape.members:
            for kpmask in shape.members:
                assert np.array_equal(
                    system.structure_set(kmask, kpmask, kpmask),
                    oracles.conjugators_by_conjugation(system, kmask, kpmask))


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_longest_in_parabolic_matches_the_ascent_walk(system_factory, label,
                                                      perm):
    system = roster_system(system_factory, label, perm)
    for mask in range(system.full_mask + 1):
        assert (system.longest_in_parabolic(mask)
                == oracles.longest_in_parabolic_walk(system, mask))


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_generator_images_give_the_identity(system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    gens = [int(system.rmul[0, s]) for s in range(system.rank)]
    assert np.array_equal(system.homomorphism_images(system, gens),
                          np.arange(system.order))


@pytest.mark.parametrize("label,perm", CONJUGACY_ROSTER)
def test_parabolic_embeddings_land_on_the_parabolic_subgroup(
        system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    for kmask in range(system.full_mask + 1):
        sub = morphisms.parabolic_system(system, kmask)
        gens = [int(system.rmul[0, p]) for p in iter_bits(kmask)]
        images = sub.homomorphism_images(system, gens)
        assert len(np.unique(images)) == sub.order
        assert np.array_equal(np.sort(images),
                              system.parabolic_indices(kmask))


QUOTIENT_ROSTER = [
    (label, perm) for label, perm in CONJUGACY_ROSTER
    if len(cartan.matrix_for_components(cartan.parse_label(label))[1]) <= 4]


@pytest.mark.parametrize("label,perm", QUOTIENT_ROSTER)
def test_quotient_images_match_the_word_loop(system_factory, label, perm):
    system = roster_system(system_factory, label, perm)
    for kmask in range(system.full_mask + 1):
        if morphisms.is_self_opposed(system, kmask):
            ctx = morphisms.build_context(system, kmask)
            assert np.array_equal(ctx.images,
                                  oracles.quotient_images_by_words(ctx))


class TestMemoized:
    def test_runs_once_per_object_and_arguments(self):
        calls = []

        class Box:
            pass

        @memoized
        def double(box, k):
            calls.append((box, k))
            return [2 * k]

        a, b = Box(), Box()
        assert double(a, 1) is double(a, 1)
        assert double(a, 2) == [4]
        assert double(b, 1) == [2] and double(b, 1) is not double(a, 1)
        assert calls == [(a, 1), (a, 2), (b, 1)]

    def test_systems_of_one_type_do_not_share_values(self):
        a = build_system(type="A3", cache=False)
        b = build_system(type="A3", cache=False)
        assert a.structure_tensor() is a.structure_tensor()
        assert a.structure_tensor() is not b.structure_tensor()
        assert a.shapes() is not b.shapes()
        assert algebra.radical_basis(a) is not algebra.radical_basis(b)
        assert (morphisms.parabolic_system(a, 0b011)
                is not morphisms.parabolic_system(b, 0b011))

    def test_a_dropped_system_is_freed(self):
        system = build_system(type="A3", cache=False)
        system.structure_tensor()
        system.shapes()
        algebra.tau_matrix(system)
        algebra.radical_basis(system)
        algebra.loewy_profile(system)
        sub = morphisms.parabolic_system(system, 0b011)
        assert morphisms.parabolic_system(system, 0b011) is sub
        assert morphisms.parabolic_system(system, system.full_mask) is system
        ref = weakref.ref(system)
        del system
        gc.collect()
        assert ref() is None

    def test_a_row_batch_is_not_stored(self):
        system = build_system(type="H4", cache=False)
        system.rmul    # enumerating memoizes the root action
        memo = dict(system.__dict__["_memo"])
        system.multiplication_table([0, 1, system.order - 1])
        system.left_translation(2)
        assert system.__dict__["_memo"] == memo
