"""Type labels, Coxeter matrices, and finite-type recognition.

A Coxeter matrix is stored as a plain list of lists of ints, m[i][j] being the
order of s_i s_j (1 on the diagonal, 2 for commuting pairs).
"""

from __future__ import annotations

import functools
import math
import re

from .errors import InfiniteGroup, RankCapExceeded, UnsupportedType

RANK_CAP = 6
RANK_CAP_EXTENDED = 7

_COMPONENT_RE = re.compile(r"^(?:([ABDEFH])(\d+)|I2\((\d+)\)|G2)$")

_FAMILY_RANKS = {
    "A": lambda p: p >= 1,
    "B": lambda p: p >= 2,
    "D": lambda p: p >= 2,
    "E": lambda p: p in (6, 7, 8),
    "F": lambda p: p == 4,
    "H": lambda p: p in (3, 4),
    "I": lambda p: p >= 3,
}


def parse_label(label):
    """Parse a type label like "B4", "I2(7)" or "A2xB2xA1".

    Returns a list of (family, param) pairs, one per irreducible component,
    in the order written. G2 is normalized to ("I", 6).
    """
    if not isinstance(label, str) or not label.strip():
        raise UnsupportedType("empty type label")
    parts = label.strip().split("x")
    comps = []
    for part in parts:
        part = part.strip()
        m = _COMPONENT_RE.match(part)
        if not m:
            raise UnsupportedType("cannot parse type component %r" % part)
        if part == "G2":
            fam, p = "I", 6
        elif m.group(3) is not None:
            fam, p = "I", int(m.group(3))
        else:
            fam, p = m.group(1), int(m.group(2))
        if not _FAMILY_RANKS[fam](p):
            raise UnsupportedType("unsupported rank for %s: %d" % (fam, p))
        comps.append((fam, p))
    return comps


def normalized_label(components):
    out = []
    for fam, p in components:
        if fam == "I":
            out.append("I2(%d)" % p)
        else:
            out.append("%s%d" % (fam, p))
    return "x".join(out)


def component_rank(fam, p):
    return 2 if fam == "I" else p


def total_rank(components):
    return sum(component_rank(f, p) for f, p in components)


def enforce_rank_cap(rank, allow_rank7=False):
    if rank > RANK_CAP_EXTENDED:
        raise RankCapExceeded(
            "rank %d exceeds the hard cap of %d" % (rank, RANK_CAP_EXTENDED))
    if rank > RANK_CAP and not allow_rank7:
        raise RankCapExceeded(
            "rank %d needs allow_rank7=True (cap is %d by default)"
            % (rank, RANK_CAP))


def component_edges(fam, p):
    """Edges (i, j, bond order) of one irreducible diagram, local indices."""
    if fam == "A":
        return [(i, i + 1, 3) for i in range(p - 1)]
    if fam == "B":
        return [(0, 1, 4)] + [(i, i + 1, 3) for i in range(1, p - 1)]
    if fam == "D":
        if p == 2:
            return []
        return [(0, 2, 3), (1, 2, 3)] + [(i, i + 1, 3) for i in range(2, p - 1)]
    if fam == "E":
        edges = [(0, 2, 3), (2, 3, 3), (1, 3, 3), (3, 4, 3), (4, 5, 3)]
        if p >= 7:
            edges.append((5, 6, 3))
        if p == 8:
            edges.append((6, 7, 3))
        return edges
    if fam == "F":
        return [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
    if fam == "H":
        return [(0, 1, 5)] + [(i, i + 1, 3) for i in range(1, p - 1)]
    if fam == "I":
        return [(0, 1, p)]
    raise UnsupportedType(fam)


def matrix_for_components(components):
    """Build (labels, matrix) for a parsed label.

    Generators are numbered 1..n across the whole product; the extra fork
    generator of a D component shares its numeral with the next one and
    carries a "p" suffix (D4 -> 1p, 1, 2, 3).
    """
    n = total_rank(components)
    mat = [[2] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    labels = []
    offset = 0
    counter = 1
    for fam, p in components:
        r = component_rank(fam, p)
        for (i, j, val) in component_edges(fam, p):
            mat[offset + i][offset + j] = val
            mat[offset + j][offset + i] = val
        if fam == "D":
            labels.append("%dp" % counter)
            for k in range(r - 1):
                labels.append("%d" % (counter + k))
            counter += r - 1
        else:
            for k in range(r):
                labels.append("%d" % (counter + k))
            counter += r
        offset += r
    return labels, mat


_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
    ("F", 4): 1152, ("H", 3): 120, ("H", 4): 14400,
}

_EXCEPTIONAL_NROOTS = {
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
    ("F", 4): 24, ("H", 3): 15, ("H", 4): 60,
}


def component_order(fam, p):
    if fam == "A":
        return math.factorial(p + 1)
    if fam == "B":
        return (1 << p) * math.factorial(p)
    if fam == "D":
        return (1 << (p - 1)) * math.factorial(p)
    if fam == "I":
        return 2 * p
    return _EXCEPTIONAL_ORDERS[(fam, p)]


def component_nroots(fam, p):
    if fam == "A":
        return p * (p + 1) // 2
    if fam == "B":
        return p * p
    if fam == "D":
        return p * (p - 1)
    if fam == "I":
        return p
    return _EXCEPTIONAL_NROOTS[(fam, p)]


def order_for_components(components):
    out = 1
    for fam, p in components:
        out *= component_order(fam, p)
    return out


def validate_matrix(mat):
    n = len(mat)
    if n == 0:
        raise UnsupportedType("empty Coxeter matrix")
    for i in range(n):
        if len(mat[i]) != n:
            raise UnsupportedType("Coxeter matrix is not square")
        for j in range(n):
            v = mat[i][j]
            if not isinstance(v, int):
                raise UnsupportedType("non-integer Coxeter matrix entry")
            if i == j and v != 1:
                raise UnsupportedType("diagonal entries must be 1")
            if i != j and (v < 2 or v != mat[j][i]):
                raise UnsupportedType(
                    "off-diagonal entries must be symmetric ints >= 2")


def _path(adj, first, second):
    """The walk first, second, ... along the tree `adj`, never turning
    back, until it reaches a leaf; every node after `first` has degree
    at most two."""
    out = [first, second]
    while True:
        nxt = [x for x in adj[out[-1]] if x != out[-2]]
        if not nxt:
            return out
        out.append(nxt[0])


def classify_component(nodes, mat):
    """Classify one connected diagram on the sorted node list `nodes`.

    Returns (family, param, order): order lists the nodes in the
    generator numbering of ``matrix_for_components``, so that order[k]
    plays generator k of the standard component. Raises InfiniteGroup
    when the component is not of finite type.
    """
    n = len(nodes)
    if n == 1:
        return ("A", 1, list(nodes))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            v = mat[nodes[a]][nodes[b]]
            if v > 2:
                edges.append((a, b, v))
    if n == 2:
        v = edges[0][2]
        fam, p = {3: ("A", 2), 4: ("B", 2)}.get(v, ("I", v))
        return (fam, p, list(nodes))
    # rank >= 3: diagram must be a tree
    if len(edges) != n - 1:
        raise InfiniteGroup("diagram component has a cycle")
    adj = {i: [] for i in range(n)}
    for a, b, v in edges:
        adj[a].append(b)
        adj[b].append(a)
    degrees = sorted(len(adj[i]) for i in range(n))
    ends = [i for i in range(n) if len(adj[i]) == 1]
    big = [(a, b, v) for a, b, v in edges if v > 3]
    if len(big) > 1:
        raise InfiniteGroup("more than one marked bond at rank >= 3")
    if big:
        a, b, v = big[0]
        if degrees[-1] > 2:
            raise InfiniteGroup("branch node plus marked bond")
        if v > 5:
            raise InfiniteGroup("bond order > 5 at rank >= 3")
        # B and H are numbered from the leaf on the marked bond, F4 from
        # its smallest end
        first, second = (a, b) if a in ends else (b, a)
        if v == 4:
            if first in ends:
                fam = "B"
            elif n == 4:
                # the only interior 4-bond of finite type: both middle nodes
                fam = "F"
                first, second = ends[0], adj[ends[0]][0]
            else:
                raise InfiniteGroup("interior 4-bond outside F4")
        elif first in ends and n in (3, 4):
            # 5-bond must touch a leaf whose neighbor continues a path
            fam = "H"
        else:
            raise InfiniteGroup("5-bond only supported in H3/H4")
        return (fam, n, [nodes[i] for i in _path(adj, first, second)])
    # simply laced
    if degrees[-1] == 2:
        return ("A", n, [nodes[i] for i in _path(adj, ends[0],
                                                 adj[ends[0]][0])])
    if degrees[-1] > 3 or degrees.count(3) > 1:
        raise InfiniteGroup("diagram branches too much")
    center = next(i for i in range(n) if len(adj[i]) == 3)
    legs = [_path(adj, center, start)[1:] for start in adj[center]]
    legs.sort(key=lambda leg: (len(leg), leg[0]))
    lengths = [len(leg) for leg in legs]
    if lengths[:2] == [1, 1]:
        # the two one-node legs form the fork, the longest leg the tail
        fam, order = "D", [legs[0][0], legs[1][0], center] + legs[2]
    elif lengths in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
        # positions 0 and 2 take the two-node leg, position 1 the leaf
        short, two, tail = legs
        fam, order = "E", [two[1], short[0], two[0], center] + tail
    else:
        raise InfiniteGroup(
            "branching pattern %r is not of finite type" % (lengths,))
    return (fam, n, [nodes[i] for i in order])


def diagram_components(mat):
    """Node lists of the connected components of the Coxeter diagram
    (edges where m > 2), each sorted, in order of their smallest node."""
    n = len(mat)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, nodes = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            nodes.append(i)
            for j in range(n):
                if not seen[j] and mat[i][j] > 2:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(nodes))
    return comps


def classify_parts(mat):
    """Validate `mat` and classify each component of its diagram: one
    (family, param, order) per component, as ``classify_component`` gives
    it, in order of the smallest node. Raises InfiniteGroup if the matrix
    is not of finite type."""
    validate_matrix(mat)
    return [classify_component(nodes, mat)
            for nodes in diagram_components(mat)]


def classify_matrix(mat):
    """Canonical label of the finite Coxeter group defined by `mat`.

    Components are sorted (family, param) in the label, so this is a true
    isomorphism-class name: D3 classifies as A3, D2 as A1xA1.
    """
    return normalized_label(sorted(part[:2] for part in classify_parts(mat)))


def parabolic_orders(mat):
    """|W_K| for every generator subset K, as a tuple indexed by its bit
    mask: the order of the group whose Coxeter matrix is the principal
    sub-block of `mat` on K, found by classifying that block, so nothing
    is enumerated. Memoized per matrix, since every cache load asks."""
    return _parabolic_orders(tuple(map(tuple, mat)))


@functools.lru_cache(maxsize=64)
def _parabolic_orders(mat):
    n = len(mat)
    out = [1] * (1 << n)
    for kmask in range(1, 1 << n):
        nodes = [i for i in range(n) if kmask >> i & 1]
        block = [[mat[a][b] for b in nodes] for a in nodes]
        out[kmask] = order_for_components(
            parse_label(classify_matrix(block)))
    return tuple(out)
