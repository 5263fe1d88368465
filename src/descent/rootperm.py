"""Signed permutation action of generators on positive roots.

Every finite Coxeter group acts faithfully on its root system; a generator
s_j sends its own simple root to minus itself and permutes the remaining
positive roots. That is all the group engine needs: lengths, descents and
conjugation data are read off these signed permutations.

Roots of a dihedral component come from a closed-form permutation (avoiding
cyclotomic arithmetic entirely); those of the others from a closure of the
simple roots, with coordinates in Z[phi], phi the golden ratio: a pair
(a, b) means a + b*phi, and b stays 0 outside H3 and H4.
"""

from __future__ import annotations

import functools

import numpy as np

from .cartan import component_edges, component_nroots
from .errors import UnsupportedType


# the Cartan entries (c_ij, c_ji) of a bond of order 3, 4 or 5, in Z[phi]
_BOND_CARTAN = {3: ((-1, 0), (-1, 0)), 4: ((-1, 0), (-2, 0)),
                5: ((0, -1), (0, -1))}


def _dihedral_sperm(m):
    """Root action for I2(m) on m positive roots, in closed form.

    Roots sit at m equally spaced lines; generator 0 fixes line 0 (negating
    the root) and reflects k -> m-k, generator 1 negates line m-1 and
    reflects k -> m-2-k.
    """
    s0 = np.empty(m, dtype=np.int16)
    s1 = np.empty(m, dtype=np.int16)
    s0[0] = -1
    for k in range(1, m):
        s0[k] = (m - k) + 1
    s1[m - 1] = -m
    for k in range(m - 1):
        s1[k] = (m - 2 - k) + 1
    return [s0, s1]


def _closure_sperm(fam, p):
    """Root action of a standard component via closure of the simple roots."""
    cart = [[(2, 0) if i == j else (0, 0) for j in range(p)] for i in range(p)]
    for (i, j, v) in component_edges(fam, p):
        if v not in _BOND_CARTAN:
            raise UnsupportedType("bond order %d has no closure rule" % v)
        cart[i][j], cart[j][i] = _BOND_CARTAN[v]

    def reflect(vec, j):
        # s_j(v) = v - sum_i v_i c_ij alpha_j, with phi^2 = phi + 1
        a, b = vec[j]
        for (x, y), (c, d) in zip(vec, (row[j] for row in cart)):
            a, b = a - x * c - y * d, b - x * d - y * c - y * d
        return vec[:j] + ((a, b),) + vec[j + 1:]

    simples = [tuple((1, 0) if k == i else (0, 0) for k in range(p))
               for i in range(p)]
    roots = list(simples)
    index = {r: k for k, r in enumerate(roots)}
    head = 0
    while head < len(roots):
        r = roots[head]
        head += 1
        for j in range(p):
            if r == simples[j]:
                continue
            img = reflect(r, j)
            if img not in index:
                index[img] = len(roots)
                roots.append(img)
    expected = component_nroots(fam, p)
    if len(roots) != expected:
        raise AssertionError(
            "root closure of %s%d found %d roots, expected %d"
            % (fam, p, len(roots), expected))
    sperm = []
    for j in range(p):
        arr = np.empty(len(roots), dtype=np.int16)
        for k, r in enumerate(roots):
            if r == simples[j]:
                arr[k] = -(j + 1)
            else:
                arr[k] = index[reflect(r, j)] + 1
        sperm.append(arr)
    return sperm


@functools.lru_cache(maxsize=64)
def _component_sperm(fam, p):
    """Root action of one irreducible component, as read-only arrays:
    memoized, since every system built from a matrix or a label asks."""
    sperm = _dihedral_sperm(p) if fam == "I" else _closure_sperm(fam, p)
    for arr in sperm:
        arr.flags.writeable = False
    return tuple(sperm)


def build_root_action(n, parts):
    """Root action of the system on `n` generators whose diagram components
    are classified as `parts`, as ``cartan.classify_parts`` gives them.

    Returns (sperm, simple_index, first_root). sperm[g] is an int16 array
    over root indices: value +-(k+1) means generator g maps root i to
    +-root k. The roots of each component are one contiguous block, in the
    order of `parts`; simple_index[g] is the root index of g's simple root
    and first_root[g] the first root index of g's block.
    """
    blocks = [_component_sperm(fam, p) for fam, p, _ in parts]
    total = sum(len(local[0]) for local in blocks)
    sperm = [np.arange(1, total + 1, dtype=np.int16) for _ in range(n)]
    simple_index, first_root = [0] * n, [0] * n
    offset = 0
    for (_, _, order), local in zip(parts, blocks):
        nroots = len(local[0])
        for node, block in zip(order, local):
            sperm[node][offset:offset + nroots] = (
                block + np.sign(block) * offset)
            # the root a generator negates is its own simple root
            simple_index[node] = offset + int(np.flatnonzero(block < 0)[0])
            first_root[node] = offset
        offset += nroots
    return sperm, simple_index, first_root
