"""Signed permutation action of generators on positive roots.

Every finite Coxeter group acts faithfully on its root system; a generator
s_j sends its own simple root to minus itself and permutes the remaining
positive roots. That is all the group engine needs: lengths, descents and
conjugation data are read off these signed permutations.

Crystallographic components use integer root coordinates, H3/H4 use pairs
(a, b) meaning a + b*phi with phi the golden ratio, and dihedral components
use a closed-form permutation (avoiding cyclotomic arithmetic entirely).
"""

from __future__ import annotations

import functools

import numpy as np

from .cartan import (classify_component, component_edges, component_nroots,
                     diagram_components)
from .errors import UnsupportedType


def _golden_mul(x, y):
    a, b = x
    c, d = y
    # (a + b*phi)(c + d*phi) with phi^2 = phi + 1
    return (a * c + b * d, a * d + b * c + b * d)


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
    edges = component_edges(fam, p)
    n = 2 if fam == "I" else p
    golden = fam == "H"
    zero = (0, 0) if golden else 0
    one = (1, 0) if golden else 1
    two = (2, 0) if golden else 2
    cart = [[zero] * n for _ in range(n)]
    for i in range(n):
        cart[i][i] = two
    for (i, j, v) in edges:
        if v == 3:
            cij = cji = (-1, 0) if golden else -1
        elif v == 4:
            cij, cji = -1, -2
        elif v == 5:
            cij = cji = (0, -1)
        else:
            raise UnsupportedType("bond order %d has no closure rule" % v)
        cart[i][j] = cij
        cart[j][i] = cji

    def reflect(vec, j):
        if golden:
            coef = (0, 0)
            for i in range(n):
                if vec[i] != (0, 0):
                    prod = _golden_mul(vec[i], cart[i][j])
                    coef = (coef[0] + prod[0], coef[1] + prod[1])
            out = list(vec)
            out[j] = (out[j][0] - coef[0], out[j][1] - coef[1])
        else:
            coef = sum(vec[i] * cart[i][j] for i in range(n) if vec[i])
            out = list(vec)
            out[j] = out[j] - coef
        return tuple(out)

    simples = []
    for i in range(n):
        v = [zero] * n
        v[i] = one
        simples.append(tuple(v))
    roots = list(simples)
    index = {r: k for k, r in enumerate(roots)}
    head = 0
    while head < len(roots):
        r = roots[head]
        head += 1
        for j in range(n):
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
    for j in range(n):
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


def build_root_action(mat):
    """Return (nroots, sperm) for a validated finite Coxeter matrix.

    sperm[g] is an int16 array over root indices: value +-(k+1) means
    generator g maps root i to +-root k. Simple roots do NOT necessarily sit
    at indices 0..n-1 globally; use the returned `simple_index` instead.
    Returns (nroots, sperm_list, simple_index) with simple_index[g] the root
    index of generator g's simple root.
    """
    n = len(mat)
    total = 0
    plans = []
    for nodes in diagram_components(mat):
        fam, p, order = classify_component(nodes, mat)
        local = _component_sperm(fam, p)
        plans.append((order, local))
        total += len(local[0])

    sperm = [np.arange(1, total + 1, dtype=np.int16) for _ in range(n)]
    simple_index = [0] * n
    offset = 0
    for order, local in plans:
        nroots = len(local[0])
        for k, node in enumerate(order):
            block = local[k]
            sperm[node][offset:offset + nroots] = (
                block + np.sign(block) * offset)
            # the root a generator negates is its own simple root
            simple_index[node] = offset + int(np.flatnonzero(block < 0)[0])
        offset += nroots
    return total, sperm, simple_index
