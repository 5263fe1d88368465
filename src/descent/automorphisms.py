"""Length-preserving automorphisms and their fixed subalgebras.

A diagram automorphism is a permutation of the generator positions that
preserves the Coxeter matrix. It acts on the algebra by permuting the
coset-sum basis; the fixed points of that action form a subalgebra whose
radical and Loewy series this module computes. Its radical is the
ambient radical symmetrized over the powers of the automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import lcm

import numpy as np

from .errors import AutomorphismMismatch
from .linalg import Span
from . import algebra as alg
from .algebra import LoewyProfile
from .coxeter import expand_masks, memoized


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A Coxeter-matrix-preserving permutation of generator positions."""
    permutation: tuple
    order: int
    is_inner_by_w0: bool

    def is_identity(self):
        return all(p == i for i, p in enumerate(self.permutation))


def _preserves_matrix(matrix, perm):
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if matrix[perm[i]][perm[j]] != matrix[i][j]:
                return False
    return True


def _cycles(perm):
    """The cycles of a permutation of range(len(perm)), each walked from
    its least point, in the order of those points."""
    seen = [False] * len(perm)
    out = []
    for first in range(len(perm)):
        cycle, j = [], first
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = int(perm[j])
        if cycle:
            out.append(tuple(cycle))
    return out


def _perm_order(perm):
    return lcm(*(len(cycle) for cycle in _cycles(perm)))


def sigma0(system):
    """The automorphism induced by conjugating with the longest element."""
    perm = system.w0_twist()
    return DiagramAutomorphism(permutation=perm, order=_perm_order(perm),
                               is_inner_by_w0=True)


@memoized
def diagram_automorphisms(system):
    """All Coxeter-matrix-preserving generator permutations, as a tuple.

    Identity first, then sorted by (order, permutation).
    """
    inner = sigma0(system).permutation
    found = [perm for perm in permutations(range(system.rank))
             if _preserves_matrix(system.matrix, perm)]
    ident = tuple(range(system.rank))
    found.sort(key=lambda p: (p != ident, _perm_order(p), p))
    return tuple(DiagramAutomorphism(permutation=p, order=_perm_order(p),
                                     is_inner_by_w0=(p == inner))
                 for p in found)


def automorphism_of_order(system, order):
    """All diagram automorphisms of the given multiplicative order."""
    return [s for s in diagram_automorphisms(system) if s.order == order]


def _check_sigma(system, sigma):
    if len(sigma.permutation) != system.rank or not _preserves_matrix(
            system.matrix, sigma.permutation):
        raise AutomorphismMismatch(
            "permutation %r is not a diagram automorphism of %s"
            % (sigma.permutation, system.type_label))


def shape_orbits(system, sigma):
    """Orbits of the cyclic group generated by sigma on shape classes.

    sigma permutes the shapes: it sends a shape to the shape of the image
    of its canonical member."""
    shapes, mask_to_shape = system.shape_classes()
    images = expand_masks(sigma.permutation)[[s.canonical for s in shapes]]
    return _cycles(np.asarray(mask_to_shape)[images])


def mask_orbits(system, sigma):
    """Orbits of the cyclic group generated by sigma on generator subsets."""
    return [tuple(sorted(cycle))
            for cycle in _cycles(expand_masks(sigma.permutation))]


class FixedSubalgebra:
    """The subalgebra of elements fixed by one diagram automorphism:
    ``orbits`` are the automorphism's orbits on the generator subsets and
    ``span`` is spanned by their orbit sums, its rows the orbit
    indicators, so the dimension is the number of orbits."""

    def __init__(self, parent, sigma, orbits, span):
        self.parent = parent
        self.sigma = sigma
        self.orbits = orbits
        self.span = span

    @property
    def dimension(self):
        return len(self.orbits)

    @memoized
    def radical_vectors(self):
        """Basis of the radical of the fixed subalgebra, as a read-only
        matrix of integer x-coordinate rows: the ambient radical basis
        symmetrized over the automorphism powers."""
        size = 1 << self.parent.rank
        # row m of the symmetrizer sums the images of x_m under the
        # powers of sigma: order / |orbit| times each orbit member
        sym = np.zeros((size, size), dtype=np.int64)
        for orbit in self.orbits:
            sym[np.ix_(orbit, orbit)] = self.sigma.order // len(orbit)
        rows = Span(size, alg.radical_basis(self.parent) @ sym).rows
        rows.flags.writeable = False
        return rows


def fixed_subalgebra(system, sigma):
    """Construct the fixed-point subalgebra, spanned by its orbit sums."""
    _check_sigma(system, sigma)
    size = 1 << system.rank
    orbits = mask_orbits(system, sigma)
    indicators = np.zeros((len(orbits), size), dtype=np.int64)
    for i, orbit in enumerate(orbits):
        indicators[i, list(orbit)] = 1
    return FixedSubalgebra(system, sigma, orbits, Span(size, indicators))


@memoized
def loewy_profile_fixed(system, sigma):
    """Loewy profile of the fixed subalgebra of one automorphism."""
    fixed = fixed_subalgebra(system, sigma)
    powers = alg.radical_powers(system, fixed.radical_vectors())
    return LoewyProfile([fixed.dimension] + [p.dim for p in powers])
