"""The integer route of a ``descent mult`` request against its references.

``parse_expression`` collects each basis's terms over one denominator and
``str`` prints each term from its numerator and the denominator; both
must agree with the route one atom and one ``Fraction`` at a time
(``oracles.parse_per_atom``, ``oracles.str_by_fractions``).
``_change_basis`` runs in int64 under its bound and on Python integers
beyond it; both sides must agree with the per-bit mask loops and with the
object-array passes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from descent import algebra as alg
from descent import exprs as ex
from descent.coxeter import build_system
import oracles
from conftest import get_system
from test_algebra import loop_change_basis

# rank 0 to 7, with the primed fork labels of D and the dihedral labels
ROSTER = ("A0", "A1", "I2(5)", "B3", "D4", "I2(8)xA2", "D5", "E6", "A7",
          "D7")
TAGS = (alg.BASIS_X, alg.BASIS_Y, alg.BASIS_XPRIME)


def system_of(label):
    if label == "A0":
        return build_system(matrix=[])
    return get_system(label, allow_rank7=label[-1] == "7")


@st.composite
def expressions(draw):
    """A system of the roster and a well-formed expression on it: up to six
    terms on any of the three bases, coefficients up to 10^20 over
    denominators up to 10^6, written with or without the coefficient,
    the denominator and spaces, and the full subset as ``S`` or listed."""
    system = system_of(draw(st.sampled_from(ROSTER)))
    if draw(st.integers(0, 9)) == 0:
        return system, "0"
    n, labels = system.rank, system.labels
    space = st.sampled_from(("", " ", "  "))
    text = draw(st.sampled_from(("", "+", "-")))
    for t in range(draw(st.integers(1, 6))):
        if t:
            text += draw(space) + draw(st.sampled_from("+-")) + draw(space)
        num = draw(st.integers(0, 10**20))
        den = draw(st.integers(1, 10**6))
        form = draw(st.integers(0, 2))
        if form == 1:
            text += "%d*" % num
        elif form == 2:
            text += "%d/%d%s*%s" % (num, den, draw(space), draw(space))
        tag = draw(st.sampled_from(TAGS))
        mask = draw(st.integers(0, (1 << n) - 1))
        if mask == system.full_mask and n and draw(st.booleans()):
            text += tag + "S"
        else:
            text += "%s[%s]" % (tag, ",".join(
                labels[s] for s in range(n) if mask >> s & 1))
    return system, text + draw(space)


def assert_same_vector(got, want):
    assert (got.tag, got.nums, got.den) == (want.tag, want.nums, want.den)


@settings(max_examples=300, deadline=None)
@given(expressions())
@example((build_system(matrix=[]), "0"))
@example((build_system(matrix=[]), "-3/2*x[] + 2*y[]"))
@example((get_system("D7", allow_rank7=True),
          "100000000000000000000/999999*xp[1p,1,2] - y[1p] + xS"))
def test_parse_and_str_match_the_per_atom_route(case):
    system, text = case
    v = ex.parse_expression(system, text)
    assert_same_vector(v, oracles.parse_per_atom(system, text))
    for tag in TAGS:
        w = v.in_basis(tag)
        assert str(w) == oracles.str_by_fractions(w)


@pytest.mark.parametrize("n", range(8))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_change_basis_on_both_sides_of_the_int64_bound(n, data):
    bound = 1 << 62 - 3 * n
    for big in (bound - 1, bound):
        nums = data.draw(st.lists(st.integers(-big, big), min_size=1 << n,
                                  max_size=1 << n))
        nums[data.draw(st.integers(0, (1 << n) - 1))] = data.draw(
            st.sampled_from((big, -big)))
        for tag in TAGS:
            for sign in (-1, 1):
                got, scale = alg._change_basis(nums, tag, n, sign)
                assert got.dtype == (np.int64 if big < bound else object)
                want = loop_change_basis(nums, tag, n, sign)
                assert (got.tolist(), scale) == want
                assert oracles.object_change_basis(nums, tag, n, sign) == want
