"""Expression parsing: grammar coverage and pinned error positions."""

import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

import descent.algebra as alg
import descent.exprs as ex
from descent.errors import ParseError

from conftest import get_system

ROUND_TRIP_TYPES = ("A2", "B3", "H3", "I2(5)", "A1xA2")


@st.composite
def rational_vectors(draw):
    """A system of the round-trip roster, and a vector on one of its three
    bases with sparse rational coordinates of up to 20 digits."""
    system = get_system(draw(st.sampled_from(ROUND_TRIP_TYPES)))
    coeff = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-10**20, max_value=10**20, max_denominator=10**6))
    coeffs = draw(st.lists(coeff, min_size=1 << system.rank,
                           max_size=1 << system.rank))
    tag = draw(st.sampled_from((alg.BASIS_X, alg.BASIS_Y,
                                alg.BASIS_XPRIME)))
    return alg.DescentVector(system, coeffs, tag)


class TestHappyPath:
    def test_single_atom(self, system_factory):
        system = system_factory("A2")
        v = ex.parse_expression(system, "x[1]")
        assert v == alg.basis_x(system, 0b01)

    def test_empty_and_full_subsets(self, system_factory):
        system = system_factory("A2")
        assert ex.parse_expression(system, "x[]") == \
            alg.basis_x(system, 0)
        assert ex.parse_expression(system, "xS") == \
            alg.basis_x(system, system.full_mask)
        assert ex.parse_expression(system, "x[1,2]") == \
            alg.basis_x(system, system.full_mask)

    def test_signs_and_sums(self, system_factory):
        system = system_factory("A2")
        v = ex.parse_expression(system, "x[1] - x[2] + x[]")
        want = (alg.basis_x(system, 0b01) - alg.basis_x(system, 0b10)
                + alg.basis_x(system, 0))
        assert v == want
        assert ex.parse_expression(system, "-x[1]") == \
            -alg.basis_x(system, 0b01)
        assert ex.parse_expression(system, "+x[1]") == \
            alg.basis_x(system, 0b01)

    def test_coefficients_and_fractions(self, system_factory):
        system = system_factory("A2")
        v = ex.parse_expression(system, "3*x[1] + 5/2*x[2]")
        assert Fraction(v.nums[0b01], v.den) == 3
        assert Fraction(v.nums[0b10], v.den) == Fraction(5, 2)

    def test_like_terms_collapse(self, system_factory):
        system = system_factory("A2")
        v = ex.parse_expression(system, "x[1] - x[1]")
        assert v.is_zero()
        v = ex.parse_expression(system, "2*x[1] + 3*x[1]")
        assert v == 5 * alg.basis_x(system, 0b01)

    def test_other_bases(self, system_factory):
        system = system_factory("B2")
        assert ex.parse_expression(system, "y[1]") == \
            alg.basis_y(system, 0b01)
        assert ex.parse_expression(system, "yS") == \
            alg.basis_y(system, system.full_mask)
        assert ex.parse_expression(system, "xp[2]") == \
            alg.basis_xprime(system, 0b10)

    def test_mixed_bases_in_one_expression(self, system_factory):
        # the result is a single vector; the bases are converted on the
        # fly and the sum is exact
        system = system_factory("A2")
        v = ex.parse_expression(system, "x[1] + y[1]")
        assert v == (alg.basis_x(system, 0b01)
                     + alg.basis_y(system, 0b01))

    def test_whitespace_is_free(self, system_factory):
        system = system_factory("A2")
        tight = ex.parse_expression(system, "2*x[1]-x[2]")
        loose = ex.parse_expression(system, "  2 * x[ 1 ] -  x[ 2 ]  ")
        assert tight == loose

    def test_fork_primed_label(self, system_factory):
        d4 = system_factory("D4")
        v = ex.parse_expression(d4, "x[1p,2]")
        assert v == alg.basis_x(d4, 0b0101)

    def test_dihedral_labels(self, system_factory):
        system = system_factory("I2(5)")
        v = ex.parse_expression(system, "x[2]")
        assert v == alg.basis_x(system, 0b10)

    def test_round_trip_through_str(self, system_factory):
        system = system_factory("B2")
        for text in ("x[1] + x[]", "xS", "x[2] - 3*x[1]"):
            v = ex.parse_expression(system, text)
            again = ex.parse_expression(system, str(v))
            assert again == v

    @settings(max_examples=200, deadline=None)
    @given(rational_vectors())
    @example(alg.DescentVector.zero(get_system("A2")))
    def test_str_round_trips_random_vectors(self, v):
        assert ex.parse_expression(v.system, str(v)) == v


class TestErrorPositions:
    @pytest.mark.parametrize("text,pos", [
        ("", 0),
        ("x[9]", 2),
        ("x[1", 3),
        ("x[1]x[2]", 4),
        ("3x[1]", 1),
        ("z[1]", 0),
        ("x[1,]", 4),
        ("1/0*x[1]", 2),
        ("3/*x[1]", 2),
    ])
    def test_position_is_pinned(self, system_factory, text, pos):
        system = system_factory("A2")
        with pytest.raises(ParseError) as err:
            ex.parse_expression(system, text)
        assert err.value.position == pos

    def test_message_carries_position(self, system_factory):
        system = system_factory("A2")
        with pytest.raises(ParseError, match=r"at position 2"):
            ex.parse_expression(system, "x[9]")

    def test_unknown_label_for_system(self, system_factory):
        # the primed fork name is only a name in the D family
        system = system_factory("A3")
        with pytest.raises(ParseError):
            ex.parse_expression(system, "x[1p]")
