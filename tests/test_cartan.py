"""Type-label parsing, Coxeter matrices, and finite-type recognition."""

import math

import numpy as np
import pytest

from descent import cartan
from descent.coxeter import build_system, subset_sums
from descent.table import SUPPORTED_TYPES
from descent.errors import InfiniteGroup, RankCapExceeded, UnsupportedType


class TestParseLabel:
    def test_single_components(self):
        assert cartan.parse_label("A1") == [("A", 1)]
        assert cartan.parse_label("B4") == [("B", 4)]
        assert cartan.parse_label("D5") == [("D", 5)]
        assert cartan.parse_label("E6") == [("E", 6)]
        assert cartan.parse_label("F4") == [("F", 4)]
        assert cartan.parse_label("H3") == [("H", 3)]
        assert cartan.parse_label("I2(7)") == [("I", 7)]

    def test_g2_is_a_dihedral_alias(self):
        assert cartan.parse_label("G2") == [("I", 6)]
        assert cartan.normalized_label(cartan.parse_label("G2")) == "I2(6)"

    def test_products(self):
        assert cartan.parse_label("A2xA1") == [("A", 2), ("A", 1)]
        assert cartan.parse_label("B2xI2(5)xA1") == [
            ("B", 2), ("I", 5), ("A", 1)]

    def test_whitespace_tolerated(self):
        assert cartan.parse_label(" B3 ") == [("B", 3)]
        assert cartan.parse_label("A1 x A1") == [("A", 1), ("A", 1)]

    @pytest.mark.parametrize("bad", [
        "", "  ", "Z9", "E5", "E9", "H5", "H2", "F3", "F5",
        "I2(2)", "I2(1)", "B1", "A0", "A-1", "xA1", "A1x", "C3",
    ])
    def test_rejects(self, bad):
        with pytest.raises(UnsupportedType):
            cartan.parse_label(bad)

    def test_normalized_label_round_trip(self):
        for label in ("A3", "B6", "D4", "I2(8)", "A2xB2", "E6"):
            comps = cartan.parse_label(label)
            assert cartan.normalized_label(comps) == label


class TestOrders:
    @pytest.mark.parametrize("label,order", [
        ("A1", 2), ("A4", 120), ("B2", 8), ("B4", 384), ("B6", 46080),
        ("D4", 192), ("D5", 1920), ("E6", 51840), ("E7", 2903040),
        ("F4", 1152), ("H3", 120), ("H4", 14400),
        ("I2(3)", 6), ("I2(7)", 14), ("G2", 12),
    ])
    def test_component_orders(self, label, order):
        comps = cartan.parse_label(label)
        assert cartan.order_for_components(comps) == order

    def test_product_order_multiplies(self):
        comps = cartan.parse_label("B3xA2xI2(5)")
        assert cartan.order_for_components(comps) == 48 * 6 * 10

    @pytest.mark.parametrize("label,nroots", [
        ("A3", 6), ("B4", 16), ("D5", 20), ("E6", 36), ("E7", 63),
        ("F4", 24), ("H3", 15), ("H4", 60), ("I2(9)", 9),
    ])
    def test_positive_root_counts(self, label, nroots):
        (fam, p), = cartan.parse_label(label)
        assert cartan.component_nroots(fam, p) == nroots

    def test_a_order_is_factorial(self):
        for p in range(1, 7):
            assert cartan.component_order("A", p) == math.factorial(p + 1)

    def test_parabolic_orders_of_b3(self):
        # masks over (s1, s2, s3) with m(s1, s2) = 4, m(s2, s3) = 3
        _labels, mat = cartan.matrix_for_components([("B", 3)])
        assert cartan.parabolic_orders(mat) == (1, 2, 2, 8, 2, 4, 6, 48)

    @pytest.mark.parametrize("label", SUPPORTED_TYPES)
    def test_parabolic_orders_count_supports(self, system_factory, label):
        # the enumeration route: |W_K| = #{w : supp(w) inside K}
        system = system_factory(label)
        full = system.full_mask + 1
        by_support = subset_sums(np.bincount(
            system.supp, minlength=full).astype(np.int64), system.rank)
        assert cartan.parabolic_orders(system.matrix) == tuple(by_support)


class TestRankCap:
    def test_rank_six_is_free(self):
        cartan.enforce_rank_cap(6)

    def test_rank_seven_needs_flag(self):
        with pytest.raises(RankCapExceeded):
            cartan.enforce_rank_cap(7)
        cartan.enforce_rank_cap(7, allow_rank7=True)

    def test_rank_eight_always_refused(self):
        with pytest.raises(RankCapExceeded):
            cartan.enforce_rank_cap(8, allow_rank7=True)


class TestMatrices:
    def test_b3_matrix(self):
        labels, mat = cartan.matrix_for_components([("B", 3)])
        assert labels == ["1", "2", "3"]
        assert mat == [[1, 4, 2], [4, 1, 3], [2, 3, 1]]

    def test_d4_fork(self):
        labels, mat = cartan.matrix_for_components([("D", 4)])
        assert labels == ["1p", "1", "2", "3"]
        # both initial generators bond to the third, not to each other
        assert mat[0][1] == 2
        assert mat[0][2] == 3 and mat[1][2] == 3
        assert mat[2][3] == 3

    def test_f4_matrix(self):
        _, mat = cartan.matrix_for_components([("F", 4)])
        assert mat == [
            [1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]

    def test_product_is_block_diagonal(self):
        labels, mat = cartan.matrix_for_components(
            cartan.parse_label("A2xA1"))
        assert labels == ["1", "2", "3"]
        assert mat[0][1] == 3 and mat[0][2] == 2 and mat[1][2] == 2

    def test_dihedral_bond(self):
        _, mat = cartan.matrix_for_components([("I", 7)])
        assert mat == [[1, 7], [7, 1]]

    @pytest.mark.parametrize("bad", [
        [],
        [[1, 3], [3]],
        [[1, 3], [4, 1]],
        [[2, 3], [3, 1]],
        [[1, 1], [1, 1]],
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(UnsupportedType):
            cartan.validate_matrix(bad)


class TestClassify:
    @pytest.mark.parametrize("label", [
        "A3", "B4", "D4", "D5", "F4", "H3", "E6", "I2(5)", "B2xB2",
    ])
    def test_round_trip_named_types(self, label):
        comps = cartan.parse_label(label)
        _, mat = cartan.matrix_for_components(comps)
        assert cartan.classify_matrix(mat) == label

    def test_component_order_is_canonicalized(self):
        _, mat = cartan.matrix_for_components(cartan.parse_label("B2xA2"))
        assert cartan.classify_matrix(mat) == "A2xB2"

    def test_low_rank_coincidences(self):
        # D3 is A3 and D2 splits as A1xA1; the classifier must say so
        _, d3 = cartan.matrix_for_components([("D", 3)])
        assert cartan.classify_matrix(d3) == "A3"
        _, d2 = cartan.matrix_for_components([("D", 2)])
        assert cartan.classify_matrix(d2) == "A1xA1"

    def test_affine_matrix_refused(self):
        # the (3,3,3) triangle is an affine diagram, an infinite group
        mat = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
        with pytest.raises(InfiniteGroup):
            cartan.classify_matrix(mat)

    def test_commuting_pair_is_a_product(self):
        mat = [[1, 2], [2, 1]]
        assert cartan.classify_matrix(mat) == "A1xA1"

    def test_interior_four_bond_refused_outside_f4(self):
        # a 4-bond between interior nodes of a length-5 path is affine
        mat = [[2] * 5 for _ in range(5)]
        for i in range(5):
            mat[i][i] = 1
        for i, j, v in ((0, 1, 3), (1, 2, 4), (2, 3, 3), (3, 4, 3)):
            mat[i][j] = mat[j][i] = v
        with pytest.raises(InfiniteGroup):
            cartan.classify_matrix(mat)


def bonded(n, bonds):
    """The rank-n Coxeter matrix with m = v on each bond (i, j, v) and 2
    on every other pair of generators."""
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, v in bonds:
        mat[i][j] = mat[j][i] = v
    return mat


def path(*orders):
    """The Coxeter matrix of a path whose bonds carry these orders."""
    return bonded(len(orders) + 1,
                  [(i, i + 1, v) for i, v in enumerate(orders)])


def star(*legs):
    """The simply laced tree with centre 0 and one path of each length."""
    bonds, node = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            bonds.append((prev, node, 3))
            prev, node = node, node + 1
    return bonded(node, bonds)


class TestBuildRejectsInfiniteMatrices:
    # one matrix per rejection of ``cartan.classify_component`` not
    # reached by a cycle, with the exception class and message it raises
    @pytest.mark.parametrize("mat,message", [
        (path(4, 4), "more than one marked bond at rank >= 3"),
        (bonded(4, [(0, 1, 3), (0, 2, 3), (0, 3, 4)]),
         "branch node plus marked bond"),
        (path(6, 3), "bond order > 5 at rank >= 3"),
        (path(3, 5, 3), "5-bond only supported in H3/H4"),
        (path(5, 3, 3, 3), "5-bond only supported in H3/H4"),
        (star(1, 1, 1, 1), "diagram branches too much"),
        (bonded(6, [(0, 1, 3), (0, 2, 3), (0, 3, 3), (3, 4, 3),
                    (3, 5, 3)]), "diagram branches too much"),
        (star(2, 2, 2), "branching pattern [2, 2, 2] is not of finite type"),
    ], ids=["two-marked-bonds", "branch-and-4-bond", "6-bond-rank-3",
            "interior-5-bond", "H5", "degree-4-node", "two-branch-nodes",
            "E6-tilde"])
    def test_infinite_group(self, mat, message):
        with pytest.raises(InfiniteGroup) as exc:
            build_system(matrix=mat)
        assert str(exc.value) == message

    def test_non_integer_entry(self):
        mat = path(3, 3)
        mat[0][1] = mat[1][0] = 3.0
        with pytest.raises(UnsupportedType) as exc:
            build_system(matrix=mat)
        assert str(exc.value) == "non-integer Coxeter matrix entry"
