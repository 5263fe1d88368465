"""Summary-row construction and rendering.

Golden rows are frozen as exact integers; the three output formats are
checked for shape, parseability, and agreement with the row objects.
"""

import csv
import io
import json

import pytest

import descent.table as tb
from descent import build_system
from descent.errors import (AutomorphismRowsDiffer, DescentError,
                            UnavailableAutomorphism, UnsupportedType)


GOLDEN = [
    # (type, sigma order, orbit count, loewy length, radical dims)
    ("A1", 1, 2, 1, (2,)),
    ("A2", 1, 3, 2, (4, 1)),
    ("A2", 2, 3, 1, (3,)),
    ("A3", 1, 5, 3, (8, 3, 1)),
    ("A3", 2, 5, 2, (6, 1)),
    ("B3", 1, 7, 2, (8, 1)),
    ("B5", 1, 19, 3, (32, 13, 1)),
    ("D4", 1, 11, 2, (16, 5)),
    ("D4", 2, 9, 2, (12, 3)),
    ("D4", 3, 7, 2, (8, 1)),
    ("D5", 1, 14, 4, (32, 18, 8, 2)),
    ("D5", 2, 14, 3, (24, 10, 1)),
    ("F4", 1, 12, 2, (16, 4)),
    ("F4", 2, 8, 2, (10, 2)),
    ("H3", 1, 6, 2, (8, 2)),
    ("H4", 1, 10, 2, (16, 6)),
    ("I2(3)", 1, 3, 2, (4, 1)),
    ("I2(4)", 1, 4, 1, (4,)),
    ("I2(5)", 1, 3, 2, (4, 1)),
    ("I2(5)", 2, 3, 1, (3,)),
    ("I2(6)", 1, 4, 1, (4,)),
    ("I2(6)", 2, 3, 1, (3,)),
    ("I2(7)", 1, 3, 2, (4, 1)),
    ("I2(8)", 2, 3, 1, (3,)),
]

GOLDEN_E6 = [
    ("E6", 1, 17, 5, (64, 47, 28, 12, 3)),
    ("E6", 2, 17, 3, (40, 23, 5)),
]


class TestGoldenRows:
    @pytest.mark.parametrize("label,order,orbits,ll,dims", GOLDEN)
    def test_row_values(self, label, order, orbits, ll, dims):
        row = tb.build_row(label, order)
        assert row.type_label == label
        assert row.sigma_order == order
        assert row.lambda_orbit_count == orbits
        assert row.loewy_length == ll
        assert row.radical_dims == dims

    @pytest.mark.parametrize("label,order,orbits,ll,dims", GOLDEN_E6)
    def test_rank_six_exceptional_rows(self, label, order, orbits, ll,
                                       dims):
        row = tb.build_row(label, order)
        assert (row.lambda_orbit_count, row.loewy_length,
                row.radical_dims) == (orbits, ll, dims)


class TestRowConstruction:
    def test_roster_is_frozen(self):
        assert tb.SUPPORTED_TYPES == (
            "A1", "A2", "A3", "A4", "A5",
            "B2", "B3", "B4", "B5", "B6",
            "D4", "D5", "D6",
            "F4", "H3", "H4", "E6",
            "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(7)", "I2(8)")

    def test_available_orders(self, system_factory):
        assert tb.available_sigma_orders(system_factory("D4")) == [1, 2, 3]
        assert tb.available_sigma_orders(system_factory("F4")) == [1, 2]
        assert tb.available_sigma_orders(system_factory("B3")) == [1]
        assert tb.available_sigma_orders(system_factory("A3")) == [1, 2]

    def test_missing_order_raises(self):
        with pytest.raises(UnavailableAutomorphism):
            tb.build_row("B3", 2)
        with pytest.raises(UnavailableAutomorphism):
            tb.build_row("A3", 3)
        with pytest.raises(UnavailableAutomorphism):
            tb.build_row("D4", 4)

    @pytest.mark.parametrize("label", ["A1xA1xA1xA1", "A2xA2xA1xA1"])
    def test_non_conjugate_automorphisms_of_one_order_raise(self, label):
        # a transposition and a double transposition of the A1 factors
        # both have order 2 but fix different subalgebras
        with pytest.raises(AutomorphismRowsDiffer,
                           match="order 2 of %s" % label) as info:
            tb.build_row(label, 2)
        assert isinstance(info.value, DescentError)

    def test_all_orders_for_one_type(self):
        system = build_system(type="D4")
        assert tb.available_sigma_orders(system) == [1, 2, 3]
        rows = [tb.build_row("D4", k, system=system) for k in (1, 2, 3)]
        assert [r.sigma_order for r in rows] == [1, 2, 3]
        assert tb.build_row("D4", 3) == rows[2]

    def test_fixed_order_on_wrong_type_raises(self):
        with pytest.raises(UnavailableAutomorphism):
            tb.build_row("A1", 2)

    def test_rows_are_deterministic(self):
        labels = ["A3", "B4", "D4", "I2(6)", "H3"]

        def rows():
            return [tb.build_row(label, k) for label in labels
                    for k in tb.available_sigma_orders(
                        build_system(type=label))]

        assert rows() == rows()

    def test_row_invariants_are_enforced(self):
        with pytest.raises(AssertionError):
            tb.TableRow(type_label="A2", sigma_order=1,
                        lambda_orbit_count=3, loewy_length=1,
                        radical_dims=(4, 1))
        with pytest.raises(AssertionError):
            tb.TableRow(type_label="A2", sigma_order=1,
                        lambda_orbit_count=4, loewy_length=2,
                        radical_dims=(4, 1))


class TestRendering:
    def rows(self):
        return [tb.build_row("A2", 1), tb.build_row("D4", 2)]

    def test_text_layout(self):
        text = tb.render(self.rows(), "text")
        lines = text.splitlines()
        assert lines[0].split() == ["type", "o(sigma)", "orbits", "LL",
                                    "dims"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].split() == ["A2", "1", "3", "2", "4,1"]
        assert lines[3].split() == ["D4", "2", "9", "2", "12,3"]

    def test_json_round_trip(self):
        payload = json.loads(tb.render(self.rows(), "json"))
        assert payload == [
            {"type": "A2", "sigma_order": 1, "dim": 4,
             "lambda_orbits": 3, "loewy_length": 2,
             "radical_dims": [4, 1]},
            {"type": "D4", "sigma_order": 2, "dim": 12,
             "lambda_orbits": 9, "loewy_length": 2,
             "radical_dims": [12, 3]},
        ]

    def test_csv_quotes_dimension_lists(self):
        raw = tb.render(self.rows(), "csv")
        assert '"4,1"' in raw
        parsed = list(csv.reader(io.StringIO(raw)))
        assert parsed[0] == ["type", "sigma_order", "dim",
                             "lambda_orbits", "loewy_length",
                             "radical_dims"]
        assert parsed[1] == ["A2", "1", "4", "3", "2", "4,1"]
        assert parsed[2] == ["D4", "2", "12", "9", "2", "12,3"]

    def test_unknown_format_raises(self):
        with pytest.raises(UnsupportedType):
            tb.render(self.rows(), "yaml")

    def test_row_dict_keys(self):
        d = tb.row_dict(tb.build_row("H3", 1))
        assert list(d) == ["type", "sigma_order", "dim", "lambda_orbits",
                           "loewy_length", "radical_dims"]
        assert d["dim"] == 8 and d["radical_dims"] == [8, 2]
