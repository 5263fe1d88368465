"""Command-line behavior, run in process through main(argv).

Covers the three subcommands, the output formats, the exit-code
contract (0 success, 1 failed suite, 2 bad input), the cache flags, and
the rank-7 gate with its memory estimate.
"""

import csv
import io
import json
import os

import pytest

import descent.cache as ca
import descent.cli as cli
import descent.verify as vfy
from descent.coxeter import CoxeterSystem
from test_algebra import bound_row_batches


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMult:
    def test_product_of_single_generators(self, capsys):
        code, out, err = run(capsys, "mult", "--type", "A2",
                             "--left", "x[1]", "--right", "x[1]")
        assert code == 0
        assert out.strip() == "x[1] + x[]"

    def test_unit_is_idempotent(self, capsys):
        code, out, _ = run(capsys, "mult", "--type", "A2",
                           "--left", "xS", "--right", "xS")
        assert code == 0
        assert out.strip() == "xS"

    def test_other_basis_output(self, capsys):
        code, out, _ = run(capsys, "mult", "--type", "B2",
                           "--left", "y[]", "--right", "y[1]",
                           "--basis", "y")
        assert code == 0
        assert out.strip() == "y[2]"

    def test_parse_error_is_exit_two(self, capsys):
        code, out, err = run(capsys, "mult", "--type", "A2",
                             "--left", "x[9]", "--right", "x[1]")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "position 2" in err

    def test_unknown_type_is_exit_two(self, capsys):
        code, _, err = run(capsys, "mult", "--type", "Z9",
                           "--left", "x[1]", "--right", "x[1]")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("label", ["I2(32768)", "I2(20000)xI2(20000)"])
    def test_too_many_roots_is_exit_two(self, capsys, label):
        code, out, err = run(capsys, "mult", "--type", label,
                             "--left", "x[1]", "--right", "x[2]")
        assert code == 2
        assert out == ""
        assert err.startswith("error: %s has" % label)
        assert "Traceback" not in err


class TestTable:
    def test_single_type_single_order(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "A2",
                           "--sigma", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["type", "o(sigma)", "orbits", "LL",
                                    "dims"]
        assert lines[2].split() == ["A2", "1", "3", "2", "4,1"]

    def test_default_sigma_emits_every_order(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "A2")
        assert code == 0
        body = out.splitlines()[2:]
        assert [b.split()[1] for b in body] == ["1", "2"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "D4",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["sigma_order"] for r in rows] == [1, 2, 3]
        assert rows[2]["radical_dims"] == [8, 1]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--type", "H3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == 'H3,1,8,6,2,"8,2"'
        # print() ends the last row; no empty record follows it
        records = list(csv.reader(io.StringIO(out)))
        assert len(records) == 2 and [] not in records

    def test_roster_filters_by_order(self, capsys):
        # only the rank-4 fork carries an order-3 diagram symmetry
        code, out, _ = run(capsys, "table", "--type", "all",
                           "--sigma", "3")
        assert code == 0
        body = [ln for ln in out.splitlines()[2:] if ln.strip()]
        assert len(body) == 1
        assert body[0].split()[:2] == ["D4", "3"]

    def test_non_integer_sigma_is_exit_two(self, capsys):
        code, _, err = run(capsys, "table", "--type", "A2",
                           "--sigma", "x")
        assert code == 2
        assert "positive integer" in err

    def test_zero_sigma_is_exit_two(self, capsys):
        code, out, err = run(capsys, "table", "--type", "A2",
                             "--sigma", "0")
        assert (code, out) == (2, "")
        assert err == "error: --sigma expects a positive integer\n"

    def test_differing_automorphism_rows_are_exit_two(self, capsys):
        code, out, err = run(capsys, "table", "--type", "A1xA1xA1xA1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "order 2 of A1xA1xA1xA1" in err

    def test_unavailable_order_is_exit_two(self, capsys):
        code, _, err = run(capsys, "table", "--type", "B3",
                           "--sigma", "2")
        assert code == 2
        assert err.startswith("error:")


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "solomon-oracle",
                           "--type", "A3")
        assert code == 0
        assert "PASS" in out
        assert "64 ordered basis pairs checked" in out
        assert out.strip().endswith("all checks passed")

    def test_oracle_suite_reads_rows_in_blocks(self, capsys, monkeypatch):
        # H4 has 14,400 elements: its class counts read at most one block
        # of rows per multiplication_table call, never a |W| x |W| table
        sizes = bound_row_batches(monkeypatch, CoxeterSystem)
        code, out, _ = run(capsys, "verify", "--suite", "solomon-oracle",
                           "--type", "H4")
        assert code == 0
        assert sizes
        assert "256 ordered basis pairs checked" in out
        assert out.strip().endswith("all checks passed")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "loewy-bounds",
                           "--type", "B3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "loewy-bounds"
        assert payload["type"] == "B3"
        assert payload["passed"] is True
        assert payload["results"]

    def test_informational_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "b-tau-question",
                           "--type", "B3")
        assert code == 0
        assert "INFO" in out

    def test_failed_suite_exits_one(self, capsys, monkeypatch):
        def fake(suite, type_label, seed=0, allow_rank7=False,
                 cache=True):
            report = vfy.SuiteReport(suite=suite, type_label=type_label)
            report.results.append(vfy.SuiteResult(
                "demo", False, "forced failure", vfy.CHECK))
            return report

        monkeypatch.setattr(vfy, "run_suite", fake)
        code, out, _ = run(capsys, "verify", "--suite", "positivity",
                           "--type", "A2")
        assert code == 1
        assert "FAIL demo" in out
        assert out.strip().endswith("FAILURES")

    def test_unknown_suite_is_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nonsense",
                           "--type", "A2")
        assert code == 2
        assert err.startswith("error:")

    def test_negative_seed_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "positivity", "--type", "A2",
                      "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_seed_is_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "positivity",
                           "--type", "A2", "--seed", "5")
        assert code == 0


class TestCacheFlags:
    def test_no_cache_writes_nothing(self, capsys, tmp_path,
                                     monkeypatch):
        monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "mult", "--type", "A2",
                         "--left", "x[1]", "--right", "x[2]",
                         "--no-cache")
        assert code == 0
        assert os.listdir(tmp_path) == []

    def test_cache_writes_by_default(self, capsys, tmp_path,
                                     monkeypatch):
        monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "mult", "--type", "A2",
                         "--left", "x[1]", "--right", "x[2]")
        assert code == 0
        assert os.path.exists(ca.path_for("A2"))

    def test_unreadable_cache_path_warns_and_recomputes(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        # a directory where the A2 entry belongs can be neither read nor
        # replaced: the load warns and recomputes, the store warns
        monkeypatch.setenv("DESCENT_CACHE_DIR", str(tmp_path))
        os.makedirs(ca.path_for("A2"))
        with pytest.warns(UserWarning) as caught:
            code, out, err = run(capsys, "table", "--type", "A2")
        assert code == 0
        assert "Traceback" not in err
        assert [line.split() for line in out.splitlines()[2:]] == [
            ["A2", "1", "3", "2", "4,1"], ["A2", "2", "3", "1", "3"]]
        messages = [str(w.message) for w in caught]
        assert any("corrupt" in m for m in messages), messages
        assert any("could not write cache" in m for m in messages), messages
        assert os.path.isdir(ca.path_for("A2"))


class TestRankGate:
    def test_rank_seven_is_refused_without_the_flag(self, capsys):
        code, _, err = run(capsys, "table", "--type", "E7",
                           "--sigma", "1")
        assert code == 2
        assert err.startswith("error:")
        assert "--allow-rank7" in err

    @pytest.mark.parametrize("flag", [[], ["--allow-rank7"]])
    def test_rank_eight_is_refused_without_estimate_or_hint(self, capsys,
                                                           flag):
        # the flag unlocks rank 7 only, so it is neither advised nor
        # followed by an estimate for a type it cannot unlock
        code, out, err = run(capsys, "table", "--type", "E8", *flag)
        assert code == 2
        assert out == ""
        assert err == "error: rank 8 exceeds the hard cap of 7\n"

    def test_memory_estimate_value(self):
        # 2903040 elements, 7 generators at 9 bytes, 64 bytes of index
        # tables and keys; 32 MB of interpreter and the int64 tensor over
        # 128**3 subset triples
        per_element = 7 * 9 + 64
        assert cli.rank7_memory_estimate("E7") == (
            32 * 10**6 + 2903040 * per_element + 8 * 128**3)

    def test_estimate_printed_only_for_rank_seven(self, capsys):
        cli._maybe_print_rank7_estimate("E7", True)
        err = capsys.readouterr().err
        assert "estimated memory for E7" in err
        assert "order 2903040" in err
        cli._maybe_print_rank7_estimate("B3", True)
        assert capsys.readouterr().err == ""
        cli._maybe_print_rank7_estimate("E8", True)
        assert capsys.readouterr().err == ""
        cli._maybe_print_rank7_estimate("E7", False)
        assert capsys.readouterr().err == ""
