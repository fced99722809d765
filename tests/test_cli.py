"""Command-line interface tests: schemas, round-trips, exit codes.

Emitted CSV is re-parsed and validated against the library (sweep rows are
re-residualized; wrt/jones rows compared to direct evaluations), so these
are end-to-end checks rather than golden files.
"""

import csv
import io
import math
import os
import shlex

import pytest

from olim41 import cli, quantum_invariants
from olim41.cli import emit_csv, main
from olim41.quantum_invariants import (
    RootOfUnityContext,
    colored_jones_fig8,
    wrt_direct,
)
from olim41.saddle_solver import residual_fig8

SADDLE_SCHEMA = ["p", "re_zeta", "im_zeta", "re_omega", "im_omega",
                 "c1", "c2", "re_V", "im_V", "residual", "label"]
# the header each subcommand prints; wrt's is that of --form both
SCHEMAS = {
    "jones": ["N", "n", "re", "im"],
    "wrt": ["N", "p", "re_direct", "im_direct", "re_double", "im_double",
            "discrepancy"],
    "saddle": SADDLE_SCHEMA,
    "olim": ["p", "re_zeta", "im_zeta", "re_omega", "im_omega", "re_V",
             "im_V", "re_target", "im_target", "abs_error", "matched",
             "label"],
    "sweep": SADDLE_SCHEMA,
    "growth": ["N", "log_tau", "log_tau_over_N", "log_tau_over_log_N"],
    "special": ["fn", "arg", "re", "im"],
}
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _readme_commands():
    """The olim41 lines of the README's command-line block."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("olim41 ")]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


class TestSaddleCommand:
    def test_p6_has_six_rows(self, capsys):
        code, out, err = _run(["saddle", "--p", "6"], capsys)
        assert code == 0 and err == ""
        header, rows = _rows(out)
        assert header == SADDLE_SCHEMA
        assert len(rows) == 6
        assert rows[0]["label"] == "geometric-candidate"
        for row in rows:
            assert float(row["residual"]) < 1e-9

    @pytest.mark.parametrize("p", [-137, 137])
    def test_framing_past_bound_is_domain_error(self, capsys, p):
        code, out, err = _run(["saddle", "--p", str(p)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "136" in err


class TestReadmeCommands:
    """Every command line the README shows runs and prints its schema."""

    def test_every_subcommand_is_shown(self):
        assert sorted({line.split()[1] for line in _readme_commands()}) == \
            sorted(SCHEMAS)

    @pytest.mark.parametrize("line", _readme_commands())
    def test_command_runs(self, line, capsys):
        argv = shlex.split(line)[1:]
        code, out, err = _run(argv, capsys)
        assert (code, err) == (0, ""), line
        header, rows = _rows(out)
        assert header == SCHEMAS[argv[0]], line
        assert rows, line


class TestWrtCommand:
    def test_both_forms_agree(self, capsys):
        for N, p in ((3, 6), (8, 3)):
            code, out, _ = _run(["wrt", "--N", str(N), "--p", str(p),
                                 "--form", "both"], capsys)
            assert code == 0
            _, rows = _rows(out)
            assert float(rows[0]["discrepancy"]) < 1e-12

    def test_single_form_matches_library(self, capsys):
        code, out, _ = _run(["wrt", "--N", "9", "--p", "4"], capsys)
        assert code == 0
        _, rows = _rows(out)
        value = complex(float(rows[0]["re"]), float(rows[0]["im"]))
        expected = wrt_direct(RootOfUnityContext(9), 4)
        assert abs(value - expected) < 1e-10

    def test_huge_framing(self, capsys):
        # p = 6 + 120 * 2^60: p N^2 is past int64 and 3 - p past 2^53
        code, out, err = _run(["wrt", "--N", "30", "--p",
                               str(6 + 120 * 2 ** 60), "--form", "both"],
                              capsys)
        assert code == 0 and err == ""
        _, rows = _rows(out)
        expected = wrt_direct(RootOfUnityContext(30), 6)
        value = complex(float(rows[0]["re_double"]), float(rows[0]["im_double"]))
        assert abs(value - expected) < 1e-9 * abs(expected)

    def test_direct_form_rejects_zero_framing(self, capsys):
        code, out, err = _run(["wrt", "--N", "5", "--p", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_double_form_accepts_zero_framing(self, capsys):
        code, out, _ = _run(["wrt", "--N", "5", "--p", "0",
                             "--form", "double"], capsys)
        assert code == 0
        _, rows = _rows(out)
        assert rows[0]["form"] == "double"


class TestJonesCommand:
    def test_matches_library(self, capsys):
        code, out, _ = _run(["jones", "--N", "7", "--n", "3"], capsys)
        assert code == 0
        _, rows = _rows(out)
        expected = colored_jones_fig8(RootOfUnityContext(7), 3)
        assert abs(float(rows[0]["re"]) - expected.real) < 1e-10
        assert abs(float(rows[0]["im"]) - expected.imag) < 1e-10


class TestOlimCommand:
    def test_p6_geometric_row_matches(self, capsys):
        code, out, _ = _run(["olim", "--p", "6", "--tol", "1e-6"], capsys)
        assert code == 0
        _, rows = _rows(out)
        assert len(rows) == 6
        geometric = [r for r in rows if r["label"] == "geometric-candidate"]
        assert len(geometric) == 1
        assert geometric[0]["matched"] == "true"
        assert float(geometric[0]["abs_error"]) < 1e-6
        real_valued = [r for r in rows if r["label"] == "unit-modulus"]
        assert all(r["matched"] == "false" for r in real_valued)

    def test_missing_reference(self, capsys):
        code, out, err = _run(["olim", "--p", "7"], capsys)
        assert code == 1
        assert "no reference data" in err

    def test_user_refs_file(self, tmp_path, capsys):
        refs = tmp_path / "refs.csv"
        refs.write_text("p,vol,cs\n5,0.9813688289,0.0770381803\n")
        code, out, _ = _run(["olim", "--p", "5", "--refs", str(refs),
                             "--tol", "1e-3"], capsys)
        assert code == 0
        _, rows = _rows(out)
        assert any(r["matched"] == "true" for r in rows)


    @pytest.mark.parametrize("content", [None, b"p,vol,cs\n5,\xff\xfe,0.07\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_refs_file(self, tmp_path, capsys, content):
        # a domain error: exit status 1 and one error line naming the path
        refs = tmp_path / "refs.csv"
        if content is not None:
            refs.write_bytes(content)
        code, out, err = _run(["olim", "--p", "6", "--refs", str(refs)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(refs) in err
        assert err.count("\n") == 1


class TestSweepCommand:
    def test_rows_roundtrip(self, capsys):
        code, out, _ = _run(["sweep", "--start", "6", "--step", "4",
                             "--count", "3"], capsys)
        assert code == 0
        header, rows = _rows(out)
        assert header == SADDLE_SCHEMA
        assert [int(r["p"]) for r in rows] == [6, 10, 14]
        for row in rows:
            zeta = complex(float(row["re_zeta"]), float(row["im_zeta"]))
            omega = complex(float(row["re_omega"]), float(row["im_omega"]))
            assert residual_fig8(int(row["p"]), zeta, omega) < 1e-8
            assert row["label"] == "geometric-candidate"

    def test_first_row_matches_table(self, capsys):
        code, out, _ = _run(["sweep", "--count", "1"], capsys)
        assert code == 0
        _, rows = _rows(out)
        row = rows[0]
        assert abs(float(row["re_zeta"]) - 0.3679390314) < 1e-9
        assert abs(float(row["im_zeta"]) + 0.4972675889) < 1e-9
        assert abs(float(row["re_omega"]) - 0.1027847152) < 1e-9
        assert abs(float(row["im_omega"]) + 0.6654569513) < 1e-9

    def test_idempotent(self, capsys):
        _, first, _ = _run(["sweep", "--count", "2"], capsys)
        _, second, _ = _run(["sweep", "--count", "2"], capsys)
        assert first == second

    def test_past_the_saddle_bound(self, capsys):
        code, out, err = _run(["sweep", "--start", "1835", "--count", "1"],
                              capsys)
        assert (code, err) == (0, "")
        _, rows = _rows(out)
        assert [row["label"] for row in rows] == ["geometric-candidate"]

    def test_empty_sweep(self, capsys):
        code, out, _ = _run(["sweep", "--count", "0"], capsys)
        assert code == 0
        assert out == ",".join(SADDLE_SCHEMA) + "\n"


class TestGrowthCommand:
    def test_rows_sorted(self, capsys):
        code, out, _ = _run(["growth", "--p", "6", "--N-list", "20,10"], capsys)
        assert code == 0
        header, rows = _rows(out)
        assert header == ["N", "log_tau", "log_tau_over_N", "log_tau_over_log_N"]
        assert [int(r["N"]) for r in rows] == [10, 20]

    def test_bad_n_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["growth", "--p", "6", "--N-list", "abc"])
        assert exc.value.code == 2


class TestSpecialCommand:
    def test_clausen(self, capsys):
        code, out, _ = _run(["special", "--fn", "cl2",
                             "--arg", repr(math.pi / 3)], capsys)
        assert code == 0
        _, rows = _rows(out)
        assert abs(float(rows[0]["re"]) - 1.0149416064096536) < 1e-10
        assert float(rows[0]["im"]) == 0.0

    def test_dilog_complex_argument(self, capsys):
        from olim41.specfun import dilog
        code, out, _ = _run(["special", "--fn", "li2", "--arg", "0.5+0.5j"],
                            capsys)
        assert code == 0
        _, rows = _rows(out)
        expected = dilog(complex(0.5, 0.5))
        assert abs(float(rows[0]["re"]) - expected.real) < 1e-10
        assert abs(float(rows[0]["im"]) - expected.imag) < 1e-10

    def test_bernoulli(self, capsys):
        code, out, _ = _run(["special", "--fn", "b2", "--arg", "0.25"], capsys)
        assert code == 0
        _, rows = _rows(out)
        assert abs(float(rows[0]["re"]) + 0.020833333333333333) < 1e-12

    def test_parse_error(self, capsys):
        code, _, err = _run(["special", "--fn", "li2", "--arg", "zzz"], capsys)
        assert code == 1
        assert "could not parse" in err


class TestOutputTarget:
    def test_file_equals_stdout(self, tmp_path, capsys):
        _, stdout_text, _ = _run(["sweep", "--count", "1"], capsys)
        target = tmp_path / "sweep.csv"
        code, out, _ = _run(["sweep", "--count", "1",
                             "--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text


    def test_output_in_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "special.csv"
        code, out, err = _run(["special", "--fn", "b2", "--arg", "0.25",
                               "--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and str(target) in err
        assert err.count("\n") == 1
        assert not target.exists()


class TestUsageErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["saddle"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestEmitCsv:
    def test_empty_table_is_header_only(self):
        assert emit_csv([], ["a", "b"]) == "a,b\n"

    def test_schema_mismatch(self):
        with pytest.raises(ValueError):
            emit_csv([[1, 2, 3]], ["a", "b"])

    def test_formatting(self):
        text = emit_csv([[1, 0.5, True, "x"]], ["i", "f", "b", "s"])
        assert text == "i,f,b,s\n1,0.5,true,x\n"


class TestRepeatedCalls:
    """main builds its parser once per process; one call must not leave
    state behind for the next."""

    def test_parser_is_built_once(self):
        from olim41.cli import _build_parser
        assert _build_parser() is _build_parser()

    def test_output_flag_does_not_stick(self, tmp_path, capsys):
        target = tmp_path / "special.csv"
        argv = ["special", "--fn", "b2", "--arg", "0.25"]
        code, out, _ = _run(argv + ["--output", str(target)], capsys)
        assert code == 0 and out == ""
        code, out, _ = _run(argv, capsys)
        assert code == 0
        assert out == target.read_text(encoding="utf-8")

    def test_wrt_keeps_the_last_order_context(self, monkeypatch, capsys):
        # the benchmark's tau-grid runs each order's framings one after
        # another; the rows are built once per order, not per framing
        builds = []
        build = quantum_invariants._fixed_sum
        monkeypatch.setattr(quantum_invariants, "_fixed_sum",
                            lambda N, dps, route: builds.append((N, route, dps))
                            or build(N, dps, route))
        cli._context.cache_clear()
        for N, p in ((33, 1), (33, 2), (33, 3), (34, 1)):
            code, out, _ = _run(["wrt", "--N", str(N), "--p", str(p),
                                 "--form", "both"], capsys)
            assert code == 0
            _, rows = _rows(out)
            assert float(rows[0]["discrepancy"]) < 1e-9
        assert builds == [(N, route, 40) for N in (33, 34)
                          for route in ("direct", "double")]

    def test_good_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["special", "--fn", "li2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = _run(["special", "--fn", "b2", "--arg", "0.25"],
                              capsys)
        assert code == 0 and err == ""
        _, rows = _rows(out)
        assert rows[0]["fn"] == "b2"
