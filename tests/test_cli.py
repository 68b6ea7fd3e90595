import argparse
import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdmt.cli
from wdmt import (
    SCENARIO_KINDS, AntennaProfile, DmtError, Scenario, SlopeFit, Weights, compare,
    curve_for_scenario, dmt_different, fit_slope, outage_probability, outage_table,
    validate_weights,
)
from wdmt.cli import (
    CSV_COLUMNS,
    EXIT_OK,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    MAX_SNR_POINTS,
    CliError,
    _fmt,
    build_parser,
    main,
    parse_profile,
    parse_r_list,
    parse_snr_grid,
    parse_weights,
    parse_window,
)

CURVE_2 = dmt_different(AntennaProfile((2, 1)), validate_weights((0.6, 0.4)))  # r in [0, 2]

# (flag, parser, text) of list values with an empty entry; each used to be
# read as a shorter list
EMPTY_ENTRIES = [
    ("--weights", parse_weights, "0.5,,0.5"),
    ("--weights", parse_weights, "0.5,0.5,"),
    ("--profile", parse_profile, "2,,1"),
    ("--r", parse_r_list, "1,,1.5"),
]


@pytest.fixture
def fresh_parser():
    """A parser built after the test's spies are in place, and none cached
    afterwards that keeps a spy."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def read_corners(path):
    corners = []
    for line in path.read_text().splitlines()[1:]:
        section, r, d = line.split(",")
        if section == "corner":
            corners.append((float(r), float(d)))
    return tuple(corners)


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParsing:
    def test_fraction_weights_exact(self):
        w = parse_weights("3/5,2/5")
        assert w.mu == (0.6, 0.4)
        w = parse_weights("2/3,1/3")
        assert w.mu == (2 / 3, 1 / 3)

    def test_decimal_weights(self):
        assert parse_weights("0.5,0.5").mu == (0.5, 0.5)

    def test_snr_grid(self):
        assert parse_snr_grid("10:40:10") == (10.0, 20.0, 30.0, 40.0)
        assert parse_snr_grid("15") == (15.0,)

    def test_snr_grid_endpoint_inclusive_with_float_step(self):
        grid = parse_snr_grid("0:1:0.1")
        assert len(grid) == 11
        assert grid[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("text", ["0:nan:1", "0:inf:1", "0:10:nan", "nan:10:1", "-inf:0:1"])
    def test_non_finite_snr_grid_rejected(self, text):
        # each of these used to loop, appending grid points until memory ran out
        with pytest.raises(CliError, match="finite"):
            parse_snr_grid(text)

    @pytest.mark.parametrize("parse, text", [case[1:] for case in EMPTY_ENTRIES])
    def test_empty_list_entry_rejected(self, parse, text):
        with pytest.raises(CliError, match="empty entry"):
            parse(text)

    @pytest.mark.parametrize("text", ["3090", "0:4000:1000", "-4000", "-4000:0:1000"])
    def test_snr_grid_outside_the_float_range_rejected(self, text):
        # 3090 dB overflows 10 ** (db / 10) and -4000 dB underflows it to 0
        with pytest.raises(CliError, match="linear SNR"):
            parse_snr_grid(text)

    @pytest.mark.parametrize("text, message", [
        ("1:2", "start:stop:step"), ("0:10:0", "step must be > 0"),
        ("0:10:-1", "step must be > 0"), ("10:0:1", "below start"),
    ])
    def test_malformed_snr_grid_rejected(self, text, message):
        with pytest.raises(CliError, match=message):
            parse_snr_grid(text)

    @pytest.mark.parametrize("text", ["10", "10:20:30"])
    def test_window_needs_two_ends(self, text):
        with pytest.raises(CliError, match="low:high"):
            parse_window(text)

    def test_snr_grid_point_limit(self):
        # a step of 0.1 dB keeps every point's linear SNR inside the float range
        assert len(parse_snr_grid(f"0:{(MAX_SNR_POINTS - 1) / 10}:0.1")) == MAX_SNR_POINTS
        # a finite grid used to append points until memory ran out; it now
        # stops one point past the limit
        for text in (f"0:{MAX_SNR_POINTS}:1", "0:1e9:1e-3"):
            with pytest.raises(CliError, match="more than"):
                parse_snr_grid(text)


@pytest.mark.parametrize("flag, parse, text", EMPTY_ENTRIES)
def test_empty_list_entry_is_usage_error(capsys, flag, parse, text):
    argv = {
        "--weights": ["curve", "--scenario", "bc-zf", "--m", "3"],
        "--profile": ["curve", "--scenario", "parallel-different", "--weights", "0.5,0.5"],
        "--r": ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                "--snr-db", "10", "--samples", "100"],
    }[flag]
    assert main([*argv, flag, text]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: argument {flag}: empty entry in {text!r}\n"


def test_value_flags_have_converters():
    # argparse runs `type` on string defaults, and main runs each config entry
    # through its flag's `type`, so flags, defaults and config entries share one
    # converter. Only paths stay strings; a choice flag's `type` checks the
    # choice, which argparse's `choices` would not do for a default.
    _, commands = build_parser()
    checked = 0
    for command, parser in commands.items():
        for action in parser._actions:
            if action.dest == "help":
                continue
            untyped = action.dest in ("config", "out", "input")
            assert (action.type is None) == untyped, (command, action.dest)
            assert action.choices is None, (command, action.dest)
            checked += isinstance(action.default, str) and action.type is not None
    # --samples, --seed and --format twice, --shards, --tol, --mean-tol, --var-tol
    assert checked == 10


@pytest.mark.parametrize("argv, message", [
    (["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.3,0.3"],
     "argument --weights: weights sum to 0.6; expected 1 within 1e-09"),
    (["curve", "--scenario", "bc-zf", "--m", "3", "--k", "3", "--weights", "0.5,0.5"],
     "--k 3 but 2 weights given"),
    (["curve", "--m", "3", "--weights", "0.5,0.5"],
     "the following arguments are required: --scenario"),
    (["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5", "--r", "1"],
     "the following arguments are required: --snr-db"),
], ids=["weights-off-one", "k-vs-weights", "no-scenario", "no-snr-db"])
def test_inconsistent_or_missing_flag_is_usage_error(capsys, argv, message):
    # weights off 1 are rejected, not renormalized
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


# argparse on its own takes -10:0:5 and -0.5,1.5 for unknown flags and exits
# with "expected one argument"; build_parser overrides its private pattern for
# negative numbers, so these tests fail if an argparse release drops it.
def test_negative_snr_grid_is_a_value(capsys):
    sim = ["simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5", "--r", "1",
           "--samples", "1000"]
    assert main([*sim, "--snr-db", "-10:0:5"]) == EXIT_OK
    spaced = capsys.readouterr()
    assert main([*sim, "--snr-db=-10:0:5"]) == EXIT_OK
    assert capsys.readouterr() == spaced and spaced.out.count("\n") == 4


@pytest.mark.parametrize("text", ["-0.5,1.5", "-.5,1.5"])
def test_negative_weights_reach_their_converter(capsys, text):
    assert main(["curve", "--scenario", "bc-zf", "--m", "3", "--weights", text]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: argument --weights: all weights must be > 0, got (-0.5, 1.5)\n"
    )


def test_dash_letter_value_is_still_a_flag(capsys):
    argv = ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5", "--out", "-x"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: argument --out: expected one argument\n"


class TestCurveCommand:
    def test_dpc_corner_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--scenario", "bc-dpc", "--m", "3", "--k", "2",
            "--weights", "0.6,0.4", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert read_corners(out) == ((0.0, 5.0), (0.8, 3.0), (2.0, 0.0))

    def test_uniform_parallel_line(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--scenario", "parallel-identical", "--nt", "2", "--k", "2",
            "--weights", "0.5,0.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            section, r, d = line.split(",")
            if section == "dense":
                assert float(d) == pytest.approx(4 - 2 * float(r), abs=1e-12)

    def test_missing_weights_is_usage_error(self, capsys):
        code = main(["curve", "--scenario", "bc-zf", "--m", "3", "--k", "2"])
        assert code == EXIT_USAGE
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, via_config):
        # --out into a missing directory, or a config entry `out =` with no value
        argv = ["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5"]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("out =\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--out", str(tmp_path / "missing" / "x.csv")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_empty_profile_is_usage_error(self, capsys):
        code = main([
            "curve", "--scenario", "parallel-different", "--profile", ",",
            "--weights", "0.5,0.5",
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [["--scenario", "bc-zf", "--m", "3", "--nt", "2"],
         ["--scenario", "parallel-identical", "--nt", "2", "--profile", "2,1"],
         ["--scenario", "parallel-different", "--profile", "2,1", "--m", "3"]],
        ids=["bc-zf-nt", "identical-profile", "different-m"],
    )
    def test_unused_antenna_flag_is_usage_error(self, capsys, flags):
        assert main(["curve", *flags, "--weights", "0.55,0.45"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "only" in err

    @pytest.mark.parametrize("kind, flag", [
        ("bc-zf", "--m"), ("bc-dpc", "--m"), ("parallel-identical", "--nt"),
        ("parallel-different", "--profile"),
    ])
    def test_missing_antenna_flag_is_named_by_its_flag(self, capsys, kind, flag):
        # the library named the field and its None: "m must be an integer >= 1, got None"
        assert main(["curve", "--scenario", kind, "--weights", "0.5,0.5"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: --scenario {kind} needs {flag}\n")

    def test_too_many_users_is_usage_error(self):
        code = main([
            "curve", "--scenario", "bc-zf", "--m", "2", "--k", "3",
            "--weights", "0.4,0.3,0.3",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("weights", [
        "1", "0.6,0.4", "0.5,0.5", "0.5,0.3,0.2", "0.4,0.3,0.3", "0.4,0.3,0.2,0.1",
        "0.35,0.25,0.25,0.15",
    ])
    def test_dense_rows_are_the_curve_bit_for_bit(self, tmp_path, kind, weights):
        k = weights.count(",") + 1
        profile = (3, 1, 2, 1)[:k]
        field, text, value = {
            "parallel-identical": ("n_t", "2", 2),
            "parallel-different": ("profile", ",".join(map(str, profile)),
                                   AntennaProfile(profile)),
            "bc-zf": ("m", str(k + 1), k + 1),
            "bc-dpc": ("m", str(k), k),
        }[kind]
        out = tmp_path / "curve.csv"
        assert main(["curve", "--scenario", kind, "--" + field.replace("_", ""), text,
                     "--weights", weights, "--out", str(out)]) == EXIT_OK
        curve = curve_for_scenario(Scenario(kind, parse_weights(weights), **{field: value}))
        dense = [line.split(",")[1:] for line in out.read_text().splitlines()
                 if line.startswith("dense,")]
        steps = 100 * k
        assert [float(r) for r, _ in dense] == [i * k / steps for i in range(steps + 1)]
        for r, d in dense:
            assert float(d).hex() == curve.evaluate(float(r)).hex(), r

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        code = main([
            "curve", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "1/2,1/2", "--format", "json", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["corners"] == [[0.0, 4.0], [1.0, 2.0], [2.0, 0.0]]
        assert len(payload["dense"]) == 201


class TestSimulateCommand:
    def test_scalar_channel_matches_oracle(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--r", "0.5", "--snr-db", "10", "--samples", "200000",
            "--seed", "9", "--out", str(out),
        ])
        assert code == EXIT_OK
        row = read_rows(out)[0]
        truth = 1 - math.exp(-(10**0.5 - 1) / 10)
        assert float(row["ci_low"]) <= truth <= float(row["ci_high"])
        assert row["scenario"] == "parallel-identical"
        assert row["K"] == "1" and row["M"] == "1"

    def test_zero_rate_row(self, tmp_path):
        out = tmp_path / "sim.csv"
        main([
            "simulate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--r", "0", "--snr-db", "20", "--samples", "10000",
            "--seed", "3", "--out", str(out),
        ])
        assert float(read_rows(out)[0]["p_hat"]) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--r", "0.5,1.0", "--snr-db", "5:15:5",
            "--samples", "20000", "--seed", "17", "--shards", "4",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_rows_match_csv_rows(self, tmp_path):
        args = [
            "simulate", "--scenario", "parallel-different", "--profile", "2,1",
            "--weights", "2/3,1/3", "--r", "0.5,1.0", "--snr-db", "5:10:5",
            "--samples", "5000", "--seed", "4", "--shards", "2",
        ]
        csv_out, json_out = tmp_path / "sim.csv", tmp_path / "sim.json"
        assert main(args + ["--out", str(csv_out)]) == EXIT_OK
        assert main(args + ["--format", "json", "--out", str(json_out)]) == EXIT_OK
        csv_rows = read_rows(csv_out)
        json_rows = json.loads(json_out.read_text())
        assert len(json_rows) == len(csv_rows) == 4
        for json_row, csv_row in zip(json_rows, csv_rows):
            fields = {
                key: _fmt(value) if isinstance(value, float) else str(value)
                for key, value in json_row.items()
            }
            assert fields == csv_row
            assert list(json_row) == list(csv_row)

    @pytest.mark.usefixtures("fresh_parser")
    def test_snr_grid_parsed_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse_snr_grid(text)

        monkeypatch.setattr(wdmt.cli, "parse_snr_grid", counting_parse)
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--r", "0.5,1.0,1.5", "--snr-db", "5:10:5",
            "--samples", "100", "--out", str(tmp_path / "sim.csv"),
        ])
        assert code == EXIT_OK and calls == ["5:10:5"]
        assert len(read_rows(tmp_path / "sim.csv")) == 6

    def test_oversized_snr_grid_is_usage_error(self, capsys):
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--r", "1", "--snr-db", "0:1e9:1e-3",
        ])
        assert code == EXIT_USAGE
        assert f"more than {MAX_SNR_POINTS} points" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", ["3090", "-4000", "0:3090:10"])
    def test_snr_outside_the_float_range_is_usage_error(self, capsys, snr_db):
        # 3090 dB ended in an OverflowError traceback; -4000 dB simulated the
        # earlier points, then exited 2 with a message that named no flag
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--r", "1", "--snr-db", snr_db, "--samples", "100",
        ])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(
            "error: argument --snr-db: linear SNR rho must be a finite number in (0.0, 1e+300], "
            "got "
        ) and err.count("\n") == 1

    @pytest.mark.parametrize("snr_db", ["3080", "2990:3010:10"])
    def test_snr_above_the_library_bound_is_usage_error(self, capsys, tmp_path, snr_db):
        # 3080 dB is a finite linear SNR, 1e308, but it would overflow the capacity
        out_path = tmp_path / "sim.csv"
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--r", "1", "--snr-db", snr_db, "--samples", "100",
            "--out", str(out_path),
        ])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == "" and not out_path.exists()
        assert err.startswith(
            "error: argument --snr-db: linear SNR rho must be a finite number in (0.0, 1e+300], "
            "got "
        ) and err.count("\n") == 1

    def test_snr_bound_checked_before_any_point(self, capsys, monkeypatch):
        # the grid's last point decides; 2990 and 3000 dB used to be simulated first
        calls = []
        monkeypatch.setattr(wdmt.cli, "outage_table", lambda *a, **kw: calls.append(a))
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--r", "1", "--snr-db", "2990:3010:10", "--samples", "100",
        ])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == "" and calls == []
        assert err == (
            "error: argument --snr-db: linear SNR rho must be a finite number in (0.0, 1e+300], "
            "got 1e+301\n"
        )

    @pytest.mark.parametrize("flags, entry, message", [
        (["--r", "1,2.5"], "",
         "argument --r: r must be a finite number in [0.0, 2.0], got 2.5"),
        ([], "format = xml", "argument --format: invalid choice: 'xml' (choose from 'csv', "
         "'json')"),
        ([], "scenario = foo", "argument --scenario: invalid choice: 'foo' (choose from "
         "'parallel-identical', 'parallel-different', 'bc-zf', 'bc-dpc')"),
    ], ids=["rate-above-k", "config-format", "config-scenario"])
    def test_every_value_checked_before_any_point(self, tmp_path, capsys, monkeypatch,
                                                  flags, entry, message):
        # the r = 1 points used to be simulated first; argparse checks choices
        # only on the command line, so a config entry was checked only when used
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return outage_table(*args, **kwargs)

        monkeypatch.setattr(wdmt.cli, "outage_table", counting)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scenario = bc-zf\nm = 3\nweights = 0.5,0.5\nr = 1\nsnr-db = 10\nsamples = 100\n"
            f"{entry}\n"
        )
        code = main(["simulate", "--config", str(cfg), *flags])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == "" and calls == []
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_negative_seed_is_usage_error(self, capsys, command):
        # numpy's "expected non-negative integer" used to name no flag
        argv = [command, "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                "--samples", "100", "--seed", "-1"]
        if command == "simulate":
            argv += ["--r", "1", "--snr-db", "10"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: argument --seed: seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_row_is_the_library_call_at_its_snr_points_seed(self, tmp_path, fmt):
        # every rate at the i-th SNR point reads the draws of SeedSequence((seed, 0, i));
        # only the first rate's rows used that seed, the others had (seed, i_r, i)
        out = tmp_path / f"sim.{fmt}"
        code = main([
            "simulate", "--scenario", "bc-dpc", "--m", "3", "--weights", "3/5,2/5",
            "--r", "1/2,1,1.5", "--snr-db", "5:15:5", "--samples", "3000", "--seed", "21",
            "--shards", "3", "--format", fmt, "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = json.loads(out.read_text()) if fmt == "json" else read_rows(out)
        scenario = Scenario("bc-dpc", parse_weights("3/5,2/5"), m=3)
        grid = [(r, i_db, db) for r in (0.5, 1.0, 1.5) for i_db, db in enumerate((5.0, 10.0, 15.0))]
        assert len(rows) == len(grid)
        for row, (r, i_db, db) in zip(rows, grid):
            est = outage_probability(scenario, r, 10.0 ** (db / 10.0), 3000,
                                     np.random.SeedSequence((21, 0, i_db)), 3)
            expected = (r, db, est.n_samples, est.n_outages, est.p_hat, est.ci_low, est.ci_high)
            columns = ("r", "rho_db", "n_samples", "n_outages", "p_hat", "ci_low", "ci_high")
            assert [_fmt(row[c]) for c in columns] == list(map(_fmt, expected))

    @pytest.mark.parametrize("text, rate", [("1,1.0,2/2", 1.0), ("0.5,1,1/2", 0.5)])
    def test_repeated_rate_is_usage_error(self, capsys, text, rate):
        # its rows would copy another rate's draws, and fit would pool the copies as points
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
            "--r", text, "--snr-db", "10", "--samples", "100",
        ])
        assert code == EXIT_USAGE and capsys.readouterr() == (
            "", f"error: argument --r: rate {rate} repeats in {text!r}\n")

    def test_missing_r_is_usage_error(self):
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--snr-db", "10",
        ])
        assert code == EXIT_USAGE


def write_power_law_table(path, d, db_points, n_samples, scenario="parallel-identical",
                          k=2, m_col="1", weights="0.5;0.5", r=1.0):
    """Hand-built simulate table following p = rho^(-d) exactly."""
    from wdmt import confidence_interval

    lines = [
        "scenario,K,M,weights,r,rho_db,n_samples,n_outages,p_hat,ci_low,ci_high,seed,shards"
    ]
    for db in db_points:
        p = (10.0 ** (db / 10.0)) ** (-d)
        outages = int(round(p * n_samples))
        lo, hi = confidence_interval(outages, n_samples)
        lines.append(
            f"{scenario},{k},{m_col},{weights},{r},{db},{n_samples},{outages},"
            f"{outages / n_samples!r},{lo!r},{hi!r},0,1"
        )
    path.write_text("\n".join(lines) + "\n")


class TestFitCommand:
    def test_exact_slope_passes(self, tmp_path, capsys):
        table = tmp_path / "sim.csv"
        # 2 x (1x1) uniform channels: d(1) = 1, synthetic slope exactly 1
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        code = main(["fit", "--input", str(table), "--window", "10:30"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "d_hat=1.0000" in out and "verdict=pass" in out

    def test_wrong_slope_fails(self, tmp_path, capsys):
        table = tmp_path / "sim.csv"
        # same synthetic data against 2 x (2x1) channels where d(1) = 2
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8, m_col="2")
        code = main(["fit", "--input", str(table), "--window", "10:30"])
        assert code == EXIT_STAT_FAIL
        assert "verdict=FAIL" in capsys.readouterr().out

    def test_empty_file_is_usage_error(self, tmp_path):
        table = tmp_path / "empty.csv"
        table.write_text("")
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE

    def test_wrong_header_is_usage_error(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("a,b,c\n1,2,3\n")
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE

    def test_json_table_round_trip(self, tmp_path, capsys):
        sim = tmp_path / "sim.json"
        code = main([
            "simulate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--r", "0.5", "--snr-db", "10:30:5",
            "--samples", "100000", "--seed", "23", "--format", "json",
            "--out", str(sim),
        ])
        assert code == EXIT_OK
        code = main(["fit", "--input", str(sim), "--window", "10:30", "--tol", "0.35"])
        out = capsys.readouterr().out
        assert "r=0.5" in out
        assert code in (EXIT_OK, EXIT_STAT_FAIL)  # tolerance decides, parsing must work

    def test_csv_round_trip_preserves_probabilities(self, tmp_path):
        sim = tmp_path / "sim.csv"
        main([
            "simulate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--r", "0.5", "--snr-db", "10", "--samples", "50000",
            "--seed", "31", "--out", str(sim),
        ])
        row = read_rows(sim)[0]
        assert float(row["p_hat"]) == int(row["n_outages"]) / int(row["n_samples"])

    @pytest.mark.parametrize(
        "column, value",
        [(0, "bc-dpc"), (1, "3"), (2, "4"), (3, "0.25;0.75"), (5, "nan")],
        ids=["scenario", "K", "M", "weights", "nan-rho_db"],
    )
    def test_inconsistent_row_is_usage_error(self, tmp_path, capsys, column, value):
        # a real three-row simulate table with one field of the middle row replaced
        sim = tmp_path / "sim.csv"
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
            "--r", "1.0", "--snr-db", "10:20:5", "--samples", "5000", "--seed", "41",
            "--out", str(sim),
        ])
        assert code == EXIT_OK
        lines = sim.read_text().splitlines()
        fields = lines[2].split(",")
        fields[column] = value
        lines[2] = ",".join(fields)
        sim.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(sim), "--window", "10:20"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_k_disagreeing_with_weights_is_usage_error(self, tmp_path, capsys):
        # every row agrees with the others, but K=3 against two weights
        sim = tmp_path / "sim.csv"
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
            "--r", "1.0", "--snr-db", "10:20:5", "--samples", "5000", "--seed", "41",
            "--out", str(sim),
        ])
        assert code == EXIT_OK
        lines = sim.read_text().splitlines()
        lines[1:] = [line.replace("bc-zf,2,", "bc-zf,3,", 1) for line in lines[1:]]
        sim.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(sim), "--window", "10:20"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("damage", ["not-objects", "row-lacks-K"])
    def test_malformed_json_table_is_usage_error(self, tmp_path, capsys, damage):
        sim = tmp_path / "sim.json"
        code = main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
            "--r", "1.0", "--snr-db", "10:20:5", "--samples", "5000", "--seed", "41",
            "--format", "json", "--out", str(sim),
        ])
        assert code == EXIT_OK
        rows = json.loads(sim.read_text())
        if damage == "not-objects":
            rows = [1, 2]
        else:
            del rows[1]["K"]
        sim.write_text(json.dumps(rows))
        assert main(["fit", "--input", str(sim), "--window", "10:20"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--window", "nan:30"], ["--window", "10:inf"],
            ["--window", "10:30", "--tol", "nan"], ["--window", "10:30", "--tol", "-0.1"],
            ["--window", "10:30", "--tol", "inf"],
        ],
        ids=["nan-low", "inf-high", "nan-tol", "negative-tol", "inf-tol"],
    )
    def test_non_finite_window_or_tolerance_is_usage_error(self, tmp_path, capsys, flags):
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        assert main(["fit", "--input", str(table), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags, message", [
        (["--window", "30:10"], "--window: window must have low <= high, got (30.0, 10.0)"),
        (["--window", "nan:30"],
         "--window: window low must be a finite number in (-inf, inf), got nan"),
        (["--window", "10:30", "--tol", "-0.1"],
         "--tol: tolerance must be a finite number in [0.0, inf), got -0.1"),
    ])
    def test_window_and_tolerance_messages_are_the_library_checks(
        self, tmp_path, capsys, flags, message
    ):
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        assert main(["fit", "--input", str(table), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: argument {message}\n"

    def test_reversed_window_is_usage_error(self, tmp_path, capsys):
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        assert main(["fit", "--input", str(table), "--window", "30:10"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: argument --window: ")

    @pytest.mark.parametrize("content, message", [
        (CSV_COLUMNS + "\n", "missing required columns"),
        ("[]", "missing required columns"),
        (CSV_COLUMNS + "\nbc-zf,2,3\n", "malformed row"),
        (None, "cannot read"),
        ("[1,", "cannot read"),
    ], ids=["header-only-csv", "empty-json", "short-row", "unreadable", "bad-json"])
    def test_unusable_table_is_usage_error(self, tmp_path, capsys, content, message):
        table = tmp_path / "sim.csv"
        if content is not None:
            table.write_text(content)
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and str(table) in err

    def test_scenario_of_a_table_is_read_once(self, tmp_path, capsys):
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, range(63), 10**8)
        read = mock.patch.object(wdmt.cli, "_scenario_from_row",
                                 wraps=wdmt.cli._scenario_from_row)
        with read as scenario_from_row:
            assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_OK
        assert scenario_from_row.call_count == 1
        assert "verdict=pass" in capsys.readouterr().out

    def test_failed_fit_at_one_r_still_reports_the_others(self, tmp_path, capsys):
        # r = 0.5 has one point with >= 20 events (100, 10 and 1 outages)
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 1000, r=0.5)
        low_events = table.read_text().splitlines()[1:]
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        table.write_text(table.read_text() + "\n".join(low_events) + "\n")
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_STAT_FAIL
        failed, passed = capsys.readouterr().out.splitlines()
        assert failed.startswith("r=0.5: FAIL (fewer than 2 points with >= 20 outage events")
        assert passed.startswith("r=1: d_hat=1.0000") and passed.endswith("verdict=pass")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_point_is_usage_error(self, tmp_path, capsys, fmt):
        # with its rows twice, this table fitted 6 points at half the stderr and exited 3
        table = tmp_path / f"sim.{fmt}"
        assert main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5", "--r", "1",
            "--snr-db", "10:25:5", "--samples", "4000", "--seed", "0", "--format", fmt,
            "--out", str(table),
        ]) == EXIT_OK
        if fmt == "json":
            rows = json.loads(table.read_text())
            table.write_text(json.dumps(rows + rows))
        else:
            header, *rows = table.read_text().splitlines()
            table.write_text("\n".join([header, *rows, *rows]) + "\n")
        assert main(["fit", "--input", str(table), "--window", "10:25"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: row repeats r=1, rho_db=10 of row 1 ({table}, row 5)\n")

    def test_repeated_point_is_matched_by_value(self, tmp_path, capsys):
        # 20 and 20.0 are one SNR point
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        header, *rows = table.read_text().splitlines()
        table.write_text("\n".join([header, *rows, rows[1].replace(",20,", ",20.0,")]) + "\n")
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: row repeats r=1, rho_db=20 of row 2 ({table}, row 4)\n")

    def test_row_snr_outside_the_float_range_is_usage_error(self, tmp_path, capsys):
        # a 3090 dB row ended in an OverflowError traceback
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        *head, last = table.read_text().splitlines()
        fields = last.split(",")
        fields[5] = "3090"  # rho_db
        table.write_text("\n".join([*head, ",".join(fields)]) + "\n")
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: linear SNR rho must be a finite number in (0.0, inf), got inf"
        )

    @pytest.mark.parametrize("rates, db_points, window, row", [
        ((1.0, 2.5), (0, 5, 10), "0:10", 4),
        ((2.5,), (10,), "10:20", 1),
    ], ids=["after-a-valid-rate", "unfittable"])
    def test_every_rate_checked_against_k_before_any_verdict(
        self, tmp_path, capsys, rates, db_points, window, row
    ):
        # the r = 1 verdict was printed before r = 2.5 exited 2, and a lone
        # r = 2.5 row read as a failed fit (exit 3)
        table = tmp_path / "sim.csv"
        lines = [CSV_COLUMNS]
        for r in rates:
            write_power_law_table(table, 1.0, db_points, 10**6, scenario="bc-zf", m_col="3", r=r)
            lines += table.read_text().splitlines()[1:]
        table.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--input", str(table), "--window", window]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: r must be a finite number in [0.0, 2.0], got 2.5 ({table}, row {row})\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column, value, message", [
        ("n_samples", "x", "invalid literal for int() with base 10: 'x'"),
        ("M", "2;3", "invalid literal for int() with base 10: '2;3'"),
    ], ids=["samples-not-a-number", "identical-m-list"])
    def test_row_fault_names_its_file_and_row(self, tmp_path, capsys, fmt, column, value,
                                              message):
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**8)
        rows = read_rows(table)
        rows[1][column] = value
        if fmt == "json":
            table = tmp_path / "sim.json"
            table.write_text(json.dumps(rows))
        else:
            table.write_text("\n".join([CSV_COLUMNS, *(",".join(r.values()) for r in rows)]))
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message} ({table}, row 2)\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("column, value, message", [
        ("p_hat", "0.999", "p_hat 0.999 is not n_outages/n_samples = {n_outages}/{n_samples}"),
        ("p_hat", repr(math.nextafter(0.01, 1.0)),
         "p_hat 0.010000000000000002 is not n_outages/n_samples = {n_outages}/{n_samples}"),
        ("seed", "x", "invalid literal for int() with base 10: 'x'"),
        ("seed", "-1", "seed must be an integer >= 0, got -1"),
        ("shards", "0", "shards must be an integer >= 1, got 0"),
        ("shards", "-4", "shards must be an integer >= 1, got -4"),
    ], ids=["p-hat-off", "p-hat-one-ulp-off", "seed-not-a-number", "negative-seed",
            "zero-shards", "negative-shards"])
    def test_row_that_simulate_cannot_write_is_usage_error(self, tmp_path, capsys, fmt, column,
                                                           value, message):
        # row 2 holds 100 outages of 10^4 samples, p_hat 0.01
        table = tmp_path / "sim.csv"
        write_power_law_table(table, 1.0, (10, 20, 30), 10**4)
        rows = read_rows(table)
        assert (rows[1]["n_outages"], rows[1]["p_hat"]) == ("100", "0.01")
        rows[1][column] = value
        if fmt == "json":
            table = tmp_path / "sim.json"
            table.write_text(json.dumps(rows))
        else:
            table.write_text("\n".join([CSV_COLUMNS, *(",".join(r.values()) for r in rows)]))
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE
        message = message.format(**rows[1])
        assert capsys.readouterr() == ("", f"error: {message} ({table}, row 2)\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate_tables_pass_the_p_hat_check(self, tmp_path, capsys, fmt):
        # p_hat is written by .17g in CSV and by repr in JSON: both read back exactly
        sim = tmp_path / f"sim.{fmt}"
        assert main([
            "simulate", "--scenario", "bc-zf", "--m", "3", "--weights", "0.6,0.4",
            "--r", "0.5,1,1.5", "--snr-db", "0:30:3", "--samples", "3000", "--seed", "5",
            "--shards", "3", "--format", fmt, "--out", str(sim),
        ]) == EXIT_OK
        assert main(["fit", "--input", str(sim), "--window", "0:30"]) in (EXIT_OK, EXIT_STAT_FAIL)
        assert capsys.readouterr().err == ""

    def test_undecodable_table_is_usage_error(self, tmp_path, capsys):
        # the codec's message named no file
        table = tmp_path / "sim.csv"
        table.write_bytes(b"\xff" + CSV_COLUMNS.encode() + b"\n")
        assert main(["fit", "--input", str(table), "--window", "10:30"]) == EXIT_USAGE
        assert capsys.readouterr() == ("", (
            f"error: cannot read {table}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        ))

    def test_parallel_different_profile_round_trip(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        code = main([
            "simulate", "--scenario", "parallel-different", "--profile", "2,1",
            "--weights", "2/3,1/3", "--r", "1.0", "--snr-db", "10:20:5",
            "--samples", "50000", "--seed", "37", "--out", str(sim),
        ])
        assert code == EXIT_OK
        assert read_rows(sim)[0]["M"] == "2;1"
        code = main(["fit", "--input", str(sim), "--window", "10:20", "--tol", "0.9"])
        assert "r=1" in capsys.readouterr().out
        assert code in (EXIT_OK, EXIT_STAT_FAIL)


class TestValidateCommand:
    def test_scalar_exponential_passes(self, capsys):
        code = main([
            "validate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--samples", "200000", "--seed", "5",
        ])
        assert code == EXIT_OK
        assert "Gamma(1,1)" in capsys.readouterr().out

    def test_dpc_gain_ladder_passes(self, capsys):
        code = main([
            "validate", "--scenario", "bc-dpc", "--m", "3", "--k", "2",
            "--weights", "0.5,0.5", "--samples", "200000", "--seed", "7",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Gamma(3,1)" in out and "Gamma(2,1)" in out

    def test_impossible_tolerance_fails(self):
        code = main([
            "validate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--samples", "50000", "--seed", "5",
            "--mean-tol", "1e-9",
        ])
        assert code == EXIT_STAT_FAIL

    @pytest.mark.parametrize(
        "flag, value",
        [("--mean-tol", "nan"), ("--mean-tol", "-0.01"), ("--var-tol", "nan"),
         ("--var-tol", "-1")],
    )
    def test_bad_tolerance_is_usage_error(self, capsys, flag, value):
        code = main([
            "validate", "--scenario", "parallel-identical", "--nt", "1", "--k", "1",
            "--weights", "1", "--samples", "1000", flag, value,
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


# Every flag of one run per command; the config-file test moves them all into
# a file. The validate run's --mean-tol is impossible, so it must FAIL both ways.
CONFIG_RUNS = {
    "curve": [
        "--scenario", "bc-dpc", "--m", "3", "--k", "2", "--weights", "3/5,2/5",
        "--format", "json",
    ],
    "simulate": [
        "--scenario", "bc-zf", "--m", "3", "--k", "2", "--weights", "0.5,0.5",
        "--r", "0.5,1.0", "--snr-db", "5:10:5", "--samples", "2000", "--seed", "11",
        "--shards", "2", "--format", "json",
    ],
    "validate": [
        "--scenario", "parallel-identical", "--nt", "2", "--k", "1", "--weights", "1",
        "--samples", "20000", "--seed", "5", "--mean-tol", "1e-9", "--var-tol", "0.5",
    ],
}


class TestConfigFile:
    @pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
    def test_config_file_matches_flags(self, tmp_path, capsys, command):
        flags = CONFIG_RUNS[command]
        if command != "validate":
            flags = flags + ["--out", str(tmp_path / "out")]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            out = tmp_path / "out"
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, captured.out, captured.err, written

        by_flags = run([command, *flags])
        assert by_flags[0] == (EXIT_STAT_FAIL if command == "validate" else EXIT_OK)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            f"{flags[i][2:]} = {flags[i + 1]}\n" for i in range(0, len(flags), 2)
        ))
        assert run([command, "--config", str(cfg)]) == by_flags

    @pytest.mark.parametrize("entry", ["scenario = foo", "format = xml"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, entry):
        # argparse checks choices only on the command line, not on defaults
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = bc-zf\nm = 3\nweights = 0.5,0.5\n{entry}\n")
        assert main(["curve", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_entry_is_named_by_its_flag_unless_a_flag_overrides_it(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = bc-zf\nm = 3\nweights = 0.3,0.3\n")
        assert main(["curve", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: argument --weights: weights sum to 0.6; expected 1 within 1e-09\n"
        )
        assert main(["curve", "--config", str(cfg), "--weights", "0.5,0.5"]) == EXIT_OK

    @pytest.mark.usefixtures("fresh_parser")
    def test_config_run_converts_each_value_once(self, tmp_path, monkeypatch):
        # argv is parsed once, so a flag's grid (up to MAX_SNR_POINTS points)
        # is built once, and a config entry only when no flag overrides it
        calls = []

        def counting(text):
            calls.append(text)
            return parse_snr_grid(text)

        monkeypatch.setattr(wdmt.cli, "parse_snr_grid", counting)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = bc-zf\nm = 3\nweights = 0.5,0.5\nr = 1\nsnr-db = 0:10:5\nsamples = 100\n"
        )
        out = str(tmp_path / "out.csv")
        for flags, converted in (([], ["0:10:5"]), (["--snr-db", "20"], ["20"])):
            calls.clear()
            assert main(["simulate", "--config", str(cfg), "--out", out, *flags]) == EXIT_OK
            assert calls == converted

    def test_config_keys_of_other_commands_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = bc-zf\nm = 3\nweights = 0.5,0.5\n"
            "config = /nonexistent.cfg\ntol = 9\nr = 7\nmean-tol = x\n"
        )
        assert main(["curve", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().err == "corners: (0,4) (1,2) (2,0)\n"

    @pytest.mark.parametrize("entry", ["sample = 10", "func = x", "command = fit", "help = 1"])
    def test_config_key_of_no_flag_is_usage_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = bc-zf\nm = 3\nweights = 0.5,0.5\n{entry}\n")
        assert main(["curve", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and entry.split()[0] in err

    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# broadcast example\n"
            "scenario = bc-dpc\n"
            "m = 3\n"
            "k = 2\n"
            "weights = 3/5,2/5\n"
        )
        out = tmp_path / "curve.csv"
        code = main(["curve", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        assert read_corners(out) == ((0.0, 5.0), (0.8, 3.0), (2.0, 0.0))

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = bc-dpc\nm = 3\nk = 2\nweights = 3/5,2/5\n")
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--config", str(cfg), "--scenario", "bc-zf", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert read_corners(out)[0] == (0.0, 4.0)

    def test_config_line_without_equals_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = bc-zf\nm 3\n")
        assert main(["curve", "--config", str(cfg)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value'\n"

    def test_missing_config_file(self):
        assert main(["curve", "--config", "/nonexistent.cfg"]) == EXIT_USAGE

    def test_empty_config_path_is_usage_error(self, capsys):
        # an empty path was taken for no --config at all, and the run exited 0
        code = main(["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5",
                     "--config", ""])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot read config file : ") and err.count("\n") == 1


BC_ZF = ["--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.5"]


def library_message(call) -> str:
    with pytest.raises(DmtError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("argv, call", [
    (["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "0.5,0.6"],
     lambda: Weights((0.5, 0.6))),
    (["simulate", *BC_ZF, "--r", "1", "--snr-db", "3050"],
     lambda: outage_probability(Scenario("bc-zf", validate_weights((0.5, 0.5)), m=3),
                                1.0, 10.0 ** 305, 16, 0)),
    (["fit", "--input", "absent.csv", "--window", "10:30", "--tol", "-1"],
     lambda: compare(SlopeFit(2.0, 0.1, (10.0, 30.0), 3), CURVE_2, 1.0, tol=-1.0)),
    (["fit", "--input", "absent.csv", "--window", "nan:1"],
     lambda: fit_slope([], (math.nan, 1.0))),
    (["curve", "--scenario", "bc-zf", "--m", "3", "--weights", "1e400,1"],
     lambda: Weights((1e308, 1e308))),
], ids=["weights", "snr-db", "tol", "window", "weights-overflow"])
def test_cli_rejects_a_value_with_the_library_message(capsys, argv, call):
    # the weight sum and the SNR bound had their own CLI checks and messages;
    # argparse converts each flag before fit opens its input
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.endswith(f": {library_message(call)}\n")


@pytest.mark.parametrize("argv, names", [
    (["curve", *BC_ZF, "--bogus", "1"], "--bogus"),
    (["fit", "--window", "5:20"], "--input"),
    ([], "command"),
    (["frobnicate"], "frobnicate"),
], ids=["unknown-flag", "fit-without-input", "no-command", "unknown-command"])
def test_argparse_rejection_is_one_line(capsys, argv, names):
    # argparse's own rejections take the same route as the program's: no usage text
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert names in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: wdmt curve") and "--weights" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["curve", "-h"],
    ["fit", "--input", "table.csv", "--window", "5:20"],
], ids=["help", "fit"])
def test_config_file_is_read_before_the_main_parse(tmp_path, capsys, argv):
    # the look-ahead reads the file first: a missing file is reported even
    # where the main parse would print help or reject --config
    missing = str(tmp_path / "missing.cfg")
    assert main([*argv, "--config", missing]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {missing}: ")
    assert err.count("\n") == 1


def test_same_config_entries_build_no_second_parser(tmp_path, capsys, monkeypatch):
    # two files with the same entries: the parser is keyed by the entries
    argvs = []
    for name in ("a.cfg", "b.cfg"):
        cfg = tmp_path / name
        cfg.write_text("scenario = bc-zf\nm = 3\nweights = 0.5,0.5\n")
        argvs.append(["curve", "--config", str(cfg)])
    assert main(argvs[0]) == EXIT_OK
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argvs[1]) == EXIT_OK
    assert main(argvs[0]) == EXIT_OK
    assert built == []
    assert capsys.readouterr().err == "corners: (0,4) (1,2) (2,0)\n" * 3


def test_config_defaults_do_not_leak_into_a_bare_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = bc-zf\nsamples = 100\n")
    flags = ["--m", "3", "--weights", "0.5,0.5", "--r", "1", "--snr-db", "10"]
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), *flags, "--out", str(out)]) == EXIT_OK
    assert [row["n_samples"] for row in read_rows(out)] == ["100"]
    assert main(["simulate"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the following arguments are required: --scenario, --weights, --r, --snr-db\n"
    )
    bare = ["simulate", "--scenario", "bc-zf", *flags, "--out", str(out)]
    assert main(bare) == EXIT_OK
    assert [row["n_samples"] for row in read_rows(out)] == ["100000"]


def test_config_does_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("weights = 0.5,0.5\n")
    curve = ["curve", "--scenario", "bc-zf", "--m", "3"]
    assert main([*curve, "--config", str(cfg)]) == EXIT_OK
    capsys.readouterr()
    assert main(curve) == EXIT_USAGE
    assert capsys.readouterr().err == "error: the following arguments are required: --weights\n"


# The words that the CLI property draws argv from: each flag with a valid and
# an invalid value, each flag bare, and stray values. A drawn argv starts with
# a command and a whole valid set of its flags, or none, so that the words
# often reach the command itself. Paths name files in the property's own
# directory; "{dir}" is filled in per run.
FLAG_VALUES = {
    "--scenario": (["bc-dpc"], ["foo"]),
    "--k": (["2"], ["x", "0"]),
    "--m": (["3"], ["-1"]),
    "--nt": (["2"], ["2.5"]),
    "--profile": (["2,1"], ["2,,1"]),
    "--weights": (["0.5,0.5", "3/5,2/5"], ["0.3,0.3", "-0.5,1.5"]),
    "--config": (["{dir}/run.cfg"], ["{dir}/missing.cfg", "{dir}/bad-key.cfg"]),
    "--out": (["{dir}/out.txt"], ["{dir}/no-dir/out.txt"]),
    "--format": (["json", "csv"], ["xml"]),
    "--r": (["0.5,1"], ["1,,1", "9"]),
    "--snr-db": (["5:15:5", "-10:0:5"], ["1:2", "3090", "0:nan:1"]),
    "--samples": (["10", "1"], ["0", "abc"]),
    "--seed": (["7"], ["-1"]),
    "--shards": (["2"], ["0"]),
    "--input": (["{dir}/table.csv"], ["{dir}/absent.csv", "{dir}/run.cfg"]),
    "--window": (["5:15"], ["20:5", "5"]),
    "--tol": (["0.15"], ["nan"]),
    "--mean-tol": (["0.5"], ["-1"]),
    "--var-tol": (["0.5"], ["x"]),
}
CLI_WORDS = [
    *([flag, value] for flag, values in FLAG_VALUES.items() for value in sum(values, [])),
    *([flag] for flag in FLAG_VALUES),
    ["1"], ["0.5,0.5"], ["x"],
]
SCENARIO_RUNS = [
    ["--scenario", "parallel-identical", "--nt", "2", "--weights", "0.6,0.4"],
    ["--scenario", "parallel-different", "--profile", "2,1", "--weights", "0.6,0.4"],
    BC_ZF,
    ["--scenario", "bc-dpc", "--m", "3", "--weights", "3/5,2/5"],
]
# (command, flags) pairs that a drawn argv starts from
CLI_RUNS = [
    ([], []),
    (["frobnicate"], []),
    *((["fit"], run) for run in ([], ["--input", "{dir}/table.csv", "--window", "5:15"])),
    *((["curve"], run) for run in [[], *SCENARIO_RUNS]),
    *((["simulate"], [*run, "--r", "0.5,1", "--snr-db", "5:15:5"])
      for run in [[], *SCENARIO_RUNS]),
    *((["validate"], run) for run in [[], *SCENARIO_RUNS]),
]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """A directory holding a simulate table, a config file and a config file
    with a key of no flag."""
    path = tmp_path_factory.mktemp("cli-property")
    (path / "run.cfg").write_text(
        "scenario = bc-zf\nm = 3\nweights = 0.5,0.5\nr = 1\nsnr-db = 5:15:5\nsamples = 10\n"
    )
    (path / "bad-key.cfg").write_text("scenario = bc-zf\nsample = 10\n")
    argv = ["simulate", *BC_ZF, "--r", "1", "--snr-db", "5:15:5", "--samples", "10",
            "--out", str(path / "table.csv")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == EXIT_OK
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    command_run=st.sampled_from(CLI_RUNS),
    words=st.lists(st.sampled_from(CLI_WORDS), max_size=4),
)
def test_cli_exits_with_a_code_and_one_error_line(cli_dir, command_run, words):
    command, run = command_run
    # simulate and validate get --samples 10 first, so a later word may
    # override it only with a value of at most 10
    argv = [*command, *(["--samples", "10"] if command in (["simulate"], ["validate"]) else [])]
    argv += [token.format(dir=cli_dir) for word in [run, *words] for token in word]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_STAT_FAIL), argv
    if code == EXIT_USAGE:
        err = stderr.getvalue()
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), argv


@pytest.mark.parametrize("argv, message", [
    (["simulate", *BC_ZF, "--r", "1", "--snr-db", "10", "--samples", "0"],
     "argument --samples: n_samples must be an integer >= 1, got 0"),
    (["simulate", *BC_ZF, "--r", "1", "--snr-db", "10", "--shards", "0"],
     "argument --shards: shards must be an integer >= 1, got 0"),
    (["validate", *BC_ZF, "--samples", "1"],
     "argument --samples: n_samples must be an integer >= 2, got 1"),
    (["curve", "--scenario", "bc-zf", "--m", "0", "--weights", "1"],
     "argument --m: m must be an integer >= 1, got 0"),
    (["curve", "--scenario", "parallel-identical", "--nt", "0", "--weights", "1"],
     "argument --nt: n_t must be an integer >= 1, got 0"),
    (["curve", *BC_ZF, "--k", "0"], "argument --k: k must be an integer >= 1, got 0"),
    (["validate", *BC_ZF, "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
], ids=["samples-zero", "shards-zero", "validate-samples-one", "m-zero", "nt-zero", "k-zero",
        "seed-not-a-number"])
def test_count_flag_rejection_is_named_by_its_flag(capsys, argv, message):
    # the library's range errors named its field only, and --seed alone read
    # "invalid literal for int()"
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, entries, missing", [
    (["curve", "--m", "3"], "", "--scenario, --weights"),
    (["simulate", *BC_ZF], "", "--r, --snr-db"),
    (["validate"], "", "--scenario, --weights"),
    (["simulate"], "scenario = bc-zf\nm = 3\nr = 1\n", "--weights, --snr-db"),
], ids=["curve", "simulate", "validate", "simulate-config"])
def test_missing_flags_are_reported_together(tmp_path, capsys, argv, entries, missing):
    # a config entry supplies a required flag; a missing one was reported
    # alone, by a hand-written check
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entries)
    assert main([*argv, "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: the following arguments are required: {missing}\n")


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fit_rebuilds_the_simulated_scenario(round_trip_dir, data):
    kind = data.draw(st.sampled_from(SCENARIO_KINDS), label="kind")
    k = data.draw(st.integers(1, 3), label="K")
    parts = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k), label="weights")
    counts = st.integers(1, 3)
    if kind == "parallel-identical":
        antenna = ["--nt", str(data.draw(counts))]
    elif kind == "parallel-different":
        antenna = ["--profile", ",".join(map(str, data.draw(st.lists(counts, min_size=k,
                                                                     max_size=k))))]
    else:
        antenna = ["--m", str(data.draw(st.integers(k, k + 2)))]
    r = data.draw(st.sampled_from(["1/4", "1/2", "1"]), label="r")
    simulate = ["simulate", "--scenario", kind, "--k", str(k), *antenna,
                "--weights", ",".join(f"{p}/{sum(parts)}" for p in parts), "--r", r,
                "--snr-db", "5:10:5", "--samples", "20", "--seed", str(data.draw(counts))]
    with (mock.patch.object(wdmt.cli, "outage_table", wraps=outage_table) as sim,
          mock.patch.object(wdmt.cli, "curve_for_scenario", wraps=curve_for_scenario) as fit,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())):
        for fmt in ("csv", "json"):
            table = str(round_trip_dir / f"table.{fmt}")
            assert main([*simulate, "--format", fmt, "--out", table]) == EXIT_OK
            assert main(["fit", "--input", table, "--window", "5:10"]) in (EXIT_OK, EXIT_STAT_FAIL)
    given_scenarios = {call.args[0] for call in sim.call_args_list}
    assert len(given_scenarios) == 1 and sim.call_count == 2  # one table per simulate
    assert [call.args[0] for call in fit.call_args_list] == [*given_scenarios] * 2
