import json
import math

import pytest

import wdmt.cli
from wdmt.cli import (
    EXIT_OK,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    MAX_SNR_POINTS,
    CliError,
    _fmt,
    main,
    parse_snr_grid,
    parse_weights,
)


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

    def test_snr_grid_point_limit(self):
        assert len(parse_snr_grid(f"0:{MAX_SNR_POINTS - 1}:1")) == MAX_SNR_POINTS
        # a finite grid used to append points until memory ran out; it now
        # stops one point past the limit
        for text in (f"0:{MAX_SNR_POINTS}:1", "0:1e9:1e-3"):
            with pytest.raises(CliError, match="more than"):
                parse_snr_grid(text)


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

    def test_too_many_users_is_usage_error(self):
        code = main([
            "curve", "--scenario", "bc-zf", "--m", "2", "--k", "3",
            "--weights", "0.4,0.3,0.3",
        ])
        assert code == EXIT_USAGE

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

    def test_missing_config_file(self):
        assert main(["curve", "--config", "/nonexistent.cfg"]) == EXIT_USAGE
