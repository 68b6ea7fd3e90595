"""Tests of the benchmark itself: each check counts a wrong result as a
failed operation (negative controls), the references are right, and the
workloads run clean. Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import workloads
from spans import Tracer
from workloads import McDeep, Tally, scenarios

import wdmt.cli
from wdmt.core import SCENARIO_KINDS
from wdmt import DmtCurve, LpInstance, OutageEstimate, channel_sim, confidence_interval, lp_vertex

ROOT = Path(__file__).resolve().parent.parent


def counted(result, check) -> Tally:
    """Feed a ready result through the benchmark's operation accounting."""
    tally = Tally(None)
    tally.run("control", lambda: result, check)
    return tally


def estimate(p_hat_count: int, n: int, r: float, db: float) -> OutageEstimate:
    low, high = confidence_interval(p_hat_count, n)
    return OutageEstimate(rho=10 ** (db / 10), r=r, n_samples=n, n_outages=p_hat_count,
                          ci_low=low, ci_high=high)


# ----------------------------------------------------------- negative controls

@pytest.mark.parametrize("kind", SCENARIO_KINDS)
def test_p_hat_biased_by_ten_percent_fails(kind):
    mc = McDeep(seed=0)
    n = McDeep.SAMPLES
    for i, db in enumerate(McDeep.SNR_DB):
        p_ref = mc.refs[kind][i]
        check = lambda e: checks.check_estimate(e, n, p_ref)  # noqa: E731
        assert counted(estimate(round(p_ref * n), n, McDeep.R, db), check).failed == 0
        assert counted(estimate(round(1.1 * p_ref * n), n, McDeep.R, db), check).failed == 1


def test_cli_table_with_missing_row_fails(tmp_path):
    scenario = scenarios()["parallel-identical"]
    r_list, snr_db = (0.5, 1.0, 1.5), tuple(range(0, 41, 2))
    refs = {(r, db): reference.exact_outage(scenario, r, 10 ** (db / 10), epsrel=1e-6)
            for r in r_list for db in snr_db}
    table = tmp_path / "t.csv"
    code = wdmt.cli.main([
        "simulate", "--scenario", "parallel-identical", "--k", "2", "--nt", "2",
        "--weights", "0.55,0.45", "--r", "0.5,1.0,1.5", "--snr-db", "0:40:2",
        "--samples", "5000", "--seed", "3", "--shards", "4", "--out", str(table),
    ])
    assert code == 0
    expect = {"kind": "parallel-identical", "K": 2, "r_list": r_list, "snr_db": snr_db,
              "samples": 5000, "seed": 3, "shards": 4}
    text = table.read_text()
    check = lambda t: checks.check_simulate_csv(t, expect, refs)  # noqa: E731
    assert counted(text, check).failed == 0
    lines = text.splitlines()
    assert counted("\n".join(lines[:7] + lines[8:]) + "\n", check).failed == 1


def test_curve_corner_moved_by_1e6_fails(tmp_path):
    scenario = scenarios()["parallel-different"]
    corners = workloads.closed_form_corners(scenario)
    out = tmp_path / "curve.csv"
    code = wdmt.cli.main(["curve", "--scenario", "parallel-different", "--profile", "3,2",
                          "--weights", "0.55,0.45", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert counted(text, lambda t: checks.check_curve_csv(t, corners)).failed == 0
    r1, d1 = corners[1]
    moved = text.replace(f"corner,{r1:.17g},{d1:.17g}", f"corner,{r1:.17g},{d1 + 1e-6:.17g}")
    assert moved != text
    assert counted(moved, lambda t: checks.check_curve_csv(t, corners)).failed == 1

    # The same moved corner in a certification sweep.
    profile, weights = wdmt.AntennaProfile((3, 2)), scenario.weights
    bad_curve = DmtCurve(tuple((r, d + 1e-6 if i == 1 else d) for i, (r, d) in enumerate(corners)))
    tally = Tally(None)
    for r in np.linspace(0.0, 2.0, 21):
        exact = lp_vertex(LpInstance.alpha_form(profile, weights, float(r))).d
        tally.run("control", lambda: (exact, exact, exact, bad_curve.evaluate(float(r))),
                  lambda res: checks.check_case(res, 2, 3))
    assert tally.failed >= 1


def test_lp_grid_value_outside_bound_fails():
    exact, k, max_cost = 2.5, 3, 4
    slack = k * max_cost / 200
    check = lambda res: checks.check_case(res, k, max_cost)  # noqa: E731
    assert counted((exact, exact, exact + slack, exact), check).failed == 0
    assert counted((exact, exact, exact + slack + 1e-6, exact), check).failed == 1
    assert counted((exact, exact, exact - 1e-6, exact), check).failed == 1


@pytest.mark.parametrize("argv", [["fit", "--no-such-flag"], ["simulate", "--scenario", "bc-zf"]])
def test_cli_command_rejected_by_argparse_fails(argv):
    tally = Tally(None)
    tally.run("control", lambda: workloads.run_cli(argv),
              lambda res: checks.check_fit_output(res["stdout"], res["code"], [], (0.0, 20.0), []))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit code 2" in tally.reasons[0]


def test_operation_that_raises_fails():
    tally = Tally(None)
    tally.run("control", lambda: 1 / 0, lambda res: None)
    assert (tally.attempted, tally.failed) == (1, 1)


# ------------------------------------------------------------------ references

def test_dpc_reference_equals_its_parallel_equivalent():
    s = scenarios()
    for db in McDeep.SNR_DB:
        rho = 10 ** (db / 10)
        assert reference.exact_outage(s["bc-dpc"], 1.5, rho) == reference.exact_outage(
            s["parallel-different"], 1.5, rho
        )


def test_exact_reference_agrees_with_simulation():
    for kind, scenario in scenarios().items():
        p = reference.exact_outage(scenario, 1.0, 100.0)
        est = channel_sim.outage_probability(scenario, 1.0, 100.0, 200_000, 5)
        assert abs(est.p_hat - p) <= checks.Z_LIMIT * math.sqrt(p * (1 - p) / est.n_samples), kind


# ------------------------------------------------------------------- workloads

@pytest.mark.parametrize("name", ["certify", "cli-sweep"])
def test_traced_workload_runs_clean_and_reports_every_layer(name, tmp_path):
    originals = {attr: getattr(wdmt.cli, attr) for attr in ("main", "outage_probability")}
    (tmp_path / "w").mkdir()
    result = workloads.run(name, seed=1, seconds=0.0, trace=True, workdir=tmp_path / "w")
    assert result["attempted"] > 0 and result["failed"] == 0, result["reasons"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(result["per_layer"])
    assert all(getattr(wdmt.cli, a) is f for a, f in originals.items())
    assert Path(result["spans_file"]).stat().st_size > 0


def test_tracer_computes_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        wdmt.channel_sim.outage_probability(scenarios()["bc-dpc"], 1.0, 10.0, 1000, 0)
    finally:
        tracer.uninstall()
    outer, inner = (s for s in sorted(tracer.spans, key=lambda s: s[0]))
    assert outer[1] == "channel_sim.outage_probability" and inner[1] == "channel_sim.confidence_interval"
    assert inner[4] == outer[0]
    assert outer[6] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
