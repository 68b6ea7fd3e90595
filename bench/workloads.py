"""The benchmark's workloads. ``run.py`` starts this file in a fresh,
single-threaded process per run:

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Load is a closed loop with one client: each operation is issued after the
previous one returns. A workload repeats whole cycles (a fixed amount of
work whose random inputs come from the seed and the cycle index) until
``--seconds`` have passed, checks every operation's result, and writes its
counts and metrics as JSON to FILE.

With ``--trace 1`` untraced and traced cycles alternate; the traced ones
give the per-layer metrics and the ratio of their mean wall time to the
untraced ones gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import wdmt  # noqa: E402
import wdmt.cli  # noqa: E402
from wdmt import channel_sim, dmt_analytic, exponent_fit, lp_oracle  # noqa: E402
from wdmt import AntennaProfile, Scenario, Weights, validate_weights  # noqa: E402
from wdmt.core import SCENARIO_KINDS  # noqa: E402

import checks  # noqa: E402
from calibration import Calibration  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

BROADCAST = ("bc-zf", "bc-dpc")
# M = 3 transmit antennas, K = 2 users; the parallel kinds use the
# equivalent-parallel gains of the broadcast kinds (ZF: 2, 2; DPC: 3, 2).
WEIGHTS = (0.55, 0.45)
CLI_FLAGS = {
    "parallel-identical": ["--k", "2", "--nt", "2"],
    "parallel-different": ["--profile", "3,2"],
    "bc-zf": ["--m", "3", "--k", "2"],
    "bc-dpc": ["--m", "3", "--k", "2"],
}


def scenarios() -> dict[str, Scenario]:
    w = validate_weights(WEIGHTS)
    return {
        "parallel-identical": Scenario(kind="parallel-identical", weights=w, n_t=2),
        "parallel-different": Scenario(kind="parallel-different", weights=w, profile=AntennaProfile((3, 2))),
        "bc-zf": Scenario(kind="bc-zf", weights=w, m=3),
        "bc-dpc": Scenario(kind="bc-dpc", weights=w, m=3),
    }


def closed_form_corners(scenario: Scenario):
    mu = [scenario.weights.mu[i] for i in scenario.encode_order()]
    return checks.closed_form_corners(scenario.gain_shapes(), mu)


class Tally:
    """Counts attempted and failed operations. An operation fails when it
    raises or when its check returns a reason."""

    def __init__(self, tracer: Tracer | None, calibration: Calibration | None = None):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.tracer = tracer
        self.calibration = calibration

    def record(self, what: str, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {reason}")

    def run(self, what: str, op, check):
        """Time ``op()``, then apply ``check`` to its result.

        Returns (result or None if it raised, seconds spent in ``op``).
        """
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = op()
        except Exception:  # an operation that raises is a failed operation
            elapsed = time.perf_counter() - start
            self.record(what, "raised " + traceback.format_exc(limit=-1).strip())
            return None, elapsed
        elapsed = time.perf_counter() - start
        try:
            reason = check(result)
        except Exception:  # malformed output the check cannot read
            reason = "check raised " + traceback.format_exc(limit=-1).strip()
        self.record(what, reason)
        if self.calibration is not None:
            self.calibration.maybe_run()
        return result, elapsed


# ------------------------------------------------------------------ mc-deep

class McDeep:
    """Deep-budget outage estimates for all four kinds over the criterion-8
    SNR grid, a slope fit and verdict per kind, and one gain-distribution
    check per gain index of the broadcast kinds."""

    R = 1.5
    SNR_DB = (10, 13, 16, 19, 22)
    WINDOW = (10.0, 22.0)
    SAMPLES = 1 << 18
    SHARDS = 1
    GAIN_SAMPLES = 1 << 17
    TOL = 0.15

    def __init__(self, seed: int):
        self.seed = seed
        self.scenarios = scenarios()
        self.corners = {k: closed_form_corners(s) for k, s in self.scenarios.items()}
        # Exact outage probabilities, so the reference has no sigma of its own.
        self.refs = {
            kind: [reference.exact_outage(s, self.R, 10 ** (db / 10)) for db in self.SNR_DB]
            for kind, s in self.scenarios.items()
        }
        self.seconds = dict.fromkeys(self.scenarios, 0.0)  # in outage calls
        self.calls = dict.fromkeys(self.scenarios, 0)

    def cycle(self, index: int, tally: Tally) -> None:
        for kind_index, (kind, scenario) in enumerate(self.scenarios.items()):
            estimates = []
            for i, db in enumerate(self.SNR_DB):
                seed = np.random.SeedSequence((self.seed, index, kind_index, i))
                p_ref = self.refs[kind][i]
                est, seconds = tally.run(
                    f"{kind} outage at {db} dB",
                    lambda: channel_sim.outage_probability(
                        scenario, self.R, 10 ** (db / 10), self.SAMPLES, seed, shards=self.SHARDS
                    ),
                    lambda e: checks.check_estimate(e, self.SAMPLES, p_ref),
                )
                self.seconds[kind] += seconds
                self.calls[kind] += 1
                if est is not None:
                    estimates.append(est)
            points = [(e.rho_db, e.n_samples, e.n_outages) for e in estimates]
            tally.run(
                f"{kind} fit",
                lambda: self.fit(scenario, estimates),
                lambda res: checks.check_fit(res[0], points, self.WINDOW)
                or checks.check_compare(res[1], res[0], self.corners[kind], self.R, self.TOL),
            )
            if kind in BROADCAST:
                for gain in range(scenario.k):
                    tally.run(
                        f"{kind} gain {gain} distribution",
                        lambda: channel_sim.validate_gain_distribution(
                            scenario, gain, self.GAIN_SAMPLES,
                            np.random.SeedSequence((self.seed, index, kind_index, 100 + gain)),
                        ),
                        lambda rep: checks.check_gain_report(
                            rep, scenario.gain_shapes()[gain], self.GAIN_SAMPLES
                        ),
                    )

    def fit(self, scenario, estimates):
        fit = exponent_fit.fit_slope(estimates, self.WINDOW)
        curve = dmt_analytic.curve_for_scenario(scenario)
        return fit, exponent_fit.compare(fit, curve, self.R, tol=self.TOL)

    def metrics(self, speed: float):
        """Samples per second of outage calls at the reference speed, overall
        (each kind has an equal share of the calls) and per kind."""
        rate = self.SAMPLES * sum(self.calls.values()) / sum(self.seconds.values()) * speed
        out = {"samples_per_s": (rate, "1/s")}
        for kind, seconds in self.seconds.items():
            out[f"samples_per_s.{kind}"] = (self.SAMPLES * self.calls[kind] / seconds * speed, "1/s")
        return out, rate


# ---------------------------------------------------------------- cli-sweep

def run_cli(argv) -> dict:
    """``wdmt.cli.main(argv)`` in process with stdout and stderr captured.
    Returns the exit code and both texts; an argparse rejection, which
    raises SystemExit, gives its exit code like any other."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = wdmt.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


class CliSweep:
    """``wdmt simulate`` -> ``fit`` -> ``curve`` in process for each kind: a
    wide grid with a small budget per point, so per-call costs, the exact
    CI and the CLI's parse, serialize and table-read work all weigh in."""

    R_LIST = (0.5, 1.0, 1.5)
    SNR = "0:40:2"
    SNR_DB = tuple(range(0, 41, 2))
    SAMPLES = 5000
    SHARDS = 4
    WINDOW = "0:20"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.scenarios = scenarios()
        self.corners = {k: closed_form_corners(s) for k, s in self.scenarios.items()}
        self.refs = {
            kind: {
                (r, db): reference.exact_outage(s, r, 10 ** (db / 10), epsrel=1e-6)
                for r in self.R_LIST for db in self.SNR_DB
            }
            for kind, s in self.scenarios.items()
        }
        self.points = 0
        self.command_s = 0.0

    def command(self, tally: Tally, what: str, argv, check, out: Path | None = None):
        """One CLI invocation with stdout/stderr captured; returns its text."""
        captured = {}

        def op():
            captured.update(run_cli(argv))
            return captured

        _, seconds = tally.run(what, op, check)
        self.command_s += seconds
        if tally.tracer is not None and captured:
            size = out.stat().st_size if out is not None and out.exists() else 0
            tally.tracer.counters["cli.bytes_written"] += (
                size + len(captured["stdout"]) + len(captured["stderr"])
            )
        return captured

    def cycle(self, index: int, tally: Tally) -> None:
        for kind, scenario in self.scenarios.items():
            flags = ["--scenario", kind, *CLI_FLAGS[kind], "--weights", "0.55,0.45"]
            seed = int(self.rng.integers(2**31))
            table = self.workdir / f"{kind}.csv"
            curve = self.workdir / f"{kind}-curve.csv"
            expect = {
                "kind": kind, "K": 2, "r_list": self.R_LIST, "snr_db": self.SNR_DB,
                "samples": self.SAMPLES, "seed": seed, "shards": self.SHARDS,
            }
            self.points += len(self.R_LIST) * len(self.SNR_DB)
            self.command(
                tally, f"{kind} simulate",
                ["simulate", *flags, "--r", ",".join(map(str, self.R_LIST)),
                 "--snr-db", self.SNR, "--samples", str(self.SAMPLES), "--seed", str(seed),
                 "--shards", str(self.SHARDS), "--out", str(table)],
                lambda res: f"exit code {res['code']}" if res["code"] != 0
                else checks.check_simulate_csv(table.read_text(), expect, self.refs[kind]),
                out=table,
            )
            window = tuple(float(x) for x in self.WINDOW.split(":"))
            self.command(
                tally, f"{kind} fit",
                ["fit", "--input", str(table), "--window", self.WINDOW],
                lambda res: checks.check_fit_output(
                    res["stdout"], res["code"], checks.parse_simulate_csv(table.read_text()),
                    window, self.corners[kind],
                ),
            )
            self.command(
                tally, f"{kind} curve",
                ["curve", *flags, "--format", "csv", "--out", str(curve)],
                lambda res: f"exit code {res['code']}" if res["code"] != 0
                else checks.check_curve_csv(curve.read_text(), self.corners[kind]),
                out=curve,
            )

    def metrics(self, speed: float):
        """Simulated (r, SNR) points per second of whole-command time
        (simulate, fit and curve) at the reference speed."""
        points_per_s = self.points / self.command_s * speed
        return {"points_per_s": (points_per_s, "1/s")}, points_per_s


# ------------------------------------------------------------------ certify

class Certify:
    """Criterion-4-style certification: random instances with K = 1..4, each
    swept over 21 rates, where every case checks lp_greedy, lp_vertex,
    lp_grid(res=200) and the scenario's curve against each other. Never
    touches channel_sim; the rate sweep reuses lp_grid's cached tables, so
    an instance's first rate misses the cache and the other 20 hit it.

    A cycle holds one instance per (kind, K) pair, so every cycle does the
    same amount of lattice work; counts and weights are random."""

    RATES = 21
    RESOLUTION = 200

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.latencies: list[float] = []

    def instance(self, kind: str, k: int) -> Scenario:
        raw = self.rng.random(k) + 0.02
        w = validate_weights(tuple(raw / raw.sum()))
        if kind == "parallel-identical":
            return Scenario(kind=kind, weights=w, n_t=int(self.rng.integers(1, 5)))
        if kind == "parallel-different":
            profile = AntennaProfile(tuple(int(n) for n in self.rng.integers(1, 5, k)))
            return Scenario(kind=kind, weights=w, profile=profile)
        return Scenario(kind=kind, weights=w, m=k + int(self.rng.integers(0, 4)))

    def cycle(self, index: int, tally: Tally) -> None:
        for scenario in [self.instance(kind, k) for kind in SCENARIO_KINDS for k in range(1, 5)]:
            k = scenario.k
            shapes = scenario.gain_shapes()
            profile = AntennaProfile(shapes)
            weights = Weights(tuple(scenario.weights.mu[i] for i in scenario.encode_order()))
            for r in np.linspace(0.0, k, self.RATES):
                r = float(r)

                def case():
                    inst = lp_oracle.LpInstance.alpha_form(profile, weights, r)
                    return (
                        lp_oracle.lp_vertex(inst).d,
                        dmt_analytic.lp_greedy(profile, weights, r).d,
                        lp_oracle.lp_grid(inst, self.RESOLUTION),
                        dmt_analytic.curve_for_scenario(scenario).evaluate(r),
                    )

                _, seconds = tally.run(
                    f"{scenario.kind} K={k} shapes={shapes} r={r:g}",
                    case,
                    lambda res: checks.check_case(res, k, max(shapes)),
                )
                self.latencies.append(seconds)

    def metrics(self, speed: float):
        """Certification cases per second of solver time at the reference
        speed, and measured case latency percentiles over the run."""
        ms = 1e3 * np.asarray(self.latencies)
        cases_per_s = ms.size / (ms.sum() / 1e3) * speed
        return {
            "lp_cases_per_s": (cases_per_s, "1/s"),
            "lp_case_ms.p50": (float(np.percentile(ms, 50)), "ms"),
            "lp_case_ms.p99": (float(np.percentile(ms, 99)), "ms"),
            "lp_cases": (ms.size, "count"),
        }, cases_per_s


# ------------------------------------------------------------------- runner


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    if name == "mc-deep":
        workload = McDeep(seed)
    elif name == "cli-sweep":
        workload = CliSweep(seed, workdir)
    elif name == "certify":
        workload = Certify(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    tracer = Tracer() if trace else None
    calibration = Calibration()
    tally = Tally(None, calibration)
    wall = {False: [], True: []}  # cycle wall times by traced flag
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        tally.tracer = tracer if traced else None
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.cycle(index, tally)
        finally:
            if traced:
                tracer.uninstall()
        wall[traced].append(time.perf_counter() - t0)
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index % 2 == 0):
            break

    speed = calibration.speed_factor()
    named, throughput = workload.metrics(speed)
    named["throughput_raw"] = (throughput / speed, "1/s")
    named["speed_factor"] = (speed, "ratio")
    result = {
        "workload": name,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "cycles": index,
        "wall_s": time.perf_counter() - start,
        "throughput": throughput,
        "throughput_raw": throughput / speed,
        "named": named,
        "calibration_s": calibration.seconds,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if trace:
        traced_wall = sum(wall[True])
        layers = tracer.layer_metrics(traced_wall, len(wall[True]))
        layers["trace_overhead"] = (
            (traced_wall / len(wall[True])) / (sum(wall[False]) / len(wall[False])) - 1.0
        )
        result["per_layer"] = layers
        result["self_shares"] = tracer.self_shares(traced_wall)[:8]
        result["spans"] = len(tracer.spans)
        spans_path = workdir.parent / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if Path(wdmt.__file__).resolve().parent != (SRC / "wdmt").resolve():
        print(f"error: imported wdmt from {wdmt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = Path(args.out)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out.parent))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
