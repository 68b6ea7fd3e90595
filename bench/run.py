"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {mc-deep,cli-sweep,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``. The workload runs in its own fresh process with BLAS/OpenMP
pinned to one thread. ``setup_s`` is the median over several fresh
processes of importing wdmt and making each entry point's first call, at
the reference speed of the calibration kernel those processes also run.

Prints a readable table, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full result, with provenance, goes to
``.bench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc-deep", "cli-sweep", "certify")
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_RUNS = 7
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def provenance(args, argv, versions) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wdmt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "argv": argv,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "thread_env": THREAD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "wdmt" / "__init__.py").is_file():
        print(f"error: no wdmt sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    OUT.mkdir(exist_ok=True)

    setup, kernel = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            print(f"error: set-up probe failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(probe["setup_s"])
        kernel.extend(probe["kernel_s"])
    setup_speed = statistics.fmean(kernel) / REFERENCE_S
    setup_s = statistics.median(setup) / setup_speed

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    child_out = OUT / f"child-{stem}.json"
    child_out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(child_out)],
            env=env, capture_output=True, text=True,
            timeout=DEADLINE_S - (time.monotonic() - started),
        )
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not child_out.exists():
        print(f"error: workload exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    child = json.loads(child_out.read_text())
    child_out.unlink()

    if args.trace:
        values = child["per_layer"]
    else:
        values = {"throughput": child["throughput"], "setup_s": setup_s,
                  "peak_rss_mb": child["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, failed = child["attempted"], child["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    named = {**child["named"], "setup_s": (setup_s, "s"),
             "setup_raw_s": (statistics.median(setup), "s"),
             "setup_speed_factor": (setup_speed, "ratio"),
             "peak_rss_mb": (child["peak_rss_mb"], "MB")}
    result = {
        **line,
        "failed_op_ratio": failed / attempted,
        "failure_reasons": child["reasons"],
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "setup_runs_s": setup,
        "setup_calibration_s": kernel,
        "cycles": child["cycles"],
        "wall_s": child["wall_s"],
        "provenance": provenance(args, sys.argv, child["versions"]),
    }
    for key in ("calibration_s", "self_shares", "spans", "spans_file"):
        if key in child:
            result[key] = child[key]
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{child['cycles']} cycles in {child['wall_s']:.1f} s")
    if not args.trace:
        for name, (value, unit) in named.items():
            print(f"  {name:<40} {value:>14.6g} {unit}")
    else:
        for name, metric in metrics.items():
            print(f"  {name:<60} {metric['value']:>14.6g} {metric['unit']}")
        print("  largest self-time shares of traced wall time:")
        for name, share in child["self_shares"]:
            print(f"    {name:<56} {share:>8.1%}")
    print(f"  {'failed_op_ratio':<40} {failed / attempted:>14.6g} ({failed} of {attempted} ops)")
    for reason in child["reasons"]:
        print(f"  FAILED {reason}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
