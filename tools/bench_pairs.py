"""Run alternating benchmark pairs, a parent revision against the working
tree, and summarise each end-to-end metric of ``BENCHMARK.json``.

From the repository root::

    python3 tools/bench_pairs.py --parent REV --workload certify \
        --seeds 2801-2810 --pairs 10 --out BENCH_N.json

The parent side runs ``bench/run.py`` in a ``git archive`` of REV, the
change side runs it in the working tree; each run is a fresh process, one at
a time, for ``run_seconds`` of ``BENCHMARK.json`` unless ``--seconds`` is
given. Pair i runs seed ``seeds[i % len(seeds)]``; even pairs run the parent
first, odd pairs the change. Only the standard library is used.

The summary of one workload goes under ``workloads`` in the ``--out`` JSON
file, in the layout of ``BENCH_27.json``: the parent's resolved commit, and
per metric each side's runs, median and quartiles (linear interpolation, as
``numpy.percentile``), the ratio of the medians (change over parent), the
change's median minus the parent's, the parent's interquartile range, in
how many pairs the change was better (ties count for neither side) and two
verdicts. ``gain``: the change was better in at least 9 of 10 pairs, its
median is better than the parent's by more than the parent's interquartile
range, and no larger share of its operations failed. ``within_bound``: the
change's median is no worse than the parent's by more than the metric's
relative ``bound``. Other keys of an existing file are kept, so one file
can collect several workloads.

A gain is measured on an unchanged benchmark: the script exits 2, naming
the files, when ``BENCHMARK.json`` or a file under its ``paths`` differs
between the parent and the working tree.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """Seeds from ``"5,7,9"`` or an inclusive range ``"2801-2810"``."""
    if "-" in text.strip("-"):
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run in ``tree``: its
    ``correct``, ``attempted``, ``failed`` and end-to-end ``metrics``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _side(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def summarize(pairs: list[dict], end_to_end: list[dict], seeds: list[int]) -> dict:
    """One workload's entry from ``pairs``, each ``{"parent": line, "change":
    line}`` with ``line`` as :func:`run_once` returns it, and the
    ``end_to_end`` metric list of ``BENCHMARK.json``."""
    sides = ("parent", "change")
    out = {
        "seeds": seeds,
        "pairs": len(pairs),
        "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
        "attempted_ops": {s: sum(p[s]["attempted"] for p in pairs) for s in sides},
        "correct": {s: all(p[s]["correct"] for p in pairs) for s in sides},
        "metrics": {},
    }
    parent_failed, change_failed = (out["failed_ops"][s] / out["attempted_ops"][s] for s in sides)
    for spec in end_to_end:
        name = spec["name"]
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in sides}
        sign = 1 if spec["better"] == "higher" else -1
        parent, change = _side(runs["parent"]), _side(runs["change"])
        p_median = statistics.median(runs["parent"])
        c_median = statistics.median(runs["change"])
        difference = c_median - p_median
        q1, _, q3 = statistics.quantiles(runs["parent"], n=4, method="inclusive")
        better_pairs = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change,
            "ratio_change_over_parent": round(c_median / p_median, 4),
            "change_better_pairs": better_pairs,
            "parent_iqr": round(q3 - q1, 4),
            "median_difference": round(difference, 4),
            "gain": (10 * better_pairs >= 9 * len(pairs) and sign * difference > q3 - q1
                     and change_failed <= parent_failed),
            "within_bound": sign * difference >= -spec["bound"] * p_median,
        }
    return out


def benchmark_differences(parent: Path, change: Path, paths: list[str]) -> list[str]:
    """The files, relative to each tree's root, that ``BENCHMARK.json`` and
    the directories ``paths`` hold in one tree and not in the other, or hold
    with other bytes; ``__pycache__`` directories are skipped."""
    def files(root: Path) -> dict[str, bytes]:
        found = {}
        for top in ("BENCHMARK.json", *paths):
            for path in [root / top, *(root / top).rglob("*")]:
                if path.is_file() and "__pycache__" not in path.relative_to(root).parts:
                    found[path.relative_to(root).as_posix()] = path.read_bytes()
        return found

    old, new = files(parent), files(change)
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = [args.seeds[i % len(args.seeds)] for i in range(args.pairs)]
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{args.parent}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": Path(tmp), "change": ROOT}
        differ = benchmark_differences(trees["parent"], ROOT, spec["paths"])
        if differ:
            print(f"error: the benchmark differs from {args.parent}'s: " + ", ".join(differ),
                  file=sys.stderr)
            return 2
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: run_once(trees[side], args.workload, seed, seconds) for side in order}
            pairs.append(pair)
            first = spec["end_to_end"][0]["name"]
            print(f"pair {i} seed {seed} {first}: " + "  ".join(
                f"{s} {pair[s]['metrics'][first]['value']:.6g}" for s in order), file=sys.stderr)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("workloads", {})[args.workload] = {
        "parent_commit": commit, **summarize(pairs, spec["end_to_end"], seeds)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
