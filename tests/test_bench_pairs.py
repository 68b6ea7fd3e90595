"""``tools/bench_pairs.py``'s summary of alternating benchmark pairs, on
canned ``bench/run.py`` results: medians, quartiles as ``numpy.percentile``
gives them, the ratio and difference of the medians, the parent's
interquartile range, the pairs the change won, ties counting for neither
side, and the ``gain`` and ``within_bound`` verdicts; and its refusal to
compare two trees whose benchmarks differ."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def line(throughput, setup_s, attempted=1000, failed=0):
    """One run's last stdout line, as ``bench/run.py`` prints it."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"throughput": {"value": throughput, "unit": "1/s"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


PAIRS = [
    {"parent": line(100.0, 0.30), "change": line(130.0, 0.29)},
    {"parent": line(110.0, 0.31), "change": line(110.0, 0.31, failed=2)},  # ties
    {"parent": line(90.0, 0.29), "change": line(125.0, 0.30)},
    {"parent": line(120.0, 0.32, attempted=900), "change": line(140.0, 0.33)},
]


def test_summary_of_canned_pairs():
    out = bench_pairs.summarize(PAIRS, END_TO_END, [5, 6, 7, 8])
    assert out["seeds"] == [5, 6, 7, 8] and out["pairs"] == 4
    assert out["failed_ops"] == {"parent": 0, "change": 2}
    assert out["attempted_ops"] == {"parent": 3900, "change": 4000}
    assert out["correct"] == {"parent": True, "change": False}
    tp = out["metrics"]["throughput"]
    assert (tp["unit"], tp["better"], tp["bound"]) == ("1/s", "higher", 0.2)
    assert tp["parent"] == {"median": 105.0, "q1": 97.5, "q3": 112.5,
                            "runs": [100.0, 110.0, 90.0, 120.0]}
    assert tp["change"]["median"] == 127.5
    assert tp["ratio_change_over_parent"] == round(127.5 / 105.0, 4)
    assert tp["median_difference"] == 22.5 and tp["parent_iqr"] == 15.0
    assert tp["change_better_pairs"] == 3  # the tie counts for neither
    setup = out["metrics"]["setup_s"]
    assert setup["change_better_pairs"] == 1  # lower is better; one tie
    assert setup["parent"]["median"] == setup["change"]["median"] == 0.305
    assert setup["ratio_change_over_parent"] == 1.0 and setup["median_difference"] == 0.0
    # 3 of 4 pairs is short of 9 of 10, though the medians differ by more
    # than the parent's IQR; equal medians are within any bound
    assert (tp["gain"], tp["within_bound"]) == (False, True)
    assert (setup["gain"], setup["within_bound"]) == (False, True)


def ten_pairs(parent, change):
    return [{"parent": line(p, 0.3), "change": line(c, 0.3)} for p, c in zip(parent, change)]


PARENT_RUNS = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 100.0]


@pytest.mark.parametrize("change, gain", [
    ([r + 5.0 for r in PARENT_RUNS], True),  # 10 of 10, median +5 against an IQR of 1.75
    ([r + 5.0 for r in PARENT_RUNS[:9]] + [90.0], True),  # 9 of 10 is enough
    ([r + 5.0 for r in PARENT_RUNS[:8]] + [90.0, 90.0], False),  # 8 of 10 is not
    ([r + 1.0 for r in PARENT_RUNS], False),  # 10 of 10, but +1 is inside the IQR of 1.75
])
def test_gain_needs_nine_of_ten_pairs_and_a_median_past_the_parent_iqr(change, gain):
    tp = bench_pairs.summarize(ten_pairs(PARENT_RUNS, change), END_TO_END,
                               list(range(10)))["metrics"]["throughput"]
    assert tp["parent_iqr"] == 1.75
    assert tp["gain"] is gain and tp["within_bound"] is True


@pytest.mark.parametrize("scale, within", [(0.81, True), (0.8, True), (0.79, False)])
def test_within_bound_for_a_higher_is_better_metric(scale, within):
    tp = bench_pairs.summarize(ten_pairs([100.0] * 10, [100.0 * scale] * 10), END_TO_END,
                               list(range(10)))["metrics"]["throughput"]
    assert tp["within_bound"] is within and tp["gain"] is False


@pytest.mark.parametrize("scale, within", [(1.24, True), (1.25, True), (1.26, False)])
def test_within_bound_for_a_lower_is_better_metric(scale, within):
    pairs = [{"parent": line(100.0, 0.5), "change": line(100.0, 0.5 * scale)}
             for _ in range(10)]
    setup = bench_pairs.summarize(pairs, END_TO_END, list(range(10)))["metrics"]["setup_s"]
    assert setup["within_bound"] is within and setup["gain"] is False


def test_quartiles_match_numpy_percentile():
    rng = np.random.default_rng(11)
    for n in (2, 3, 10, 11):
        values = rng.uniform(0.0, 1e4, n).tolist()
        side = bench_pairs._side(values)
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        assert side["q1"] == round(q1, 4) and side["q3"] == round(q3, 4)
        assert side["median"] == round(median, 4)


@pytest.mark.parametrize("text, seeds", [
    ("2801-2804", [2801, 2802, 2803, 2804]),
    ("5,7,9", [5, 7, 9]),
    ("42", [42]),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


TREE = {"BENCHMARK.json": json.dumps({"paths": ["bench"]}), "bench/run.py": "pass\n",
        "bench/data/table.txt": "1 2 3\n", "src/code.py": "x = 1\n"}


def test_benchmark_differences_names_changed_added_and_removed_files(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_tree(parent, TREE)
    write_tree(change, TREE)
    (change / "bench" / "__pycache__").mkdir()
    (change / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    write_tree(change, {"src/code.py": "x = 2\n"})  # outside the benchmark
    assert bench_pairs.benchmark_differences(parent, change, ["bench"]) == []
    write_tree(change, {"bench/run.py": "pass  # edited\n", "bench/new.py": "",
                        "BENCHMARK.json": "{}"})
    (change / "bench" / "data" / "table.txt").unlink()
    assert bench_pairs.benchmark_differences(parent, change, ["bench"]) == [
        "BENCHMARK.json", "bench/data/table.txt", "bench/new.py", "bench/run.py"]


# a stand-in for bench/run.py: its last line as the real one prints it
STUB_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"throughput": {"value": 100.0 + seed, "unit": "1/s"}}}))
"""


@pytest.fixture
def repo(tmp_path):
    """A git repository with the script, a stub benchmark and one commit."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    spec = {"paths": ["bench"], "run_seconds": 1,
            "end_to_end": [{"name": "throughput", "unit": "1/s", "better": "higher",
                            "bound": 0.2}]}
    write_tree(tmp_path, {"BENCHMARK.json": json.dumps(spec), "bench/run.py": STUB_RUN,
                          "tools/bench_pairs.py": (ROOT / "tools" / "bench_pairs.py").read_text()})

    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    return tmp_path, git("rev-parse", "HEAD")


def run_pairs(root):
    return subprocess.run([sys.executable, "tools/bench_pairs.py", "--parent", "HEAD",
                           "--workload", "w", "--seeds", "1-2", "--pairs", "2",
                           "--out", "out.json"], cwd=root, capture_output=True, text=True)


def test_unchanged_benchmark_runs_and_records_the_parent_commit(repo):
    root, commit = repo
    proc = run_pairs(root)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads((root / "out.json").read_text())["workloads"]["w"]
    assert entry["parent_commit"] == commit
    assert entry["metrics"]["throughput"]["parent"]["runs"] == [101.0, 102.0]


def test_edited_benchmark_exits_2_naming_the_files(repo):
    root, _ = repo
    write_tree(root, {"bench/run.py": STUB_RUN + "# edited\n", "bench/extra.py": ""})
    proc = run_pairs(root)
    assert proc.returncode == 2
    assert "bench/extra.py, bench/run.py" in proc.stderr
    assert not (root / "out.json").exists()
