"""``tools/bench_pairs.py``'s summary of alternating benchmark pairs, on
canned ``bench/run.py`` results: medians, quartiles as ``numpy.percentile``
gives them, the ratio and difference of the medians, the parent's
interquartile range and the pairs the change won, ties counting for
neither side."""

import importlib.util
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
