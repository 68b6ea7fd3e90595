"""Every LP solver's output, bit for bit: ``tools/lp_digest.py`` runs a fixed
certification sweep and digests the ``repr`` of each case's instance,
``lp_vertex``, ``lp_greedy`` and ``lp_grid`` values and curve value, one row
per scenario kind and K, and every row must match the committed
``tests/data/lp_digest.txt``. A change that is meant to move LP output
regenerates that file from the repository root::

    PYTHONPATH=src python tools/lp_digest.py > tests/data/lp_digest.txt
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("data") / "lp_digest.txt"


def test_lp_digest_matches_the_committed_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    tool = importlib.import_module("lp_digest")
    rows = tool.digest_all()
    expected_header, *expected = EXPECTED.read_text().splitlines()
    changed = [f"{want} -> {got}" for want, got in zip(expected, rows) if want != got]
    assert rows == expected, "\n".join(
        [f"committed: {expected_header}", f"this run:  {tool.header()}", *changed])
