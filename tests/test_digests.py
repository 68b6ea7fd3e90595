"""The CLI's and the LP solvers' outputs, bit for bit. ``tools/cli_digest.py``
runs a fixed matrix of ``wdmt`` commands and digests each run's exit code,
stdout, stderr and written file; ``tools/lp_digest.py`` runs a fixed
certification sweep and digests the ``repr`` of each case's instance,
``lp_vertex``, ``lp_greedy`` and ``lp_grid`` values and curve value. Every
row of each must match the committed ``tests/data/<tool>.txt``, and a
mismatch names every changed, added and missing row. A change that is meant
to move either output regenerates that file from the repository root::

    PYTHONPATH=src python tools/cli_digest.py > tests/data/cli_digest.txt
    PYTHONPATH=src python tools/lp_digest.py > tests/data/lp_digest.txt

The rows depend on numpy's random streams and on scipy's special functions,
so each file's header names the versions that wrote it.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).with_name("data")


def _by_name(rows):
    return {row.split(" ", 1)[0]: row for row in rows}


def _versions(header: str) -> dict[str, str]:
    """``{"python": ..., "numpy": ..., "scipy": ...}`` of a ``# python X numpy Y scipy Z`` line."""
    words = header.split()[1:]
    return dict(zip(words[::2], words[1::2]))


def _mismatch(expected_header, expected, header, rows) -> str:
    """Every changed, added and missing row, and both headers."""
    want, got = _by_name(expected), _by_name(rows)
    lines = [f"committed: {expected_header}", f"this run:  {header}"]
    if _versions(expected_header).get("numpy") != _versions(header).get("numpy"):
        lines.append("numpy differs from the committed digest's, so its random streams may too")
    lines += [f"changed: {want[name]} -> {got[name]}"
              for name in want if name in got and want[name] != got[name]]
    lines += [f"added:   {got[name]}" for name in got if name not in want]
    lines += [f"missing: {want[name]}" for name in want if name not in got]
    if list(want) != list(got) and want.keys() == got.keys():
        lines.append("the rows come in another order")
    return "\n".join(lines)


@pytest.mark.parametrize("tool", ["cli_digest", "lp_digest"])
def test_digest_matches_the_committed_rows(tool, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # lp_digest imports cli_digest's header
    module = importlib.import_module(tool)
    monkeypatch.chdir(tmp_path)  # where cli_digest writes its tables and config files
    rows = module.digest_all()
    expected_header, *expected = (DATA / f"{tool}.txt").read_text().splitlines()
    assert rows == expected, _mismatch(expected_header, expected, module.header(), rows)


def test_mismatch_names_changed_added_and_missing_rows():
    report = _mismatch("# python 3.11 numpy 2.4 scipy 1.17", ["a 1", "b 2"],
                       "# python 3.11 numpy 2.5 scipy 1.17", ["a 9", "c 3"])
    assert report.splitlines()[2:] == [
        "numpy differs from the committed digest's, so its random streams may too",
        "changed: a 1 -> a 9", "added:   c 3", "missing: b 2"]
    reordered = _mismatch("# python 3.11", ["a 1", "b 2"], "# python 3.11", ["b 2", "a 1"])
    assert reordered.splitlines()[2:] == ["the rows come in another order"]
