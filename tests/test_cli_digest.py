"""The CLI's output, byte for byte: ``tools/cli_digest.py`` runs a fixed matrix
of ``wdmt`` commands and digests each run's exit code, stdout, stderr and
written file, and every row must match the committed
``tests/data/cli_digest.txt``. A change that is meant to move CLI output
regenerates that file from the repository root::

    PYTHONPATH=src python tools/cli_digest.py > tests/data/cli_digest.txt

The rows depend on numpy's random streams and on scipy's special functions,
so the file's header names the versions that wrote it.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("data") / "cli_digest.txt"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_cli_digest_matches_the_committed_rows(tmp_path, monkeypatch):
    tool = _load_tool()
    monkeypatch.chdir(tmp_path)
    rows = tool.digest_all()
    expected_header, *expected = EXPECTED.read_text().splitlines()
    assert rows == expected, _mismatch(expected_header, expected, tool.header(), rows)
