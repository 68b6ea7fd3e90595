"""The PYTHONPATH check of ``conftest.py``, as a plain function on trees."""

import os
from pathlib import Path

import wdmt
from conftest import pythonpath_mismatch


def make_tree(root):
    package = root / "src" / "wdmt"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    return package


def test_first_entry_holding_the_package_must_be_the_imported_one(tmp_path):
    ours, other = make_tree(tmp_path / "ours"), make_tree(tmp_path / "other")
    message = pythonpath_mismatch(str(other.parent), ours)
    assert message is not None
    assert str(other) in message and str(ours) in message
    assert pythonpath_mismatch(str(ours.parent), ours) is None
    later = os.pathsep.join([str(ours.parent), str(other.parent)])
    assert pythonpath_mismatch(later, ours) is None


def test_entries_without_the_package_are_passed_over(tmp_path):
    ours = make_tree(tmp_path / "ours")
    (tmp_path / "empty").mkdir()
    entries = os.pathsep.join([str(tmp_path / "empty"), str(tmp_path / "missing"),
                               str(ours.parent)])
    assert pythonpath_mismatch(entries, ours) is None
    assert pythonpath_mismatch(str(tmp_path / "empty"), ours) is None
    assert pythonpath_mismatch("", ours) is None


def test_relative_entries_are_read_from_the_working_directory(tmp_path, monkeypatch):
    ours, other = make_tree(tmp_path / "ours"), make_tree(tmp_path / "other")
    monkeypatch.chdir(tmp_path)
    assert pythonpath_mismatch(os.path.join("ours", "src"), ours) is None
    assert pythonpath_mismatch(os.path.join("other", "src"), ours) is not None


def test_this_checkouts_src_passes():
    src = Path(__file__).resolve().parents[1] / "src"
    assert pythonpath_mismatch(str(src), Path(wdmt.__file__).parent) is None
