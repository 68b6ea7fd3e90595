"""Stop a run that would test another tree than the one PYTHONPATH names.

``pyproject.toml`` puts this checkout's ``src`` ahead of ``PYTHONPATH`` on
pytest's import path, so ``PYTHONPATH=other/src pytest`` would test this
checkout and not ``other``. A check of another tree runs inside that tree.
"""

import os
from pathlib import Path

import pytest


def pythonpath_mismatch(pythonpath, imported):
    """A message naming both directories when the first ``pythonpath``
    entry that holds ``wdmt/__init__.py`` is not ``imported``, the
    directory ``wdmt`` was imported from; None when they agree or no entry
    holds the package. Relative entries are read from the working
    directory, as Python reads them."""
    for entry in pythonpath.split(os.pathsep):
        named = Path(entry) / "wdmt"
        if (named / "__init__.py").is_file():
            named, imported = named.resolve(), Path(imported).resolve()
            if named == imported:
                return None
            return (f"PYTHONPATH names the package in {named}, but the tests import "
                    f"it from {imported}; run a check of another tree inside that tree")
    return None


def pytest_configure(config):
    import wdmt

    message = pythonpath_mismatch(os.environ.get("PYTHONPATH", ""),
                                  Path(wdmt.__file__).parent)
    if message:
        raise pytest.UsageError(message)
