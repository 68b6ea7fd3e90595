"""The package's public surface is declared once, in each module's __all__."""

import ast
import importlib
from pathlib import Path

import wdmt

MODULES = ("core", "dmt_analytic", "lp_oracle", "channel_sim", "exponent_fit")


def test_package_all_is_the_module_lists():
    modules = [importlib.import_module(f"wdmt.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert list(wdmt.__all__) == names
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(wdmt, name) is getattr(module, name), (module.__name__, name)


def test_star_import_gives_exactly_all():
    namespace = {}
    exec("from wdmt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(wdmt.__all__)


def test_no_module_imports_a_private_name_of_another():
    # a rule that two modules share lives in a public (if unexported) name
    offenders = []
    for path in sorted(Path(wdmt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "wdmt"
            )
            if internal:
                offenders += [f"{path.name}:{node.lineno} {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []
