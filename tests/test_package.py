"""The package's public surface is declared once, in each module's __all__."""

import importlib

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
