"""The package's export surface: each module's __all__ and the top-level names."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import massboost

MODULES = ("core", "measure", "booster", "rectangles", "adversary", "harness")
ROOT = Path(__file__).resolve().parent.parent


def imported_from_massboost(source: str) -> set:
    """The names a source imports with `from massboost import ...`."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "massboost" and node.level == 0
        for alias in node.names
    }


SOURCES = (
    [path.read_text() for pattern in ("demos/*.py", "bench/*.py") for path in sorted(ROOT.glob(pattern))]
    + [(ROOT / "tests" / name).read_text() for name in ("test_acceptance.py", "test_golden.py")]
    + re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
)
# what demos/, bench/, README's python blocks, test_acceptance.py and
# test_golden.py import from massboost, plus the base classes of the errors a
# caller catches
TOP_LEVEL = set().union(*map(imported_from_massboost, SOURCES)) | {"BoostFailure", "ConfigParse"}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined(name):
    module = importlib.import_module(f"massboost.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_top_level_names_come_from_module_all():
    for name in TOP_LEVEL:
        obj = getattr(massboost, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("massboost."), name
        assert name in home.__all__, name


def test_top_level_surface():
    public = {n for n in vars(massboost) if not n.startswith("_")}
    submodules = {n for n in public if isinstance(getattr(massboost, n), types.ModuleType)}
    assert public - submodules == TOP_LEVEL
    assert submodules <= set(MODULES) | {"cli"}
    assert massboost.__version__


def test_config_parse_is_the_only_value_error_subclass():
    """Rejected input raises ValueError with its message; only ConfigParse, which cli maps to exit code 2, subclasses it."""
    subclasses = {
        f"{obj.__module__}.{obj.__qualname__}"
        for info in pkgutil.iter_modules(massboost.__path__)
        for obj in vars(importlib.import_module(f"massboost.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, ValueError) and obj.__module__.startswith("massboost")
    }
    assert subclasses == {"massboost.harness.ConfigParse"}
