"""The package's export surface: each module's __all__ and the top-level names."""

import importlib
import types

import pytest

import massboost

MODULES = ("core", "measure", "booster", "rectangles", "adversary", "harness")

# what demos/, README, bench/, test_acceptance.py and test_golden.py import
# from massboost, plus the base classes of the errors a caller catches
TOP_LEVEL = {
    "BoostFailure",
    "BoxWeakLearner",
    "ConfigParse",
    "FiniteMassartDist",
    "FixedHypothesisWeakLearner",
    "HardDistSpec",
    "MassartOracle",
    "MaxRoundsExceeded",
    "Measure",
    "RectangleUnion",
    "RudeState",
    "RudeWeakLearner",
    "boost",
    "compute_params",
    "emit_metrics",
    "enumerate_negative_subrectangles",
    "est_density",
    "exact_advantage",
    "exact_density",
    "exact_ferr",
    "exact_lerr",
    "exact_potential",
    "hard_distribution",
    "load_config",
    "m_weight",
    "make_massart",
    "phi_point",
    "reweighted_noise_rates",
    "run_experiment",
    "wkl_box",
}


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
