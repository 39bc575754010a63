"""Pins BLAS and OpenMP to one thread in the microbenchmarks, as perfbench pins its runs.

OpenBLAS reads its thread count once, when numpy loads, and splits a long
dot product across its threads, so an unpinned session times another kernel,
whose speed depends on what else the machine runs. pytest configures this
file before it imports the benchmark modules; the pins are perfbench/run.py's
THREAD_PINS. If numpy is already loaded (by a plugin, say) without them in
the environment, they could no longer take effect, and the session stops.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def thread_pins() -> dict:
    """THREAD_PINS of perfbench/run.py, read without importing that script."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "THREAD_PINS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"{RUN_PY} defines no THREAD_PINS")


def pytest_configure(config):
    pins = thread_pins()
    if "numpy" in sys.modules and any(os.environ.get(k) != v for k, v in pins.items()):
        raise pytest.UsageError(
            "numpy was loaded before bench/conftest.py could pin the BLAS threads; "
            "set " + ", ".join(f"{k}=1" for k in sorted(pins)) + " in the environment instead"
        )
    os.environ.update(pins)
