"""The microbenchmarks under bench/ still run, each once, their bit-equality asserts included.

bench/ is outside the test suite's paths, so an API change that breaks a
benchmark would otherwise go unnoticed until someone times it.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(importlib.util.find_spec("pytest_benchmark") is None, reason="pytest-benchmark is not installed")
def test_microbenchmarks_run_once():
    """--benchmark-disable runs each benchmark's body once and times nothing."""
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/", "--benchmark-disable", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-4000:]
