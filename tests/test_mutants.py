"""Every entry of tools/mutants.json applies to the tree and names tests that exist.

Its old text occurs exactly once in its file, and each of its test ids names
a test function, or a test method of a test class, defined in the named
file; the file is parsed, not collected. Whether the named tests kill each
mutant is checked by running python3 tools/mutants.py, which is not part of
this suite; that a run past its time limit is a timeout, with the file
restored, is checked here with subprocess.run replaced.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from mutants import TIMEOUT_S, load, run_mutant  # noqa: E402


def defined_tests(path: Path) -> set:
    """The ids after "::" of the tests defined at the top level of a test file, without parameters."""
    ids = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            ids.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            ids.update(f"{node.name}::{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef) and item.name.startswith("test"))
    return ids


@pytest.mark.parametrize("mutant", load(), ids=lambda m: m["name"])
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1


@pytest.mark.parametrize("mutant", load(), ids=lambda m: m["name"])
def test_named_tests_are_defined(mutant):
    for test in mutant["tests"]:
        path, _, name = test.partition("::")
        assert name.split("[")[0] in defined_tests(ROOT / path), test


def test_a_run_past_the_time_limit_is_a_timeout_and_restores_the_file(tmp_path, monkeypatch):
    path = tmp_path / "loop.py"
    path.write_text("while i < n:\n    i += 1\n")

    def hang(args, **kwargs):
        assert path.read_text() == "while i < n:\n    pass\n" and kwargs["timeout"] == TIMEOUT_S
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    mutant = {"file": "loop.py", "old": "    i += 1", "new": "    pass", "tests": ["tests/test_loop.py"]}
    assert run_mutant(tmp_path, mutant) == "timeout"
    assert path.read_text() == "while i < n:\n    i += 1\n"
