"""Run the mutants of tools/mutants.json and report the ones that no named test kills.

    python3 tools/mutants.py

Each entry of tools/mutants.json has a name, a file, the old text (a list
of lines, joined by newlines) that must occur exactly once in that file, the
new text that replaces it, and the tests (pytest node ids, run from the
repository root) that must kill it. A change that adds a guard adds the
mutants it kills there.

Copies the working tree once into a temporary directory (as tools/ab.py
snapshots it: the files git tracks or would track, as on disk), removed at
exit. It first runs every named test on the unchanged copy, which must
pass. Then for each mutant it writes the file with the mutant's old text
replaced by its new text, runs `python -m pytest -x` on the mutant's tests
there with src on the path, one BLAS thread and hypothesis seed 0, and
restores the file. Each pytest run starts with no hypothesis database, so
no mutant replays an example found for another. A mutant is killed when
pytest exits 1, that is when a test failed; it survives when pytest exits 0.
Any other exit (a collection error, no test selected) is an error of the
entry. A pytest run still going after TIMEOUT_S seconds, as when a mutant
makes a loop unbounded, is stopped and reported as a timeout, which is not
a kill. Exits 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ab import ROOT, snapshot

MUTANTS = ROOT / "tools" / "mutants.json"
TIMEOUT_S = 300


def load() -> List[dict]:
    """The entries of tools/mutants.json, each with name, file, old, new and tests; old and new as text."""
    with open(MUTANTS) as fh:
        return [{**m, "old": "\n".join(m["old"]), "new": "\n".join(m["new"])} for m in json.load(fh)]


def pytest(tree: Path, tests: List[str]) -> Optional[int]:
    """The exit code of pytest -x on tests in tree, or None if it timed out; its hypothesis database is removed."""
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--hypothesis-seed=0", *tests],
                              cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(tree / ".hypothesis", ignore_errors=True)


def run_mutant(tree: Path, mutant: dict) -> str:
    """"killed", "survived", "timeout" or "error": the mutant applied in tree, its tests run, and the file restored."""
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        return "error"
    try:
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        code = pytest(tree, mutant["tests"])
    finally:
        path.write_text(text)
    return {0: "survived", 1: "killed", None: "timeout"}.get(code, "error")


def main() -> int:
    mutants = load()
    start = time.perf_counter()
    results = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        snapshot(ROOT, Path(tmp))
        tests = sorted({test for mutant in mutants for test in mutant["tests"]})
        if pytest(Path(tmp), tests) != 0:
            print(f"the unchanged tree fails some of: {' '.join(tests)}")
            return 1
        print(f"unchanged tree passes {len(tests)} tests in {time.perf_counter() - start:.1f} s", flush=True)
        for mutant in mutants:
            t0 = time.perf_counter()
            results[mutant["name"]] = outcome = run_mutant(Path(tmp), mutant)
            print(f"{outcome:8s} {time.perf_counter() - t0:6.1f} s  {mutant['name']}", flush=True)
    bad = [name for name, outcome in results.items() if outcome != "killed"]
    print(f"{len(results) - len(bad)} of {len(results)} killed in {time.perf_counter() - start:.1f} s"
          + (f"; not killed: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
