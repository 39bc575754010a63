"""Every entry of tools/mutants.json applies to the tree: its old text occurs exactly once in its file.

Whether the named tests kill each mutant is checked by running
python3 tools/mutants.py, which is not part of this suite.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from mutants import load  # noqa: E402


@pytest.mark.parametrize("mutant", load(), ids=lambda m: m["name"])
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
