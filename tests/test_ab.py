"""The summary of tools/ab.py on fixed numbers, and its snapshot of a working tree."""

import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from ab import quartiles, snapshot, summarize, verdict, workloads  # noqa: E402

PARENT = {"norm_cpu_s": [10.0, 11.0, 12.0, 13.0, 14.0], "success_fraction": [1.0] * 5, "score": [1, 2, 3, 4, 5]}
CHANGE = {"norm_cpu_s": [9.0, 9.5, 12.5, 10.0, 15.0], "success_fraction": [1.0] * 5, "score": [2, 1, 4, 4, 6]}
PAIRS = [({k: v[i] for k, v in PARENT.items()}, {k: v[i] for k, v in CHANGE.items()}) for i in range(5)]


def test_quartiles_interpolate_between_order_statistics():
    assert quartiles([13.0, 10.0, 12.0, 11.0, 14.0]) == (11.0, 12.0, 13.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_fixed_pairs():
    got = summarize(PAIRS, {"norm_cpu_s": "lower", "success_fraction": "higher", "score": "higher"})
    cpu = got["norm_cpu_s"]
    assert cpu["parent"] == (11.0, 12.0, 13.0) and cpu["change"] == (9.5, 10.0, 12.5)
    assert cpu["parent_iqr"] == 2.0
    assert cpu["median_change"] == pytest.approx(-1 / 6)
    assert cpu["wins"] == 3 and not cpu["equal"]  # pairs 1, 2 and 4 are lower
    assert got["success_fraction"]["equal"] and got["success_fraction"]["wins"] == 0
    assert got["score"]["wins"] == 3  # higher is better: pairs 1, 3 and 5


GAIN_PARENT = [12.0, 12.1, 12.2, 12.3, 12.4, 12.5, 12.6, 12.7, 12.8, 12.9]  # median 12.45, IQR 0.45


@pytest.mark.parametrize(
    "change,want",
    [
        # lower in 9 of 10 pairs, and the median 11.0 is lower by 1.45
        ([11.0] * 9 + [13.0], True),
        # the same median, but lower in only 8 of 10
        ([11.0] * 8 + [13.0, 13.0], False),
        # a tie counts for neither side: 8 wins and a tie
        ([11.0] * 8 + [12.8, 13.0], False),
        # lower in 10 of 10, but the median is lower by 0.3, inside the IQR
        ([p - 0.3 for p in GAIN_PARENT], False),
    ],
    ids=["nine-of-ten-beyond-iqr", "eight-of-ten", "tie", "inside-iqr"],
)
def test_gain_rule_of_fixed_pairs(change, want):
    pairs = [({"setup_s": p}, {"setup_s": c}) for p, c in zip(GAIN_PARENT, change)]
    got = summarize(pairs, {"setup_s": "lower"})["setup_s"]
    assert got["parent_iqr"] == pytest.approx(0.45) and got["gain"] is want


def test_gain_rule_needs_the_median_beyond_the_iqr():
    # parent 10..19: median 14.5, IQR 16.75 - 12.25 = 4.5, exact in floats;
    # the change wins 9 of 10 and its median 10 is better by exactly the IQR
    parent = [float(v) for v in range(10, 20)]
    change = [9.0] + [10.0] * 8 + [30.0]
    got = summarize([({"setup_s": p}, {"setup_s": c}) for p, c in zip(parent, change)], {"setup_s": "lower"})
    assert got["setup_s"]["parent_iqr"] == 4.5 and got["setup_s"]["wins"] == 9
    assert got["setup_s"]["gain"] is False


def test_gain_rule_reads_the_better_direction():
    # higher is better: the same numbers, mirrored, show the same gain
    pairs = [({"score": -p}, {"score": -c}) for p, c in zip(GAIN_PARENT, [11.0] * 9 + [13.0])]
    assert summarize(pairs, {"score": "higher"})["score"]["gain"] is True
    assert summarize(pairs, {"score": "lower"})["score"]["gain"] is False


def test_unlisted_metric_is_better_lower():
    assert summarize(PAIRS, {})["score"]["wins"] == 1  # only pair 2 is lower


@pytest.mark.parametrize(
    "parent,change,better,want",
    [
        # median 12 -> 15.5, worse by 29% of 12 against a bound of 25%
        ([11.5, 12.0, 12.0, 12.0, 12.5], [15.0, 15.5, 15.5, 15.5, 16.0], "lower", "regressed"),
        # higher is better: 1.0 -> 0.7 is worse by 30%
        ([1.0] * 5, [0.7] * 5, "higher", "regressed"),
        # the parent's IQR, 4 of median 12, exceeds the bound's 3, and the runs overlap
        ([8.0, 10.0, 12.0, 14.0, 16.0], [9.0, 11.0, 12.5, 13.0, 15.0], "lower", "unresolved"),
        # the same spread, but every change run beats every parent run
        ([8.0, 10.0, 12.0, 14.0, 16.0], [4.0, 5.0, 6.0, 7.0, 7.5], "lower", "within bound"),
        # worse by 20% of the median, inside the bound, with a narrow parent
        ([11.9, 12.0, 12.0, 12.0, 12.1], [14.0, 14.4, 14.4, 14.4, 14.5], "lower", "within bound"),
        ([3.0] * 5, [3.0] * 5, "lower", "within bound"),
        # worse by exactly the bound, 1 of median 4: not more than it
        ([4.0] * 5, [5.0] * 5, "lower", "within bound"),
    ],
    ids=["worse-median", "worse-higher", "wide-parent", "wide-parent-all-beaten", "inside-bound", "equal", "at-bound"],
)
def test_verdict_of_fixed_runs(parent, change, better, want):
    assert verdict(parent, change, better, 0.25) == want


def test_workload_list():
    assert workloads("rect-exact") == ["rect-exact"]
    assert workloads("rect-exact,hard-exact, rect-mc") == ["rect-exact", "hard-exact", "rect-mc"]


@pytest.mark.parametrize("arg", ["", "rect-exact,", ",rect-mc", "rect-exact,,rect-mc", "rect-mc,rect-mc"])
def test_workload_list_rejects_empty_or_repeated_names(arg):
    with pytest.raises(ValueError):
        workloads(arg)


def test_snapshot_copies_the_working_tree_git_would_commit(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "pkg" / "kept.py").write_text("old\n")
    (repo / "gone.py").write_text("x\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    (repo / "pkg" / "kept.py").write_text("edited\n")  # tracked, edited after git add
    (repo / "gone.py").unlink()  # tracked, deleted on disk
    (repo / "pkg" / "new.py").write_text("new\n")  # untracked
    (repo / "ignored.txt").write_text("ignored\n")
    snapshot(repo, dest)
    got = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert got == [".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (dest / "pkg" / "kept.py").read_text() == "edited\n"
