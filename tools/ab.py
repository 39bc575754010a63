"""Alternating A/B runs of perfbench/run.py: a parent commit against the working tree.

    python3 tools/ab.py --parent REF --workload W[,W...] --pairs N [--seed S]

Writes two sibling snapshots into one temporary directory, removed at
exit: the committed files of REF (`git archive`), and the working tree this
file lives in, uncommitted edits and new files that git does not ignore
included (see snapshot). Both sides run from a snapshot, so neither runs
from the checkout itself. Each pair runs
`python3 perfbench/run.py --workload W --seed S` once in each tree for
every listed workload W in turn, the parent first in odd pairs and the
change first in even ones, so a drift of the machine's speed during the
batch falls on both sides alike. It stops at the first run that fails or
reads `correct: false`.

It prints each pair's end-to-end metrics (parent/change), then, per
workload and metric, each side's median and quartiles, the change of the
median, and the number of pairs in which the change is better, using the
direction BENCHMARK.json declares (lower is better for a metric it does not
list), and whether the pairs show a gain (see summarize). The quartiles
interpolate linearly between order statistics (statistics.quantiles,
method "inclusive"). Last, for each metric BENCHMARK.json bounds, it
prints the bound and a no-regression verdict (see verdict).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

Pair = Tuple[Dict[str, float], Dict[str, float]]  # (parent, change) metric values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile; all three equal the value of a single run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: List[Pair], better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric of the first pair: both sides' quartiles, the parent's IQR, the change's wins and the gain rule.

    better maps a metric to "lower" or "higher"; a metric it does not name
    is better lower. A pair is a win when the change is strictly better, so
    a tie counts for neither side. The pairs show a gain when the change
    wins at least 9 in 10 of them and its median is better than the
    parent's by more than the parent's IQR.
    """
    out = {}
    for name in pairs[0][0]:
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        p_q, c_q = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        out[name] = {
            "parent": p_q,
            "change": c_q,
            "parent_iqr": p_q[2] - p_q[0],
            "median_change": (c_q[1] - p_q[1]) / p_q[1] if p_q[1] else None,
            "wins": wins,
            "equal": parent == change,
            "gain": 10 * wins >= 9 * len(pairs) and sign * (p_q[1] - c_q[1]) > p_q[2] - p_q[0],
        }
    return out


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> str:
    """Whether the change regresses one metric, against a bound relative to the parent's median.

    "regressed": the change's median is worse than the parent's by more
    than bound times the parent's median. "unresolved": the parent's IQR
    exceeds that much, and not every change run is better than every parent
    run, so the runs cannot tell. "within bound" otherwise.
    """
    sign = -1.0 if better == "higher" else 1.0
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    allowed = bound * abs(pm)
    if sign * (cm - pm) > allowed:
        return "regressed"
    if p3 - p1 > allowed and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def workloads(arg: str) -> List[str]:
    """The workload names of a comma-separated --workload value, in order; empty or repeated names are errors."""
    names = [name.strip() for name in arg.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise ValueError(f"--workload {arg!r} must list distinct, non-empty names")
    return names


def extract(ref: str, dest: Path) -> None:
    """The committed files of ref, written under dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", ref], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"could not extract {ref!r}")


def snapshot(root: Path, dest: Path) -> None:
    """The working tree's files under root that git tracks or would track, as on disk, copied under dest.

    A tracked file deleted on disk is left out, and so is a file that git ignores.
    """
    listed = subprocess.run(["git", "-C", str(root), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            capture_output=True, check=True).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(tree: Path, workload: str, seed: int) -> Dict[str, float]:
    """The end-to-end metrics of one perfbench run in tree; exits on a failed or incorrect run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: correct: false, {result['failed']} of {result['attempted']} seeds failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def end_to_end() -> Dict[str, dict]:
    """BENCHMARK.json's entry of each end-to-end metric, with its better direction and bound."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def report(workload: str, seed: int, parent_ref: str, pairs: List[Pair], rules: Dict[str, dict]) -> None:
    """Print one workload's per-metric summary and its verdicts."""
    print(f"{workload}, seed {seed}, {len(pairs)} pairs, parent {parent_ref} / change (working tree):")
    for name, s in summarize(pairs, {k: m["better"] for k, m in rules.items()}).items():
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        moved = f"change better in {s['wins']} of {len(pairs)}"
        if s["median_change"] is not None:
            moved = f"{s['median_change']:+.1%}, {moved}"
        if s["equal"]:
            moved = "equal in every pair"
        print(f"  {name}: median {pm:.6g} [{p1:.6g}, {p3:.6g}] / {cm:.6g} [{c1:.6g}, {c3:.6g}], "
              f"parent IQR {s['parent_iqr']:.4g}; {moved}; gain {'shown' if s['gain'] else 'not shown'}")
    for name, m in rules.items():
        if name in pairs[0][0]:
            parent, change = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
            print(f"  verdict {name} (bound {m['bound']:g}): {verdict(parent, change, m['better'], m['bound'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True, help="a workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        names = workloads(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    pairs: Dict[str, List[Pair]] = {name: [] for name in names}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent_tree, change_tree = Path(tmp, "parent"), Path(tmp, "change")
        parent_tree.mkdir()
        extract(args.parent, parent_tree)
        snapshot(ROOT, change_tree)
        for i in range(args.pairs):
            parent_first = i % 2 == 0
            order = [parent_tree, change_tree] if parent_first else [change_tree, parent_tree]
            for name in names:
                runs = {tree: run_once(tree, name, args.seed) for tree in order}
                pairs[name].append((runs[parent_tree], runs[change_tree]))
                cells = " ".join(f"{k}={p:.6g}/{runs[change_tree][k]:.6g}" for k, p in runs[parent_tree].items())
                print(f"pair {i + 1} {name} ({'parent' if parent_first else 'change'} first): {cells}", flush=True)
    rules = end_to_end()
    for name in names:
        report(name, args.seed, args.parent, pairs[name], rules)
    return 0


if __name__ == "__main__":
    sys.exit(main())
