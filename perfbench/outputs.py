"""Reading and checking the files `massboost run --out DIR` writes.

A seed's fingerprint holds the summary fields rounds, total_draws, lerr,
ferr and ok, and a sha256 over the trace CSV columns d_hat, overconfident
and raw_draws. Columns are found by header name, so columns appended to the
CSV later do not change the fingerprint.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SUMMARY_FIELDS = ("rounds", "total_draws", "lerr", "ferr", "ok")
TRACE_COLUMNS = ("d_hat", "overconfident", "raw_draws")


def read_summary(out_dir: Path) -> dict:
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def _trace_digest(path: Path) -> tuple:
    """(sha256 over the fingerprinted columns, number of rows)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    digest = hashlib.sha256()
    for row in rows:
        digest.update(",".join(row[c] for c in TRACE_COLUMNS).encode() + b"\n")
    return digest.hexdigest(), len(rows)


def fingerprints(out_dir: Path) -> dict:
    """Seed (as a string) -> fingerprint, for every seed in the run's summary."""
    out = {}
    for entry in read_summary(out_dir)["seeds"]:
        fp = {key: entry[key] for key in SUMMARY_FIELDS}
        fp["trace_sha256"], fp["trace_rows"] = _trace_digest(out_dir / entry["trace_file"])
        out[str(entry["seed"])] = fp
    return out


def check_seeds(out_dir: Path, reference: dict, target_lerr: float) -> dict:
    """Seed -> list of problems (empty when the seed passes).

    A seed in the reference must match its recorded fingerprint exactly. A
    seed outside it must be ok with lerr <= target_lerr. Every seed must have
    as many trace rows as rounds.
    """
    problems = {}
    for seed, fp in fingerprints(out_dir).items():
        found = []
        if fp["trace_rows"] != fp["rounds"]:
            found.append(f"trace has {fp['trace_rows']} rows for {fp['rounds']} rounds")
        if seed in reference:
            for key, want in reference[seed].items():
                if fp.get(key) != want:
                    found.append(f"{key} = {fp.get(key)!r}, reference {want!r}")
        elif not (fp["ok"] and fp["lerr"] is not None and fp["lerr"] <= target_lerr):
            found.append(f"ok = {fp['ok']}, lerr = {fp['lerr']} against target {target_lerr}")
        problems[seed] = found
    return problems
