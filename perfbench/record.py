"""Record reference.json: the output fingerprint of every default seed.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each named workload's config (all workloads by default) over the seeds
its config file lists, with MB_THREADS=2, and stores one fingerprint per
seed (outputs.py) under the workload's reference key. Re-record only in a
change that alters the program's outputs on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import REFERENCE, ROOT, SCRATCH, WORKLOADS, child_env, prepare_config, run_child
from outputs import fingerprints


def default_seeds(config: str) -> str:
    """The seeds the config file lists, as a --seed-range value."""
    sys.path.insert(0, str(ROOT / "src"))
    from massboost.harness import load_config

    seeds = load_config(ROOT / config).seeds
    if list(seeds) != list(range(seeds[0], seeds[-1] + 1)):
        raise SystemExit(f"{config}: seeds must be one contiguous range")
    return f"{seeds[0]}..{seeds[-1]}"


def main(names) -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    todo = {WORKLOADS[name].reference_key: WORKLOADS[name] for name in names or sorted(WORKLOADS)}
    for key, workload in todo.items():
        work = ROOT / SCRATCH / f"record-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        out_dir = work / "out"
        env = child_env(workload)
        env["MB_THREADS"] = "2"
        seeds = default_seeds(workload.config)
        t0 = time.monotonic()
        deadline = t0 + 24 * 3600
        config = prepare_config(workload, work, env, deadline)
        result = run_child(
            ["run", "0", "run", config, "--seed-range", seeds, "--mode", workload.mode, "--out", str(out_dir)],
            env, deadline,
        )
        if result["exit_code"] != 0:
            raise SystemExit(f"{key}: massboost run exited {result['exit_code']}")
        reference[key] = fingerprints(out_dir)
        shutil.rmtree(work)
        print(f"{key}: seeds {seeds} recorded in {time.monotonic() - t0:.0f} s", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
