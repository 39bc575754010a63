"""End-to-end and per-layer benchmark of the massboost CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [--seed N --seconds S --trace 0|1]

Run from the repository root. A workload runs a batch of consecutive seeds
N, N+1, ... of one config through `massboost run <config> --seed-range
--mode --out` (massboost.cli.main), in a fresh process whose environment is
pinned (see child_env). The batch holds as many seeds as fit in S seconds at
the workload's nominal cost per seed, so the same N and S always run the
same seeds. The rect workloads boost every seed on one fixed instance (see
Workload.instance_seed). Every run checks the outputs of every seed (outputs.py) against
reference.json, or, for a seed with no reference, against lerr <= eta +
epsilon and ok.

--trace 0 reports the end-to-end metrics. Its times are CPU times
normalized to a reference speed. On the shared 2-CPU host the benchmark was
defined on, the wall time of the same work in the same process moved by up
to a third from minute to minute, for two reasons: at times the hypervisor
gave the CPU to others (steal time, which wall time counts and CPU time
does not), and at times the CPU ran slower (which CPU time counts too). So
the measured process samples the speed of its own CPU while it runs
(child.SpeedSampler), and norm_cpu_s is the batch's CPU time times
CAL_REF_S over the median sample: the seconds the batch takes on an
unshared CPU where the sampled loop takes CAL_REF_S. The workloads in
BENCHMARK.json run their seeds one after another in one thread, so there
CPU time is the time the batch keeps a CPU busy; a change that spreads the
work over more CPUs shows in the per-layer harness.cores_used and in the
raw wall time on the details line, not in norm_cpu_s. Set-up time,
normalized the same way, is the median over SETUP_REPEATS fresh processes
that each import massboost, load the config and build the first seed's
instance.

--trace 1 runs the batch untraced and then traced (tracer.py), checks that
the trace agrees with the program's own counts, and reports the per-layer
metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted (seeds run), failed (seeds that failed) and metrics. The line
before it gives the per-seed details and the pinned environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from outputs import check_seeds, read_summary  # noqa: E402

SETUP_REPEATS = 5
CAL_REF_S = 0.002  # the reference speed: child.SpeedSampler's loop takes 2 ms of CPU
DEADLINE_S = 170.0  # a run must end within 180 s
SCRATCH = ".perfbench_runs"
REFERENCE = HERE / "reference.json"
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    config: str
    mode: str
    seed_cost_s: float  # nominal batch wall seconds per seed at the defining commit
    mb_threads: Optional[int] = None  # MB_THREADS for the child; None unsets it
    # When set, every seed boosts on this one seed's instance, written to a
    # distribution file; the seeds then vary only the oracle and learner
    # randomness. A rect_grid instance fixes the round count T (seed to seed
    # it varies by up to 30%), and with it the run time, so a run-to-run
    # spread over random instances would hide regressions.
    instance_seed: Optional[int] = None

    @property
    def reference_key(self) -> str:
        key = f"{self.config} --mode {self.mode}"
        return key if self.instance_seed is None else f"{key} --instance {self.instance_seed}"

    def seeds(self, first: int, seconds: float) -> range:
        return range(first, first + max(1, round(seconds / self.seed_cost_s)))


# Why each workload was chosen, and which layer each should move:
# layer_map.json. BENCHMARK.json lists all but rect-exact-par. Its point is
# the wall time of two seeds on two threads, which CPU time cannot stand
# for, and on the shared 2-CPU host that wall time spread by a fifth from
# run to run with the same work. It is kept for runs by hand, as the only
# workload on the harness's thread pool and the only test of the tracer's
# per-thread spans.
WORKLOADS = {
    "rect-exact": Workload("configs/rect_benchmark.cfg", "exact", 6.5, instance_seed=0),
    "hard-exact": Workload("configs/hard_floor.cfg", "exact", 8.0),
    "rect-mc": Workload("perfbench/configs/rect_mc.cfg", "mc", 8.0, instance_seed=0),
    "rect-exact-par": Workload("configs/rect_benchmark.cfg", "exact", 6.0, mb_threads=2, instance_seed=0),
}


def child_env(workload: Workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MB_THREADS", "PYTHONPATH")}
    env.update(THREAD_PINS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(ROOT / SCRATCH)
    if workload.mb_threads is not None:
        env["MB_THREADS"] = str(workload.mb_threads)
    return env


def pinned_settings(env: dict) -> dict:
    keys = sorted(THREAD_PINS) + ["MB_THREADS"]
    return {k: env.get(k) for k in keys}


class RunFailed(RuntimeError):
    pass


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run child.py to completion and return its JSON result line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"child {args[:2]} did not finish in time") from None
    if proc.returncode != 0:
        raise RunFailed(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare_config(workload: Workload, work: Path, env: dict, deadline: float) -> str:
    """The config the CLI runs: the workload's own, or a copy on its fixed instance."""
    if workload.instance_seed is None:
        return workload.config
    dist = (work / "instance.txt").relative_to(ROOT)
    run_child(["instance", workload.config, str(workload.instance_seed), str(dist)], env, deadline)
    lines = [
        f"distribution = file:{dist}" if line.partition("=")[0].strip() == "distribution" else line
        for line in (ROOT / workload.config).read_text().splitlines()
    ]
    config = work / "instance.cfg"
    config.write_text("\n".join(lines) + "\n")
    return str(config.relative_to(ROOT))


def run_batch(workload: Workload, config: str, seeds: range, traced: bool, out_dir: Path, env: dict,
              deadline: float) -> dict:
    argv = [
        "run", "1" if traced else "0",
        "run", config,
        "--seed-range", f"{seeds.start}..{seeds.stop - 1}",
        "--mode", workload.mode,
        "--out", str(out_dir),
    ]
    result = run_child(argv, env, deadline)
    if result["exit_code"] != 0:
        raise RunFailed(f"massboost run exited {result['exit_code']}")
    return result


def check_outputs(out_dir: Path, workload: Workload, seeds: range) -> dict:
    """Seed -> problems; seeds missing from the output count as failed."""
    with open(REFERENCE) as fh:
        reference = json.load(fh).get(workload.reference_key, {})
    problems = check_seeds(out_dir, reference, read_summary(out_dir)["target_lerr"])
    for seed in seeds:
        problems.setdefault(str(seed), ["missing from summary.json"])
    return problems


def end_to_end(batch: dict, setups: list, out_dir: Path) -> dict:
    summary = read_summary(out_dir)
    seeds = summary["seeds"]
    speed = CAL_REF_S / batch["cal_s"]
    return {
        "norm_cpu_s": (batch["cpu_s"] * speed, "s"),
        "norm_seed_cpu_s": (statistics.median(batch["seed_cpu_s"].values()) * speed, "s"),
        "setup_s": (statistics.median(s["cpu_s"] * CAL_REF_S / s["cal_s"] for s in setups), "s"),
        "peak_rss_mb": (batch["peak_rss_mb"], "MB"),
        "rounds": (sum(s["rounds"] for s in seeds), "count"),
        "oracle_draws": (summary["total_draws"], "count"),
        "success_fraction": (summary["success_fraction"], "fraction"),
        "mean_lerr": (summary["mean_lerr"], "fraction"),
    }


def _span(spans: dict, name: str, field: str):
    return spans.get(name, {}).get(field, 0)


def per_layer(untraced: dict, traced: dict) -> dict:
    sp = traced["trace"]["spans"]
    raw = _span(sp, "booster.samp", "raw_draws")
    accepted = _span(sp, "booster.samp", "accepted")
    self_sum = sum(entry["self_s"] for entry in sp.values())
    return {
        "rectangles.wkl_box.s": (_span(sp, "rectangles.wkl_box", "total_s"), "s"),
        "rectangles.wkl_box.calls": (_span(sp, "rectangles.wkl_box", "calls"), "count"),
        "rectangles.wkl_box.points": (_span(sp, "rectangles.wkl_box", "points"), "count"),
        "rectangles.box_hypothesis.s": (_span(sp, "rectangles.BoxHypothesis.__call__", "total_s"), "s"),
        "booster.boost.self_s": (_span(sp, "booster.boost", "self_s"), "s"),
        "booster.agg_g.s": (_span(sp, "booster.AggregatedHypothesis.g", "total_s"), "s"),
        "booster.agg_g.calls": (_span(sp, "booster.AggregatedHypothesis.g", "calls"), "count"),
        "booster.agg_g.point_rounds": (_span(sp, "booster.AggregatedHypothesis.g", "point_rounds"), "count"),
        "booster.samp.s": (_span(sp, "booster.samp", "total_s"), "s"),
        "booster.samp.self_s": (_span(sp, "booster.samp", "self_s"), "s"),
        "booster.samp.raw_draws": (raw, "count"),
        "booster.samp.accepted": (accepted, "count"),
        "booster.samp.accept_ratio": (accepted / raw if raw else 0.0, "ratio"),
        "booster.repeat_weak_learner.self_s": (_span(sp, "booster.repeat_weak_learner", "self_s"), "s"),
        "booster.over_confident.s": (_span(sp, "booster.over_confident", "total_s"), "s"),
        "booster.over_confident.calls": (_span(sp, "booster.over_confident", "calls"), "count"),
        "booster.over_confident.true": (_span(sp, "booster.over_confident", "true"), "count"),
        "booster.est_density.s": (_span(sp, "booster.est_density", "total_s"), "s"),
        "booster.est_density.calls": (_span(sp, "booster.est_density", "calls"), "count"),
        "measure.weight.s": (_span(sp, "measure.Measure.weight", "total_s"), "s"),
        "measure.weight.points": (_span(sp, "measure.Measure.weight", "points"), "count"),
        "core.sample_batch.s": (_span(sp, "core.MassartOracle.sample_batch", "total_s"), "s"),
        "core.sample_batch.calls": (_span(sp, "core.MassartOracle.sample_batch", "calls"), "count"),
        "core.sample_batch.draws": (_span(sp, "core.MassartOracle.sample_batch", "draws"), "count"),
        # only the harness calls exact_lerr/exact_ferr during a run: the final evaluation
        "core.exact_eval.s": (_span(sp, "core.exact_lerr", "total_s") + _span(sp, "core.exact_ferr", "total_s"), "s"),
        "adversary.wkl_rude.self_s": (_span(sp, "adversary.wkl_rude", "self_s"), "s"),
        "adversary.heavy_hitter_hyp.s": (_span(sp, "adversary.HeavyHitterHypothesis.__call__", "total_s"), "s"),
        "adversary.hard_distribution.s": (_span(sp, "adversary.hard_distribution", "total_s"), "s"),
        "harness.build_instance.s": (_span(sp, "harness.build_instance", "total_s"), "s"),
        "harness.emit_metrics.s": (_span(sp, "harness.emit_metrics", "total_s"), "s"),
        "harness.cores_used": (untraced["cores_used"], "ratio"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.coverage": (self_sum / traced["wall_s"], "ratio"),
        "trace_overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }


def cross_check(traced: dict, out_dir: Path, seeds: range) -> list:
    """Counts seen from outside must equal the program's own counts."""
    summary = read_summary(out_dir)
    trace = traced["trace"]
    sp = trace["spans"]
    problems = []
    draws = _span(sp, "core.MassartOracle.sample_batch", "draws")
    if draws != summary["total_draws"]:
        problems.append(f"sample_batch drew {draws}, summary total_draws {summary['total_draws']}")
    boosts = _span(sp, "booster.boost", "calls")
    if boosts != len(seeds):
        problems.append(f"{boosts} boost spans for {len(seeds)} seeds")
    if trace["requests"] != list(seeds):
        problems.append(f"span request ids {trace['requests']} != seeds {list(seeds)}")
    return problems


def measure(name: str, first_seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    seeds = workload.seeds(first_seed, seconds)
    env = child_env(workload)
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / SCRATCH / f"{name}-{first_seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = prepare_config(workload, work, env, deadline)
        untraced_dir = work / "untraced"
        untraced = run_batch(workload, config, seeds, False, untraced_dir, env, deadline)
        problems = check_outputs(untraced_dir, workload, seeds)
        cross = []
        if trace:
            traced_dir = work / "traced"
            traced = run_batch(workload, config, seeds, True, traced_dir, env, deadline)
            for seed, found in check_outputs(traced_dir, workload, seeds).items():
                problems[seed] = problems.get(seed, []) + [f"traced: {p}" for p in found]
            cross = cross_check(traced, traced_dir, seeds)
            metrics = per_layer(untraced, traced)
            extra = {"spans": traced["trace"]["spans"]}
        else:
            setups = [run_child(["setup", config, str(seeds.start)], env, deadline) for _ in range(SETUP_REPEATS)]
            metrics = end_to_end(untraced, setups, untraced_dir)
            extra = {"setups": setups}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for found in problems.values() if found)
    details = {
        "workload": name,
        "seeds": list(seeds),
        "environment": pinned_settings(env),
        "failed_fraction": failed / len(seeds),
        "problems": {s: p for s, p in problems.items() if p},
        "cross_check": cross,
        "wall_s": untraced["wall_s"],
        "cpu_s": untraced["cpu_s"],
        "seed_cpu_s": untraced["seed_cpu_s"],
        "cal_s": untraced["cal_s"],
        "cal_samples": untraced["cal_samples"],
        **extra,
    }
    return {
        "details": details,
        "result": {
            "correct": failed == 0 and not cross,
            "attempted": len(seeds),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [p for p in ["src/massboost/cli.py"] + [WORKLOADS[n].config for n in names] if not (ROOT / p).is_file()]
    if missing or not REFERENCE.is_file():
        print(f"benchmark needs the repository sources; missing: {missing or [str(REFERENCE)]}", file=sys.stderr)
        return 2
    for name in names:
        try:
            out = measure(name, args.seed, args.seconds, bool(args.trace))
        except RunFailed as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(out["details"]))
        if args.workload == "all":
            for key, m in out["result"]["metrics"].items():
                print(f"{name:15s} {key:36s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
