"""One measured massboost process, started fresh by run.py.

    python3 perfbench/child.py setup <config> <seed>
        Time importing massboost, loading the config and building the
        seed's instance.
    python3 perfbench/child.py instance <config> <seed> <path>
        Write the seed's instance to <path> as a distribution file.
    python3 perfbench/child.py run <trace 0|1> <cli argument>...
        Time massboost.cli.main(<cli arguments>), with span tracing or
        with speed sampling (SpeedSampler).

Times are taken both as wall time and as CPU time, which leaves out the
time the host's hypervisor gives the CPU to others (steal time).

The last line of standard output is one JSON object. The working
directory must be the repository root; massboost is imported from src/.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time

CAL_PERIOD_S = 0.2  # one speed sample every 0.2 s of wall time
CAL_LOOP_N = 20_000  # iterations of the sampled loop, about 2 ms of CPU time
CAL_WARM = 5  # samples taken before the timed section, so a short run has a median


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedSampler:
    """Samples the speed of the CPU the measured program runs on.

    On a shared host the CPU time of the same work drifts by a tenth or
    more within a minute. Another process cannot follow this speed (on the
    other CPU its samples do not track this one's), so the measured process
    samples itself: every CAL_PERIOD_S a SIGALRM handler, which runs in the
    main thread between the program's bytecodes, times CAL_LOOP_N
    iterations of a fixed loop in thread CPU time. run.py divides the
    program's CPU time by the median sample.
    """

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t = time.thread_time()
        acc = 0
        for i in range(CAL_LOOP_N):
            acc += i * i % 7
        self.samples.append(time.thread_time() - t)

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def __enter__(self):
        for _ in range(CAL_WARM):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup(config: str, seed: int) -> dict:
    with SpeedSampler() as sampler:
        cpu0, t0, spent0 = _cpu_s(), time.perf_counter(), sampler.spent_s
        from massboost.harness import build_instance, load_config

        build_instance(load_config(config), seed)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0 - (sampler.spent_s - spent0)
    return {"wall_s": wall, "cpu_s": cpu, "cal_s": statistics.median(sampler.samples)}


def instance(config: str, seed: int, path: str) -> dict:
    from massboost.core import save_dist
    from massboost.harness import build_instance, load_config

    save_dist(build_instance(load_config(config), seed)[0], path)
    return {"path": path}


def run(traced: bool, argv: list) -> dict:
    from massboost import cli, harness

    tracer = None
    sampler = SpeedSampler()
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.install()

    seed_cpu = {}
    run_seed = harness._run_seed

    # CPU times leave out the sampler's. It runs in the main thread, so a
    # seed on a pool thread is not charged for it.
    def timed_run_seed(cfg, seed):
        t, spent = time.thread_time(), sampler.spent_s
        try:
            return run_seed(cfg, seed)
        finally:
            on_main = threading.current_thread() is threading.main_thread()
            seed_cpu[seed] = time.thread_time() - t - (sampler.spent_s - spent if on_main else 0.0)

    harness._run_seed = timed_run_seed
    with contextlib.nullcontext() if traced else sampler:
        cpu0, t0, spent0 = _cpu_s(), time.perf_counter(), sampler.spent_s
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0 - (sampler.spent_s - spent0)
    return {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "seed_cpu_s": {str(s): c for s, c in sorted(seed_cpu.items())},
        "cal_s": statistics.median(sampler.samples) if sampler.samples else None,  # None when traced
        "cal_samples": len(sampler.samples),
        "cores_used": cpu / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.summary() if tracer else None,
    }


def main(argv: list) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if argv[0] == "setup":
        result = setup(argv[1], int(argv[2]))
    elif argv[0] == "instance":
        result = instance(argv[1], int(argv[2]), argv[3])
    elif argv[0] == "run":
        result = run(argv[1] == "1", argv[2:])
    else:
        raise SystemExit(f"unknown child command {argv[0]!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
