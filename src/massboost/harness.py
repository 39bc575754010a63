"""Config-driven seeded experiment runner.

A run config is a flat key = value text file naming a distribution source, a
weak learner, and the boosting parameters, plus a seed list. For each seed
the runner builds a fresh oracle and RNG stream, boosts, evaluates the final
hypothesis exactly on the finite support, and aggregates success
statistics. A seed whose run stops early keeps the rounds it completed and
is evaluated on them. (config, seed) fully determines a run; reruns write
byte-identical outputs.

Outputs: summary.json with aggregate and per-seed fields, and one
round_trace_<seed>.csv per seed in the booster's trace schema.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .adversary import HardDistSpec, RudeState, RudeWeakLearner, hard_distribution
from .booster import (
    AggregatedHypothesis,
    BoostFailure,
    BoostParams,
    FixedHypothesisWeakLearner,
    RunTrace,
    boost,
    compute_params,
)
from .core import FiniteMassartDist, MassartOracle, ferr_of_labels, lerr_of_labels, load_dist, sign_pm1
from .rectangles import BoxWeakLearner, Rectangle, RectangleUnion

__all__ = [
    "ConfigParse",
    "IoFailure",
    "RunConfig",
    "RunReport",
    "SeedResult",
    "UnknownWeakLearner",
    "emit_metrics",
    "load_config",
    "parse_config",
    "run_experiment",
]


class ConfigParse(ValueError):
    """A config file line or field could not be parsed."""


class UnknownWeakLearner(ValueError):
    """The config names a weak learner this runner does not know."""


class IoFailure(OSError):
    """Writing metrics failed."""


_REQUIRED_KEYS = ("distribution", "weak_learner", "eta", "alpha", "gamma", "epsilon", "delta")
_POSITIVE = ("> 0", lambda v: v > 0)
# the keys build_instance and build_weak_learner read from RunConfig.params,
# each with its type and its range; a float must also be finite. parse_config
# checks every key present, whichever generator reads it; a range that
# depends on another key (hard_rho < alpha/1000, hard_support <= 2^hard_n)
# is checked where the instance is built.
_GENERATOR_KEYS = {
    "rect_d": (int, _POSITIVE), "rect_k": (int, _POSITIVE), "rect_side": (int, _POSITIVE),
    "noise_profile": (str, ("'rcn' or 'random'", lambda v: v in ("rcn", "random"))),
    "hard_n": (int, ("in [1, 64]", lambda v: 1 <= v <= 64)), "hard_rho": (float, (">= 0", lambda v: v >= 0)),
    "hard_support": (int, _POSITIVE), "box_c": (float, _POSITIVE), "box_scale": (float, _POSITIVE),
    "rude_m": (int, _POSITIVE), "rude_t": (int, _POSITIVE), "rude_scale": (float, _POSITIVE),
    "rude_survivor_cap": (int, _POSITIVE),
}


@dataclass
class RunConfig:
    """Fully parsed run description; params holds generator-specific extras."""

    distribution: str
    weak_learner: str
    eta: float
    alpha: float
    gamma: float
    epsilon: float
    delta: float
    sample_scale: float = 1.0
    mode: str = "exact-oracle"
    max_rounds: Optional[int] = None
    seeds: Tuple[int, ...] = ()
    out: Optional[str] = None
    ablate_no_withholding: bool = False
    params: Dict[str, str] = field(default_factory=dict)


def _parse_seeds(text: str) -> Tuple[int, ...]:
    """Seeds from an inclusive range a..b with a <= b, or a comma/space list; blank is none."""
    text = text.strip()
    if not text:
        return ()
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ConfigParse(f"seed range {text!r} is reversed: {lo} > {hi}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse the flat key = value format, with line diagnostics on errors; unknown keys are errors."""
    fields: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParse(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigParse(f"{source}:{lineno}: empty key")
        if key in fields:
            raise ConfigParse(f"{source}:{lineno}: duplicate key {key!r}")
        fields[key] = value
    missing = [k for k in _REQUIRED_KEYS if k not in fields]
    if missing:
        raise ConfigParse(f"{source}: missing required keys: {', '.join(missing)}")

    def grab_float(key: str, default=None) -> float:
        raw = fields.pop(key, None)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigParse(f"{source}: field {key!r}: {exc}") from None

    try:
        cfg = RunConfig(
            distribution=fields.pop("distribution"),
            weak_learner=fields.pop("weak_learner"),
            eta=grab_float("eta"),
            alpha=grab_float("alpha"),
            gamma=grab_float("gamma"),
            epsilon=grab_float("epsilon"),
            delta=grab_float("delta"),
            sample_scale=grab_float("sample_scale", 1.0),
            mode=fields.pop("mode", "exact-oracle"),
            max_rounds=int(fields.pop("max_rounds")) if "max_rounds" in fields else None,
            seeds=_parse_seeds(fields.pop("seeds", "")),
            out=fields.pop("out", None),
            ablate_no_withholding=fields.pop("ablate_no_withholding", "false").lower()
            in ("1", "true", "yes"),
            params=fields,
        )
    except ConfigParse:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigParse(f"{source}: {exc}") from None
    unknown = sorted(set(cfg.params) - set(_GENERATOR_KEYS))
    if unknown:
        raise ConfigParse(f"{source}: unknown keys: {', '.join(unknown)}")
    for key in cfg.params:
        try:
            _cfg(cfg, key)
        except ConfigParse as exc:
            raise ConfigParse(f"{source}: {exc}") from None
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


# -- per-seed instance construction --------------------------------------------


def _cfg(cfg: RunConfig, key: str, default=None):
    """Generator parameter key, or default when it is absent; ConfigParse unless it obeys its rule."""
    kind, (rule, holds) = _GENERATOR_KEYS[key]
    raw = cfg.params.get(key, default)
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigParse(f"field {key!r}: expected {kind.__name__}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigParse(f"field {key!r}: must be finite, got {raw!r}")
    if not holds(value):
        raise ConfigParse(f"field {key!r}: must be {rule}, got {raw!r}")
    return value


def _random_union(rng: np.random.Generator, d: int, k: int) -> RectangleUnion:
    """k random full boxes in [0,1]^d with side lengths in [0.2, 0.6]."""
    rects = []
    for _ in range(k):
        ineqs = []
        for axis in range(d):
            width = rng.uniform(0.2, 0.6)
            lo = rng.uniform(0.0, 1.0 - width)
            hi = lo + width
            ineqs.append((axis, 1, hi))    # x[axis] < hi
            ineqs.append((axis, -1, -lo))  # -x[axis] < -lo, i.e. x[axis] > lo
        rects.append(Rectangle(tuple(ineqs)))
    return RectangleUnion(tuple(rects))


def _grid_points(d: int, side: int) -> np.ndarray:
    axes = [(np.arange(side) + 0.5) / side for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def build_instance(cfg: RunConfig, seed: int):
    """Build (dist, concept, oracle_seed_sequence) for one seed."""
    ss = np.random.SeedSequence(entropy=[int(seed), 0x6D62]).spawn(4)
    inst_rng = np.random.default_rng(ss[0])
    if cfg.distribution == "rect_grid":
        d = _cfg(cfg, "rect_d", 2)
        k = _cfg(cfg, "rect_k", 2)
        side = _cfg(cfg, "rect_side", 100 if d == 2 else 22)
        union = _random_union(inst_rng, d, k)
        xs = _grid_points(d, side)
        f = union(xs)
        if _cfg(cfg, "noise_profile", "rcn") == "rcn":
            eta = np.full(len(xs), cfg.eta)
        else:
            eta = cfg.eta * inst_rng.random(len(xs))
        p = np.full(len(xs), 1.0 / len(xs))
        dist = FiniteMassartDist(xs, p, f, eta, cfg.eta, _validated=True)
        return dist, union, ss
    if cfg.distribution == "hard":
        n, rho = _cfg(cfg, "hard_n", 64), _cfg(cfg, "hard_rho", 1e-4)
        support = _cfg(cfg, "hard_support", 100_000)
        try:  # an out-of-range rho or support is a config error, not a seed failure
            spec = HardDistSpec(n=n, eta=cfg.eta, alpha=cfg.alpha, rho=rho, seed=int(seed))
            dist = hard_distribution(spec, support)
        except ValueError as exc:
            raise ConfigParse(f"hard instance: {exc}") from None
        concept = lambda xs: dist.f[np.clip(np.atleast_2d(xs)[:, 0].astype(int), 0, dist.n_atoms - 1)]
        return dist, concept, ss
    if cfg.distribution.startswith("file:"):
        dist = load_dist(cfg.distribution[5:])
        return dist, None, ss
    raise ConfigParse(f"unknown distribution {cfg.distribution!r}")


def build_weak_learner(cfg: RunConfig, concept, dist: FiniteMassartDist):
    if cfg.weak_learner == "box":
        return BoxWeakLearner(
            d=_cfg(cfg, "rect_d", dist.dim),
            k=_cfg(cfg, "rect_k", 2),
            alpha=cfg.alpha,
            c_const=_cfg(cfg, "box_c", 2.0),
            sample_scale=_cfg(cfg, "box_scale", cfg.sample_scale),
        )
    if cfg.weak_learner == "rude":
        state = RudeState(
            m=_cfg(cfg, "rude_m", 32),
            T=_cfg(cfg, "rude_t", 2000),
            gamma=cfg.gamma,
            scale=_cfg(cfg, "rude_scale", 1e-3),
            survivor_cap=_cfg(cfg, "rude_survivor_cap", 16),
        )
        return RudeWeakLearner(state)
    if cfg.weak_learner == "concept":
        if concept is None:
            raise UnknownWeakLearner("the 'concept' learner needs a generated concept")
        return FixedHypothesisWeakLearner(concept, alpha=cfg.alpha, gamma=cfg.gamma)
    raise UnknownWeakLearner(f"unknown weak learner {cfg.weak_learner!r}")


# -- running -------------------------------------------------------------------


@dataclass
class SeedResult:
    seed: int
    ok: bool
    error: str
    lerr: float
    ferr: float
    rounds: int
    total_draws: int
    overconfident_rounds: int
    max_noise_rate: Optional[float]
    trace: RunTrace
    aggregated: AggregatedHypothesis


@dataclass
class RunReport:
    config: RunConfig
    results: List[SeedResult]
    success_fraction: float
    mean_lerr: Optional[float]
    round_percentiles: Dict[str, float]
    t_bound_simple: float
    t_bound_log: float
    total_draws: int

    def to_json_dict(self) -> dict:
        per_seed = [
            {
                "seed": r.seed,
                "ok": r.ok,
                "error": r.error,
                "lerr": r.lerr,
                "ferr": r.ferr,
                "rounds": r.rounds,
                "total_draws": r.total_draws,
                "overconfident_rounds": r.overconfident_rounds,
                "max_noise_rate": r.max_noise_rate,
                "trace_file": f"round_trace_{r.seed}.csv",
            }
            for r in self.results
        ]
        return {
            "target_lerr": self.config.eta + self.config.epsilon,
            "success_fraction": self.success_fraction,
            "mean_lerr": self.mean_lerr,
            "round_percentiles": self.round_percentiles,
            "round_bound_simple": self.t_bound_simple,
            "round_bound_log": self.t_bound_log,
            "total_draws": self.total_draws,
            "seeds": per_seed,
        }


def _boost_params(cfg: RunConfig) -> BoostParams:
    return compute_params(
        cfg.eta,
        cfg.alpha,
        cfg.gamma,
        cfg.epsilon,
        cfg.delta,
        sample_scale=cfg.sample_scale,
        mode=cfg.mode,
        max_rounds=cfg.max_rounds,
    )


def _run_seed(cfg: RunConfig, seed: int) -> SeedResult:
    dist, concept, ss = build_instance(cfg, seed)
    oracle = MassartOracle(dist, rng_seed=ss[1].generate_state(1)[0])
    wkl = build_weak_learner(cfg, concept, dist)
    params = _boost_params(cfg)
    rng = np.random.default_rng(ss[2])
    error = ""
    try:
        agg, trace = boost(
            oracle, wkl, params, rng, ablate_no_withholding=cfg.ablate_no_withholding
        )
    except BoostFailure as exc:
        error = f"{type(exc).__name__}: {exc}"
        agg, trace = exc.aggregated, exc.trace

    labels = sign_pm1(trace.scores)
    rates = [r.max_noise_rate for r in trace.rows if r.max_noise_rate is not None]
    return SeedResult(
        seed=seed,
        ok=not error,
        error=error,
        lerr=lerr_of_labels(dist, labels),
        ferr=ferr_of_labels(dist, labels),
        rounds=trace.rounds,
        total_draws=oracle.draws,
        overconfident_rounds=sum(1 for r in trace.rows if r.overconfident),
        max_noise_rate=max(rates) if rates else None,
        trace=trace,
        aggregated=agg,
    )


def run_experiment(cfg: RunConfig) -> RunReport:
    """Run every configured seed and aggregate; per-seed failures are recorded, not fatal.

    Invalid boost parameters or MB_THREADS raise ConfigParse before any seed runs.
    """
    try:
        _boost_params(cfg)
    except ValueError as exc:
        raise ConfigParse(f"boost parameters: {exc}") from None
    try:
        workers = max(1, int(os.environ.get("MB_THREADS", "1")))
    except ValueError:
        raise ConfigParse(f"MB_THREADS must be an integer, got {os.environ['MB_THREADS']!r}") from None
    seeds = list(cfg.seeds)
    if workers > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
            results = list(pool.map(lambda s: _run_seed(cfg, s), seeds))
    else:
        results = [_run_seed(cfg, s) for s in seeds]

    target = cfg.eta + cfg.epsilon
    hits = [r for r in results if r.ok and r.lerr <= target]
    success = len(hits) / len(results) if results else 0.0
    mean_lerr = float(np.mean([r.lerr for r in results])) if results else None
    rounds = np.asarray([r.rounds for r in results], dtype=np.float64)
    percentiles = {}
    if len(rounds):
        for q in (50, 90, 100):
            percentiles[f"p{q}"] = float(np.percentile(rounds, q))
    eta_eff = max(cfg.eta, 1e-12)
    report = RunReport(
        config=cfg,
        results=results,
        success_fraction=success,
        mean_lerr=mean_lerr,
        round_percentiles=percentiles,
        t_bound_simple=128.0 / (eta_eff * cfg.gamma**2),
        t_bound_log=math.log(1.0 / eta_eff) ** 2 / cfg.gamma**2,
        total_draws=sum(r.total_draws for r in results),
    )
    return report


def emit_metrics(report: RunReport, path) -> List[Path]:
    """Write summary.json plus one trace CSV per seed; returns written paths."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        summary_path = out_dir / "summary.json"
        with open(summary_path, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(summary_path)
        for r in report.results:
            trace_path = out_dir / f"round_trace_{r.seed}.csv"
            with open(trace_path, "w") as fh:
                fh.write(r.trace.to_csv())
            written.append(trace_path)
        return written
    except OSError as exc:
        raise IoFailure(f"failed writing metrics under {out_dir}: {exc}") from exc
