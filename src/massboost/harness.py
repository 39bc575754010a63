"""Config-driven seeded experiment runner.

A run config is a flat key = value text file naming a distribution source, a
weak learner, and the boosting parameters, plus a seed list. RunConfig is its
schema: one field per key, whose annotation is the key's type and whose
metadata holds its range, its derived default and what reads it;
_check_rules holds the rules that tie keys together. parse_config checks them
all, so a config that parses is one that runs. For each seed the runner
builds a fresh oracle and RNG stream, boosts, evaluates the final hypothesis
exactly on the finite support, and aggregates success statistics. A seed
whose run stops early keeps the rounds it completed and is evaluated on
them. (config, seed) fully determines a run; reruns on the same machine,
numpy build and BLAS thread count write byte-identical outputs.

Outputs: summary.json with aggregate and per-seed fields, and one
round_trace_<seed>.csv per seed in the booster's trace schema.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .adversary import HardDistSpec, RudeWeakLearner, hard_distribution
from .booster import BoostFailure, BoostParams, FixedHypothesisWeakLearner, RunTrace, boost, compute_params
from .core import FiniteMassartDist, MassartOracle, label_errors, load_dist, sign_pm1
from .rectangles import BoxWeakLearner, Rectangle, RectangleUnion

__all__ = [
    "ConfigParse",
    "RunConfig",
    "RunReport",
    "SeedResult",
    "build_instance",
    "emit_metrics",
    "load_config",
    "parse_config",
    "run_experiment",
]


class ConfigParse(ValueError):
    """A config file line or field could not be parsed, or breaks a rule."""


_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}
_POSITIVE = ("> 0", lambda v: v > 0)


def _key(reader: str, default=MISSING, rule=None, derive=None):
    """One config key, read by reader; rule = (text, predicate) is its range, and
    derive(cfg) gives its default when that depends on other keys."""
    return field(default=None if derive else default, metadata={"reader": reader, "rule": rule, "derive": derive})


@dataclass
class RunConfig:
    """A checked run config, one field per key; build it with parse_config or load_config.

    The ranges of the keys read by "boost" are those compute_params checks.
    A file: distribution is loaded once, into instance, and every seed
    boosts on it.
    """

    distribution: str = _key(
        "instance", rule=("rect_grid, hard or file:PATH", lambda v: v in ("rect_grid", "hard") or v.startswith("file:"))
    )
    weak_learner: str = _key("learner", rule=("box, rude or concept", lambda v: v in ("box", "rude", "concept")))
    eta: float = _key("boost")
    alpha: float = _key("boost")
    gamma: float = _key("boost")
    epsilon: float = _key("boost")
    delta: float = _key("boost")
    sample_scale: float = _key("boost", 1.0)
    mode: str = _key("boost", "exact-oracle")
    max_rounds: Optional[int] = _key("boost", None)
    seeds: Tuple[int, ...] = _key(
        "run", (), ("distinct and >= 0", lambda v: len(set(v)) == len(v) and all(s >= 0 for s in v))
    )
    out: Optional[str] = _key("run", None)
    ablate_no_withholding: bool = _key("boost", False)
    rect_d: int = _key("rect_grid", rule=_POSITIVE, derive=lambda c: 2 if c.instance is None else c.instance.dim)
    rect_k: int = _key("rect_grid, box", 2, _POSITIVE)
    rect_side: int = _key("rect_grid", rule=_POSITIVE, derive=lambda c: 100 if c.rect_d == 2 else 22)
    noise_profile: str = _key("rect_grid", "rcn", ("rcn or random", lambda v: v in ("rcn", "random")))
    hard_rho: float = _key("hard", 1e-4, (">= 0", lambda v: v >= 0))
    hard_support: int = _key("hard", 100_000, _POSITIVE)
    box_scale: float = _key("box", rule=_POSITIVE, derive=lambda c: c.sample_scale)
    rude_m: int = _key("rude", 32, _POSITIVE)
    rude_t: int = _key("rude", 2000, _POSITIVE)
    rude_scale: float = _key("rude", 1e-3, _POSITIVE)
    instance: Optional[FiniteMassartDist] = field(default=None, compare=False, repr=False)


_KEYS = {f.name: f for f in fields(RunConfig) if f.metadata}
_TYPES = typing.get_type_hints(RunConfig)


def _parse_seeds(text: str) -> Tuple[int, ...]:
    """Seeds from an inclusive range a..b with a <= b, or a comma/space list; blank is none."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"seed range {text!r} is reversed: {lo} > {hi}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _convert(kind, text: str):
    """A key's value from its text by the key's annotated type; ValueError if it does not parse."""
    if typing.get_origin(kind) is tuple:
        return _parse_seeds(text)
    if typing.get_origin(kind) is typing.Union:  # Optional[X]
        kind = typing.get_args(kind)[0]
    if kind is bool:
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"expected {'/'.join(_BOOLEANS)}, got {text!r}")
        return _BOOLEANS[text.lower()]
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def _boost_params(cfg: RunConfig) -> BoostParams:
    """compute_params of the boost keys; ablate_no_withholding sets s = inf."""
    params = compute_params(
        cfg.eta,
        cfg.alpha,
        cfg.gamma,
        cfg.epsilon,
        cfg.delta,
        sample_scale=cfg.sample_scale,
        mode=cfg.mode,
        max_rounds=cfg.max_rounds,
    )
    return replace(params, s=math.inf) if cfg.ablate_no_withholding else params


def _check_rules(cfg: RunConfig) -> None:
    """The rules between keys; each raises ValueError when it fails."""
    _boost_params(cfg)  # epsilon >= 2c = 8 eta alpha/(1 - 2 alpha), and the boost keys' ranges
    if cfg.distribution == "hard":  # hard_rho < alpha/1000
        HardDistSpec(eta=cfg.eta, alpha=cfg.alpha, rho=cfg.hard_rho, seed=0)
    if cfg.weak_learner == "concept" and cfg.distribution != "rect_grid":
        raise ValueError(f"the 'concept' learner needs distribution = rect_grid, got {cfg.distribution!r}")
    if cfg.instance is not None and cfg.rect_d != cfg.instance.dim:
        raise ValueError(f"rect_d = {cfg.rect_d}, but {cfg.distribution!r} has dimension {cfg.instance.dim}")


def parse_config(text: str, source: str = "<config>", overrides: Mapping[str, str] = {}) -> RunConfig:
    """Parse and check the flat key = value format, with line diagnostics on errors.

    overrides maps keys to values in the file's syntax, such as the command
    line's, and take the place of the file's lines. Unknown keys, values out
    of range and broken rules between keys are all ConfigParse.
    """
    given: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParse(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParse(f"{source}:{lineno}: empty key")
        if key in given:
            raise ConfigParse(f"{source}:{lineno}: duplicate key {key!r}")
        given[key] = value.split("#", 1)[0].strip()
    given.update(overrides)
    unknown = sorted(set(given) - set(_KEYS))
    if unknown:
        raise ConfigParse(f"{source}: unknown keys: {', '.join(unknown)}")
    missing = [k for k, f in _KEYS.items() if f.default is MISSING and k not in given]
    if missing:
        raise ConfigParse(f"{source}: missing required keys: {', '.join(missing)}")
    values = {}
    for key, value in given.items():
        try:
            values[key] = _convert(_TYPES[key], value)
        except ValueError as exc:
            raise ConfigParse(f"{source}: field {key!r}: {exc}") from None
    cfg = RunConfig(**values)
    if cfg.distribution.startswith("file:"):
        try:  # a missing or malformed file is a config error, not a seed failure
            cfg.instance = load_dist(cfg.distribution[5:])
        except (OSError, ValueError) as exc:
            raise ConfigParse(f"{source}: distribution {cfg.distribution!r}: {exc}") from None
    for key, f in _KEYS.items():
        rule, derive = f.metadata["rule"], f.metadata["derive"]
        if derive and key not in given:
            setattr(cfg, key, derive(cfg))
        elif rule and not rule[1](getattr(cfg, key)):
            raise ConfigParse(f"{source}: field {key!r}: must be {rule[0]}, got {given.get(key)!r}")
    try:
        _check_rules(cfg)
    except ValueError as exc:
        raise ConfigParse(f"{source}: {exc}") from None
    return cfg


def load_config(path, overrides: Mapping[str, str] = {}) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path), overrides=overrides)


# -- per-seed instance construction --------------------------------------------


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
    """One seed's (dist, rect_grid's union or None, SeedSequences of the instance, the oracle and boost()'s rng)."""
    ss = np.random.SeedSequence(entropy=[int(seed), 0x6D62]).spawn(3)
    inst_rng = np.random.default_rng(ss[0])
    if cfg.distribution == "rect_grid":
        union = _random_union(inst_rng, cfg.rect_d, cfg.rect_k)
        xs = _grid_points(cfg.rect_d, cfg.rect_side)
        f = union(xs)
        if cfg.noise_profile == "rcn":
            eta = np.full(len(xs), cfg.eta)
        else:
            eta = cfg.eta * inst_rng.random(len(xs))
        p = np.full(len(xs), 1.0 / len(xs))
        dist = FiniteMassartDist(xs, p, f, eta, cfg.eta)
        return dist, union, ss
    if cfg.distribution == "hard":
        spec = HardDistSpec(eta=cfg.eta, alpha=cfg.alpha, rho=cfg.hard_rho, seed=int(seed))
        return hard_distribution(spec, cfg.hard_support), None, ss
    return cfg.instance, None, ss  # file:, loaded by parse_config


def build_weak_learner(cfg: RunConfig, concept, dist: FiniteMassartDist):
    if cfg.weak_learner == "box":
        return BoxWeakLearner(d=dist.dim, k=cfg.rect_k, alpha=cfg.alpha, sample_scale=cfg.box_scale)
    if cfg.weak_learner == "rude":
        return RudeWeakLearner(m=cfg.rude_m, T=cfg.rude_t, gamma=cfg.gamma, scale=cfg.rude_scale)
    return FixedHypothesisWeakLearner(concept, gamma=cfg.gamma)


# -- running -------------------------------------------------------------------


@dataclass
class SeedResult:
    """One seed's outcome; every field but trace is a key of its summary.json record.

    total_draws is the trace's: every oracle draw, including those of a
    round that failed, so it can exceed the sum of the trace's raw_draws.
    trace keeps the rows and total_draws but not the per-atom scores
    (scores is None): lerr and ferr are read off them before the record is
    made, so a batch holds no seed's per-atom row past its own run.
    """

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


@dataclass
class RunReport:
    """A run's outcome; every field but results is a key of summary.json."""

    results: List[SeedResult]
    target_lerr: float
    success_fraction: float
    mean_lerr: Optional[float]
    round_percentiles: Dict[str, float]
    round_bound_simple: float
    round_bound_log: float
    total_draws: int

    def to_json_dict(self) -> dict:
        """summary.json: the report's keys, and under seeds each seed's keys and the name of its trace CSV."""

        def keys(obj, skip) -> dict:
            return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}

        seeds = [dict(keys(r, ("trace",)), trace_file=f"round_trace_{r.seed}.csv") for r in self.results]
        return dict(keys(self, ("results",)), seeds=seeds)


def _run_seed(cfg: RunConfig, seed: int) -> SeedResult:
    dist, concept, ss = build_instance(cfg, seed)
    oracle = MassartOracle(dist, rng_seed=ss[1].generate_state(1)[0])
    wkl = build_weak_learner(cfg, concept, dist)
    params = _boost_params(cfg)
    rng = np.random.default_rng(ss[2])
    error = ""
    try:
        _, trace = boost(oracle, wkl, params, rng)
    except BoostFailure as exc:
        error = f"{type(exc).__name__}: {exc}"
        trace = exc.trace

    lerr, ferr = label_errors(dist.p, dist.eta, sign_pm1(trace.scores) != dist.f)
    rates = [r.max_noise_rate for r in trace.rows if r.max_noise_rate is not None]
    return SeedResult(
        seed=seed,
        ok=not error,
        error=error,
        lerr=lerr,
        ferr=ferr,
        rounds=trace.rounds,
        total_draws=trace.total_draws,
        overconfident_rounds=sum(1 for r in trace.rows if r.overconfident),
        max_noise_rate=max(rates) if rates else None,
        trace=replace(trace, scores=None),
    )


def run_experiment(cfg: RunConfig) -> RunReport:
    """Run every configured seed in turn and aggregate; per-seed failures are recorded, not fatal."""
    results = [_run_seed(cfg, s) for s in cfg.seeds]

    target = cfg.eta + cfg.epsilon
    hits = [r for r in results if r.ok and r.lerr <= target]
    success = len(hits) / len(results) if results else 0.0
    mean_lerr = float(np.mean([r.lerr for r in results])) if results else None
    rounds = np.asarray([r.rounds for r in results], dtype=np.float64)
    percentiles = {}
    if len(rounds):
        for q in (50, 90, 100):
            percentiles[f"p{q}"] = float(np.percentile(rounds, q))
    return RunReport(
        results=results,
        target_lerr=target,
        success_fraction=success,
        mean_lerr=mean_lerr,
        round_percentiles=percentiles,
        round_bound_simple=128.0 / (cfg.eta * cfg.gamma**2),
        round_bound_log=math.log(1.0 / cfg.eta) ** 2 / cfg.gamma**2,
        total_draws=sum(r.total_draws for r in results),
    )


def emit_metrics(report: RunReport, path) -> List[Path]:
    """Write summary.json plus one trace CSV per seed; returns written paths. A failed write raises OSError."""
    out_dir = Path(path)
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
