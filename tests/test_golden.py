"""Golden output fingerprints of small slices of the shipped configs.

Each slice runs two seeds of configs/rect_benchmark.cfg or configs/hard_floor.cfg
with overrides that shrink the instance and the round count, in exact-oracle
and in Monte Carlo mode, and compares the sha256 of every file emit_metrics
writes (summary.json and each round_trace_<seed>.csv) against the digests
below. A further digest, 'records', covers every RoundRecord field of every
seed, including those no output file carries (d_exact_pre, phi_pre,
adv_exact, max_noise_rate, risky_mass). A change that moves any per-round
float, draw count or summary field fails here. Re-record only when outputs
change on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import pytest

from massboost import emit_metrics, load_config, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config, overrides): the rect slice raises gamma and eta (with epsilon =
# 2c) so a seed stops within about a hundred rounds on a 12x12 grid; the
# hard slice raises gamma on a 2000-point support
SLICES = {
    "rect": ("rect_benchmark.cfg", {"rect_side": "12", "gamma": "0.45", "eta": "0.3", "epsilon": "0.3"}),
    "hard": ("hard_floor.cfg", {"hard_support": "2000", "gamma": "0.2"}),
}

GOLDEN = {
    ('rect', 'exact-oracle'): {
        'summary.json': '0795fea1bd9d9a15b6b67a397a3706eb649b1a24b9c9e128c2b7ac3072a5abca',
        'round_trace_0.csv': '5b9e2736c6d04274650be152a1714e61a80317407042beedc2905d378cfbc404',
        'round_trace_1.csv': 'ca22d308f65f1a5327bb2eb5d033a1e7a7fabdd1f660177d2a9146d19b0a2e3e',
        'records': '66f14e852870656886297d759969253c7e8f666e188eb2e1026e3debb8228890',
    },
    ('rect', 'monte-carlo'): {
        'summary.json': '5bd8912405e85ddd9a40425c10796164f69d276d1a3653f48d8f48f6c911364f',
        'round_trace_0.csv': '4accba40652de6be8e84e569f555bbde6df74414daff332b02aa4c5525b1e5ef',
        'round_trace_1.csv': '7bb073254110310ed5287cdc8834d7efa2b6ab30f0ddc63af28bfcbbd64cbb80',
        'records': '57e8c8309783114ab1c7245196500b8658f35c6486ae2bd593c2af3f400c9c82',
    },
    ('hard', 'exact-oracle'): {
        'summary.json': '0bbe8e3b09286203d692bd76c30874ea1d3b19148dfdda3c1bc8b7ba94badc82',
        'round_trace_0.csv': '345b8597ef033676a382a869a3037e2c84e22da8a6af01be8fea07825e080328',
        'round_trace_1.csv': 'b9c6225a915e9b001257158e23b5efac0c0dc69ceaa748fabe98b11bf2144c04',
        'records': '3def4ee8ecaedba74f34a32039f8a2227f41cec20930f128521943db3d3d1872',
    },
    ('hard', 'monte-carlo'): {
        'summary.json': 'f4cb7763ff50001f34788385b0aa519f23aa71327cc8b2d280110edbc789f114',
        'round_trace_0.csv': 'ff68b9c689215bf8710512f3929b10ba07504f673c76af9711089370a1ba67bf',
        'round_trace_1.csv': 'dd194ae819bcedeacd4e08830167a1632d0d9b66124561701f0412fa5a9e7594',
        'records': 'decdda3de5b76ed1c4188d1d20447a6371d5441da2d22db6922f632cf73ab5d4',
    },
}


def record_digest(report) -> str:
    """sha256 of every RoundRecord field of every seed, one line a round, .17g with None empty."""
    h = hashlib.sha256()
    for result in report.results:
        for rec in result.trace.rows:
            cells = ("" if v is None else format(v, ".17g") for v in dataclasses.astuple(rec))
            h.update((",".join(cells) + "\n").encode())
    return h.hexdigest()


def run_slice(name: str, mode: str, out_dir: Path) -> dict:
    cfg_file, overrides = SLICES[name]
    cfg = load_config(CONFIGS / cfg_file, {**overrides, "mode": mode, "seeds": "0..1"})
    report = run_experiment(cfg)
    written = emit_metrics(report, out_dir)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    digests["records"] = record_digest(report)
    return digests


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_golden_fingerprints(name, mode, tmp_path):
    assert run_slice(name, mode, tmp_path) == GOLDEN[(name, mode)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in SLICES:
            for mode in ("exact-oracle", "monte-carlo"):
                digests = run_slice(name, mode, Path(tmp) / f"{name}-{mode}")
                print(f"    ({name!r}, {mode!r}): {{")
                for file, digest in digests.items():
                    print(f"        {file!r}: {digest!r},")
                print("    },")
