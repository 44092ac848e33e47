"""Observability pricing: the per-query journal.

The journal (``journal=True``) takes two counter snapshots and appends
one ring record per executed plan.  It must stay invisible on the
serving path:

* ``journal A/B`` — the same warm safe-region workload (every cache
  layer warmed before timing) on two traced engines, journal off vs
  journal on, interleaved best-of-3 with an off/off repeat pair whose
  spread is the noise floor.  The documented bound: the journal adds
  <2% to the warm workload.

Entry points::

    PYTHONPATH=src python benchmarks/bench_obs.py            # full, 4k
    PYTHONPATH=src python benchmarks/bench_obs.py --smoke    # CI, 400
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.geometry.box import Box

BENCH_SEED = 7


def _dataset(n: int, d: int, seed: int = BENCH_SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, d))


def _probes(d: int, count: int, seed: int = BENCH_SEED + 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.25, 0.75, size=(count, d))


def _engine(points: np.ndarray, config: WhyNotConfig) -> WhyNotEngine:
    d = points.shape[1]
    return WhyNotEngine(
        points, backend="scan", config=config, bounds=Box(np.zeros(d), np.ones(d))
    )


def _warm_workload(
    engine: WhyNotEngine, warmers: np.ndarray, probes: np.ndarray
) -> float:
    """Warm the engine (index, tile summaries, plan cache, DSL cache)
    on the warm-up probes, then time fresh safe-region + reverse-skyline
    queries — real per-query work on warm structures, the serving shape
    the journal must not tax."""
    for q in warmers:
        engine.reverse_skyline(q)
        engine.safe_region(q)
    t0 = time.perf_counter()
    for q in probes:
        engine.reverse_skyline(q)
        engine.safe_region(q)
    return time.perf_counter() - t0


def run_journal_ab(n: int, d: int, probe_count: int, rounds: int) -> dict:
    """Warm-workload cost of journal recording.

    Both arms trace (the journal rides on the traced registry); the
    only difference is ``journal=True``.  Interleaved best-of-3; the
    off/off spread is the noise floor.
    """
    points = _dataset(n, d)
    warmers = _probes(d, probe_count)
    probes = _probes(d, probe_count * rounds, seed=BENCH_SEED + 2)
    off, off2, on = [], [], []
    journaled_records = 0
    for _ in range(3):
        engine = _engine(points, WhyNotConfig(trace=True))
        off.append(_warm_workload(engine, warmers, probes))
        engine = _engine(
            points,
            WhyNotConfig(trace=True, journal=True, journal_capacity=4096),
        )
        on.append(_warm_workload(engine, warmers, probes))
        journaled_records = len(engine.journal)
        engine = _engine(points, WhyNotConfig(trace=True))
        off2.append(_warm_workload(engine, warmers, probes))
    disabled_s, disabled2_s, enabled_s = min(off), min(off2), min(on)
    base = min(disabled_s, disabled2_s)
    return {
        "n": n,
        "d": d,
        "probes": probe_count,
        "rounds": rounds,
        "journal_records": journaled_records,
        "journal_off_s": round(disabled_s, 6),
        "journal_off_repeat_s": round(disabled2_s, 6),
        "journal_on_s": round(enabled_s, 6),
        "off_ab_noise_pct": round(
            100.0 * abs(disabled_s - disabled2_s) / base, 2
        ),
        "journal_overhead_pct": round(100.0 * (enabled_s - base) / base, 2),
        "bound": "the journal must add <2% to the warm safe-region workload",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=4_000)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--probes", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny size, no overhead gates",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.size = min(args.size, 400)
        args.rounds = min(args.rounds, 5)

    journal = run_journal_ab(args.size, args.dim, args.probes, args.rounds)
    print(
        f"journal A/B n={journal['n']} d={journal['d']} "
        f"({journal['rounds']} warm rounds x {journal['probes']} probes, "
        f"{journal['journal_records']} records): "
        f"off {journal['journal_off_s']:.4f}s vs on "
        f"{journal['journal_on_s']:.4f}s "
        f"(+{journal['journal_overhead_pct']}%), off/off noise "
        f"{journal['off_ab_noise_pct']}%"
    )
    if not args.smoke:
        assert journal["journal_overhead_pct"] < 2.0, journal
        assert journal["off_ab_noise_pct"] < 2.0, journal

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_environment, write_record

    payload = {
        "benchmark": "observability: per-query journal overhead",
        "methodology": "see EXPERIMENTS.md, section 'Observability overhead'",
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "env": bench_environment(),
        "journal_ab": journal,
    }
    write_record(payload, args.out, args.smoke, "BENCH_obs.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
