"""Planner modes: cost-based selection vs pinned operator sets.

The planner/executor decomposition claims three things worth pricing:

* ``planner="auto"`` never loses (much) to the best pinned strategy —
  per ``(n, m, d)`` cell the auto arm is compared against
  ``always-kernel`` (the ``planner="kernel"`` pin, the default dispatch
  without the cost model) and ``always-naive`` (the ``planner="index"``
  pin: every surface runs the per-customer index-loop operators);
* plans are *reused* — the plan cache should absorb every repeated
  shape in a workload (hit rate near 1 after the first query of each
  shape);
* the cost model is *sane* — estimated vs. span-measured operator cost
  from EXPLAIN should agree within a couple of orders of magnitude
  (it ranks operators, it does not predict wall clock).

Every per-query answer (RSL positions, membership masks, safe-region
boxes, MWQ case + cost) is asserted bit-identical across the three
arms, so the timings price provably equal work.

Entry points::

    PYTHONPATH=src python benchmarks/bench_planner.py            # full grid
    PYTHONPATH=src python benchmarks/bench_planner.py --smoke    # CI, tiny
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import WhyNotConfig
from repro.core.batch import answer_why_not_batch
from repro.core.engine import WhyNotEngine
from repro.geometry.box import Box

BENCH_SEED = 7

FULL_GRID = [(500, 500, 2), (2_000, 2_000, 2), (4_000, 4_000, 2), (1_000, 1_000, 3)]
SMOKE_GRID = [(250, 250, 2)]

ARMS = {
    "auto": dict(planner="auto"),
    "always-kernel": dict(planner="kernel"),
    "always-naive": dict(planner="index"),
}


def _engine(points: np.ndarray, customers, **config_kwargs) -> WhyNotEngine:
    d = points.shape[1]
    return WhyNotEngine(
        points,
        customers=customers,
        backend="scan",
        config=WhyNotConfig(**config_kwargs),
        bounds=Box(np.zeros(d), np.ones(d)),
    )


def _workload(engine: WhyNotEngine, probes: np.ndarray):
    """One pass over every surface; returns the comparison payload."""
    out = []
    m = engine.customers.shape[0]
    everyone = list(range(m))
    batch_targets = list(range(min(4, m)))
    for q in probes:
        rsl = engine.reverse_skyline(q)
        mask = engine.membership_mask(everyone, q)
        sr = engine.safe_region(q)
        mwq = engine.modify_both(1, q)
        answers = answer_why_not_batch(engine, batch_targets, q)
        out.append(
            (
                rsl.tolist(),
                mask.tolist(),
                sr.region.lo.tolist(),
                sr.region.hi.tolist(),
                mwq.case.name,
                mwq.cost,
                [a.mwq.cost for a in answers],
            )
        )
    return out


def _estimation_error(engine: WhyNotEngine, q: np.ndarray) -> dict:
    """Median/worst |log10(est/actual)| over executed EXPLAIN nodes."""
    ratios = []
    target = 1
    calls = [
        ("reverse_skyline", (q,), {}),
        ("membership", (list(range(min(8, engine.customers.shape[0]))), q), {}),
        ("safe_region", (q,), {}),
        ("mwq", (target, q), {}),
    ]
    for surface, args, kwargs in calls:
        report = engine.explain_plan(surface, *args, **kwargs).validate()
        for node in report.executed_nodes():
            if node.actual_seconds and node.estimate.seconds > 0:
                ratios.append(
                    abs(math.log10(node.estimate.seconds / node.actual_seconds))
                )
    ratios.sort()
    return {
        "nodes": len(ratios),
        "median_abs_log10": round(ratios[len(ratios) // 2], 3) if ratios else None,
        "worst_abs_log10": round(ratios[-1], 3) if ratios else None,
    }


def warmup() -> None:
    """One untimed tiny-cell pass per arm so the first timed cell does
    not charge process warmup (allocator, code paths) to whichever arm
    happens to run first."""
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(120, 2))
    probes = rng.uniform(0.25, 0.75, size=(1, 2))
    for kwargs in ARMS.values():
        _workload(_engine(points, None, **kwargs), probes)


def run_cell(n: int, m: int, d: int, probe_count: int) -> dict:
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(n, d))
    customers = None if m == n else rng.uniform(0.0, 1.0, size=(m, d))
    probes = np.random.default_rng(BENCH_SEED + 1).uniform(
        0.25, 0.75, size=(probe_count, d)
    )

    payloads = {}
    row: dict = {"n": n, "m": m, "d": d, "probes": probe_count}
    auto_engine = None
    for arm, kwargs in ARMS.items():
        engine = _engine(points, customers, **kwargs)
        t0 = time.perf_counter()
        cold = _workload(engine, probes)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = _workload(engine, probes)
        warm_s = time.perf_counter() - t0
        assert cold == warm, f"{arm}: warm pass diverged from cold pass"
        payloads[arm] = cold
        row[f"{arm}_cold_s"] = round(cold_s, 6)
        row[f"{arm}_warm_s"] = round(warm_s, 6)
        if arm == "auto":
            auto_engine = engine
    baseline = payloads["auto"]
    for arm, payload in payloads.items():
        assert payload == baseline, f"arm {arm} diverged from auto answers"
    row["divergence_check"] = (
        "exact (RSL + masks + SR boxes + MWQ case/cost + batch costs) per arm"
    )

    cache = auto_engine.plan_cache
    considered = int(cache.considered.value)
    hits = int(cache.hits.value)
    misses = int(cache.misses.value)
    assert considered == hits + misses, (considered, hits, misses)
    row["plan_cache"] = {
        "considered": considered,
        "hits": hits,
        "misses": misses,
        "hit_rate": round(hits / considered, 4) if considered else None,
        "entries": len(cache),
    }
    row["cost_estimation"] = _estimation_error(auto_engine, probes[0])
    best_pinned = min(row["always-kernel_cold_s"], row["always-naive_cold_s"])
    row["auto_vs_best_pinned"] = round(row["auto_cold_s"] / best_pinned, 3)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--grid",
        type=int,
        nargs=3,
        action="append",
        metavar=("N", "M", "D"),
        default=None,
        help="add an (n, m, d) cell; repeatable (default: built-in grid)",
    )
    parser.add_argument("--probes", type=int, default=3)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny grid, assertions only"
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    grid = (
        [tuple(cell) for cell in args.grid]
        if args.grid
        else (SMOKE_GRID if args.smoke else FULL_GRID)
    )
    warmup()
    rows = []
    for n, m, d in grid:
        row = run_cell(n, m, d, args.probes)
        rows.append(row)
        cache = row["plan_cache"]
        print(
            f"n={n} m={m} d={d}: auto {row['auto_cold_s']:.3f}s, "
            f"kernel {row['always-kernel_cold_s']:.3f}s, "
            f"naive {row['always-naive_cold_s']:.3f}s "
            f"(auto/best-pinned {row['auto_vs_best_pinned']}x); "
            f"plan-cache hit rate {cache['hit_rate']}, "
            f"cost err median 10^{row['cost_estimation']['median_abs_log10']}"
        )
        if not args.smoke:
            # Auto must track the better pinned strategy: planning is
            # cheap, so losing badly means the cost model mis-ranked.
            assert row["auto_vs_best_pinned"] <= 1.5, row
            assert cache["hit_rate"] >= 0.5, row

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_environment, write_record

    payload = {
        "benchmark": "planner modes: cost-based auto vs pinned operator sets",
        "methodology": "see EXPERIMENTS.md, section 'Planner'",
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "env": bench_environment(),
        "arms": {name: dict(kwargs) for name, kwargs in ARMS.items()},
        "results": rows,
    }
    write_record(payload, args.out, args.smoke, "BENCH_planner.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
