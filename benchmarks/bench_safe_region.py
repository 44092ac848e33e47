"""Safe-region construction: object-per-box loop vs the array engine
with the DSL cache.

Two entry points:

* ``pytest benchmarks/bench_safe_region.py --benchmark-only`` —
  pytest-benchmark timings on scaled-down sizes;
* ``PYTHONPATH=src python benchmarks/bench_safe_region.py --sizes 2000 10000``
  — standalone runner writing the ``BENCH_safe_region.json`` artifact
  (methodology in EXPERIMENTS.md, section 'Safe-region engine sweep').
  CI smokes the standalone runner on a tiny size: every row is guarded
  by *exact* equality assertions (identical boxes, bit-identical area,
  identical containment verdicts) between the array engine and the
  pure-Python oracle, so any divergence fails the build.

Three measurements per size:

* ``oracle_s`` — ``compute_safe_region_oracle``: the pre-refactor
  object-per-box algebra (nested-loop intersect, O(k²) simplify,
  recursive measure), recomputing every DSL.  This is the "before".
* ``array_cold_s`` — the array engine with no cache: what a fresh engine
  pays on its very first construction.
* ``array_warm_s`` — the array engine reading member staircase regions
  through a warmed :class:`DSLCache`: what every construction after the
  first pays (the production steady state — the cache persists on the
  engine across ``safe_region`` / ``modify_both`` / batch calls).

plus a *workload* row — ``--workload`` jittered queries served
sequentially, old path (oracle, no cache) vs new path (array engine, one
persistent cache) — the end-to-end number, with the measured DSL-cache
hit rate.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.dsl_cache import DSLCache
from repro.core.safe_region import (
    SafeRegionStats,
    compute_safe_region,
    compute_safe_region_oracle,
)
from repro.geometry.box import Box
from repro.index.scan import ScanIndex
from repro.kernels.membership import batch_window_membership
from repro.skyline.reverse import reverse_skyline_naive

BENCH_SEED = 7


def _dataset(n: int, d: int, seed: int = BENCH_SEED):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    q = rng.uniform(0.25, 0.75, size=d)
    return pts, q


def _bounds(d: int) -> Box:
    return Box(np.zeros(d), np.ones(d))


def _kernel_rsl(
    products: np.ndarray, customers: np.ndarray, q, self_exclude: bool
) -> np.ndarray:
    """``RSL(q)`` positions through one blocked membership-kernel pass
    (same members as :func:`reverse_skyline_naive`, far faster)."""
    mask = batch_window_membership(
        products,
        customers,
        q,
        self_positions=(
            np.arange(customers.shape[0], dtype=np.int64)
            if self_exclude
            else None
        ),
    )
    return np.flatnonzero(mask).astype(np.int64)


def _time(fn, *args, repeats: int = 3, **kwargs) -> tuple[float, object]:
    """Best-of-``repeats`` wall time and the (last) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _assert_identical(fast, slow, d: int, context: str) -> None:
    """Array engine vs oracle: same boxes, bit-identical area, identical
    containment verdicts.  Exact — no tolerance."""
    fast_boxes = [(b.lo.tolist(), b.hi.tolist()) for b in fast.region.boxes]
    slow_boxes = [(b.lo.tolist(), b.hi.tolist()) for b in slow.region.boxes]
    assert fast_boxes == slow_boxes, f"{context}: box lists diverge"
    assert fast.area() == slow.area(), (
        f"{context}: area diverges {fast.area()!r} != {slow.area()!r}"
    )
    probes = np.random.default_rng(BENCH_SEED + 1).uniform(0, 1, size=(200, d))
    for p in probes:
        assert fast.contains(p) == slow.contains(p), (
            f"{context}: containment diverges at {p}"
        )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (scaled-down; the standalone runner
# below covers the paper-scale sweep).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[2000])
def sr_data(request):
    pts, q = _dataset(request.param, 2)
    idx = ScanIndex(pts)
    rsl = reverse_skyline_naive(idx, pts, q, self_exclude=True)
    return idx, pts, q, rsl


def test_safe_region_oracle_loop(benchmark, sr_data):
    idx, pts, q, rsl = sr_data
    result = benchmark(
        compute_safe_region_oracle, idx, pts, q, rsl, _bounds(2),
        self_exclude=True,
    )
    benchmark.extra_info["rsl_size"] = int(rsl.size)
    benchmark.extra_info["boxes"] = len(result.region)


def test_safe_region_array_cold(benchmark, sr_data):
    idx, pts, q, rsl = sr_data
    result = benchmark(
        compute_safe_region, idx, pts, q, rsl, _bounds(2), self_exclude=True
    )
    benchmark.extra_info["boxes"] = len(result.region)


def test_safe_region_array_warm(benchmark, sr_data):
    idx, pts, q, rsl = sr_data
    cache = DSLCache(idx, pts, self_exclude=True)
    compute_safe_region(
        idx, pts, q, rsl, _bounds(2), self_exclude=True, dsl_cache=cache
    )
    result = benchmark(
        compute_safe_region, idx, pts, q, rsl, _bounds(2),
        self_exclude=True, dsl_cache=cache,
    )
    benchmark.extra_info["cache_hit_rate"] = round(cache.stats.hit_rate, 3)
    benchmark.extra_info["boxes"] = len(result.region)


def test_safe_region_paths_agree(sr_data):
    idx, pts, q, rsl = sr_data
    fast = compute_safe_region(idx, pts, q, rsl, _bounds(2), self_exclude=True)
    slow = compute_safe_region_oracle(
        idx, pts, q, rsl, _bounds(2), self_exclude=True
    )
    _assert_identical(fast, slow, 2, "pytest-agree")


# ----------------------------------------------------------------------
# Standalone runner -> BENCH_safe_region.json
# ----------------------------------------------------------------------
def run_size(n: int, d: int, repeats: int, oracle_repeats: int) -> dict:
    pts, q = _dataset(n, d)
    idx = ScanIndex(pts)
    bounds = _bounds(d)
    rsl = _kernel_rsl(pts, pts, q, self_exclude=True)

    oracle_s, oracle_sr = _time(
        compute_safe_region_oracle, idx, pts, q, rsl, bounds,
        self_exclude=True, repeats=oracle_repeats,
    )
    cold_s, cold_sr = _time(
        compute_safe_region, idx, pts, q, rsl, bounds,
        self_exclude=True, repeats=repeats,
    )
    cache = DSLCache(idx, pts, self_exclude=True)
    compute_safe_region(
        idx, pts, q, rsl, bounds, self_exclude=True, dsl_cache=cache
    )  # warm-up fill
    warm_stats = SafeRegionStats()
    warm_s, warm_sr = _time(
        compute_safe_region, idx, pts, q, rsl, bounds,
        self_exclude=True, dsl_cache=cache, stats=warm_stats,
        repeats=repeats,
    )
    _assert_identical(cold_sr, oracle_sr, d, f"n={n} cold")
    _assert_identical(warm_sr, oracle_sr, d, f"n={n} warm")
    return {
        "n": n,
        "m": n,
        "d": d,
        "rsl_size": int(rsl.size),
        "boxes": len(oracle_sr.region),
        "area": oracle_sr.area(),
        "oracle_s": round(oracle_s, 6),
        "array_cold_s": round(cold_s, 6),
        "array_warm_s": round(warm_s, 6),
        "speedup_cold": round(oracle_s / cold_s, 2),
        "speedup_warm": round(oracle_s / warm_s, 2),
        "warm_cache_hit_rate": round(warm_stats.cache_hit_rate, 4),
    }


def run_workload(n: int, d: int, queries: int) -> dict:
    """Serve ``queries`` jittered queries end to end: oracle per call
    (the old engine recomputed everything per call) vs array engine with
    one persistent DSL cache (the new engine's steady state)."""
    pts, q = _dataset(n, d)
    idx = ScanIndex(pts)
    bounds = _bounds(d)
    rng = np.random.default_rng(BENCH_SEED + 2)
    jitter = rng.uniform(-1e-9, 1e-9, size=(queries, d))
    workload = np.clip(q[None, :] + jitter, 0.0, 1.0)
    rsls = [
        _kernel_rsl(pts, pts, wq, self_exclude=True)
        for wq in workload
    ]

    t0 = time.perf_counter()
    old_results = [
        compute_safe_region_oracle(
            idx, pts, wq, rsl, bounds, self_exclude=True
        )
        for wq, rsl in zip(workload, rsls)
    ]
    old_total = time.perf_counter() - t0

    cache = DSLCache(idx, pts, self_exclude=True)
    t0 = time.perf_counter()
    new_results = [
        compute_safe_region(
            idx, pts, wq, rsl, bounds, self_exclude=True, dsl_cache=cache
        )
        for wq, rsl in zip(workload, rsls)
    ]
    new_total = time.perf_counter() - t0

    for i, (old, new) in enumerate(zip(old_results, new_results)):
        _assert_identical(new, old, d, f"workload n={n} query {i}")
    return {
        "n": n,
        "m": n,
        "d": d,
        "queries": queries,
        "rsl_size": int(rsls[0].size),
        "oracle_total_s": round(old_total, 6),
        "array_total_s": round(new_total, 6),
        "workload_speedup": round(old_total / new_total, 2),
        "cache_hit_rate": round(cache.stats.hit_rate, 4),
    }


def run_rsl_sweep(n: int, d: int, member_counts: list[int], repeats: int) -> list[dict]:
    """Stress the region *algebra* at controlled |RSL|: intersect the
    anti-dominance regions of ``k`` random customers (Algorithm 3 accepts
    any member set; the geometry workload is identical to a real RSL of
    that size, which uniform data rarely produces beyond ~15 members)."""
    pts, q = _dataset(n, d)
    idx = ScanIndex(pts)
    bounds = _bounds(d)
    rng = np.random.default_rng(BENCH_SEED + 3)
    rows = []
    for k in member_counts:
        members = np.sort(
            rng.choice(n, size=min(k, n), replace=False)
        ).astype(np.int64)
        oracle_s, oracle_sr = _time(
            compute_safe_region_oracle, idx, pts, q, members, bounds,
            self_exclude=True, repeats=1,
        )
        cache = DSLCache(idx, pts, self_exclude=True)
        compute_safe_region(
            idx, pts, q, members, bounds, self_exclude=True, dsl_cache=cache
        )
        warm_s, warm_sr = _time(
            compute_safe_region, idx, pts, q, members, bounds,
            self_exclude=True, dsl_cache=cache, repeats=repeats,
        )
        _assert_identical(warm_sr, oracle_sr, d, f"rsl_sweep k={k}")
        rows.append(
            {
                "n": n,
                "d": d,
                "rsl_size": int(members.size),
                "boxes": len(oracle_sr.region),
                "oracle_s": round(oracle_s, 6),
                "array_warm_s": round(warm_s, 6),
                "speedup_warm": round(oracle_s / warm_s, 2),
            }
        )
    return rows


def run_m_sweep(n: int, d: int, m_values: list[int], repeats: int) -> list[dict]:
    """Bichromatic m sweep: fixed product set, varying customer count."""
    pts, q = _dataset(n, d)
    idx = ScanIndex(pts)
    bounds = _bounds(d)
    rng = np.random.default_rng(BENCH_SEED + 4)
    rows = []
    for m in m_values:
        customers = rng.uniform(0.0, 1.0, size=(m, d))
        rsl = _kernel_rsl(pts, customers, q, self_exclude=False)
        oracle_s, oracle_sr = _time(
            compute_safe_region_oracle, idx, customers, q, rsl, bounds,
            repeats=1,
        )
        cache = DSLCache(idx, customers)
        compute_safe_region(
            idx, customers, q, rsl, bounds, dsl_cache=cache
        )
        warm_s, warm_sr = _time(
            compute_safe_region, idx, customers, q, rsl, bounds,
            dsl_cache=cache, repeats=repeats,
        )
        _assert_identical(warm_sr, oracle_sr, d, f"m_sweep m={m}")
        rows.append(
            {
                "n": n,
                "m": m,
                "d": d,
                "rsl_size": int(rsl.size),
                "oracle_s": round(oracle_s, 6),
                "array_warm_s": round(warm_s, 6),
                "speedup_warm": round(oracle_s / warm_s, 2),
            }
        )
    return rows


def instrumented_pass(n: int, d: int) -> dict:
    """One fully instrumented construction at the given size, run
    *outside* the timed loops: region-algebra counters (via
    ``observe_region_ops``), the per-construction :class:`SafeRegionStats`,
    and the DSL-cache hit/miss ledger for a cold-then-warm pair.  Gives
    the artifact a work-done fingerprint next to the wall times."""
    from repro.geometry.region_array import observe_region_ops
    from repro.obs import MetricsRegistry

    pts, q = _dataset(n, d)
    idx = ScanIndex(pts)
    bounds = _bounds(d)
    rsl = _kernel_rsl(pts, pts, q, self_exclude=True)
    registry = MetricsRegistry()
    cache = DSLCache(idx, pts, self_exclude=True)
    stats = SafeRegionStats()
    with observe_region_ops(registry):
        compute_safe_region(
            idx, pts, q, rsl, bounds, self_exclude=True,
            dsl_cache=cache, stats=stats,
        )  # cold
        warm_stats = SafeRegionStats()
        compute_safe_region(
            idx, pts, q, rsl, bounds, self_exclude=True,
            dsl_cache=cache, stats=warm_stats,
        )  # warm
    return {
        "n": n,
        "m": n,
        "d": d,
        "rsl_size": int(rsl.size),
        "region_counters": registry.snapshot(),
        "cold_stats": stats.snapshot(),
        "warm_stats": warm_stats.snapshot(),
        "dsl_cache": cache.stats.snapshot(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[2000, 4000, 10000]
    )
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--oracle-repeats", type=int, default=1,
        help="repeats for the slow oracle path (best-of)",
    )
    parser.add_argument(
        "--workload", type=int, default=24,
        help="jittered queries in the end-to-end workload row",
    )
    parser.add_argument(
        "--rsl-sweep", type=int, nargs="*", default=[4, 8, 16, 32],
        help="member counts for the |RSL| algebra sweep (largest size)",
    )
    parser.add_argument(
        "--m-sweep", type=int, nargs="*", default=[1000, 4000],
        help="customer counts for the bichromatic m sweep (largest size)",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    results = []
    for n in args.sizes:
        row = run_size(n, args.dim, args.repeats, args.oracle_repeats)
        results.append(row)
        print(
            f"n=m={n} d={args.dim} |RSL|={row['rsl_size']}: "
            f"oracle {row['oracle_s']:.4f}s, "
            f"array cold {row['array_cold_s']:.4f}s "
            f"({row['speedup_cold']}x), "
            f"warm {row['array_warm_s']:.4f}s ({row['speedup_warm']}x)"
        )

    workloads = []
    for n in args.sizes:
        row = run_workload(n, args.dim, args.workload)
        workloads.append(row)
        print(
            f"workload n=m={n} ({row['queries']} queries): "
            f"oracle {row['oracle_total_s']:.3f}s, "
            f"array+cache {row['array_total_s']:.3f}s "
            f"({row['workload_speedup']}x, "
            f"hit rate {row['cache_hit_rate']:.2%})"
        )
        if args.workload >= 21:
            # (R-1)/(R+1) >= 0.9 needs R >= 19; leave headroom for the
            # occasional member-set difference between jittered queries.
            assert row["cache_hit_rate"] >= 0.9, row

    biggest = max(args.sizes)
    rsl_rows = run_rsl_sweep(biggest, args.dim, args.rsl_sweep, args.repeats)
    for row in rsl_rows:
        print(
            f"rsl_sweep |RSL|={row['rsl_size']}: oracle {row['oracle_s']:.4f}s, "
            f"array warm {row['array_warm_s']:.4f}s ({row['speedup_warm']}x)"
        )
    m_rows = run_m_sweep(biggest, args.dim, args.m_sweep, args.repeats)
    for row in m_rows:
        print(
            f"m_sweep m={row['m']}: oracle {row['oracle_s']:.4f}s, "
            f"array warm {row['array_warm_s']:.4f}s ({row['speedup_warm']}x)"
        )

    from conftest import bench_environment

    payload = {
        "benchmark": "safe-region construction: object loop vs array engine + DSL cache",
        "methodology": "see EXPERIMENTS.md, section 'Safe-region engine sweep'",
        "seed": BENCH_SEED,
        "divergence_check": "exact (boxes, area, containment) — asserted per row",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "env": bench_environment(),
        "obs": instrumented_pass(biggest, args.dim),
        "results": results,
        "workloads": workloads,
        "rsl_sweep": rsl_rows,
        "m_sweep": m_rows,
    }
    out = args.out or Path(__file__).resolve().parent.parent / "BENCH_safe_region.json"
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
