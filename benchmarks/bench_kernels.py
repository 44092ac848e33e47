"""Micro-benchmark: per-customer loop vs the blocked batch kernels.

Two entry points:

* ``pytest benchmarks/bench_kernels.py --benchmark-only`` — pytest-benchmark
  timings on the scaled-down suite sizes;
* ``PYTHONPATH=src python benchmarks/bench_kernels.py --sizes 2000 10000``
  — standalone before/after run writing the ``BENCH_kernels.json``
  artifact (methodology in EXPERIMENTS.md).  The standalone runner is
  what CI smokes on a tiny size so the kernel path is always exercised.

Both compare the seed's per-customer reverse-skyline sweep (one window
query per customer through the index) against the vectorized kernels on
the same data, asserting identical output before recording a number.
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

from repro.config import DominancePolicy
from repro.index.scan import ScanIndex
from repro.kernels.membership import (
    DEFAULT_BLOCK_SIZE,
    KernelCounters,
    batch_lambda_counts,
    batch_window_membership,
)
from repro.skyline.global_skyline import global_skyline_candidates
from repro.skyline.reverse import reverse_skyline_bbrs, reverse_skyline_naive

BENCH_SEED = 7


def _dataset(n: int, d: int, seed: int = BENCH_SEED):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    q = rng.uniform(0.25, 0.75, size=d)
    return pts, q


def kernel_naive(
    pts: np.ndarray,
    q: np.ndarray,
    policy: DominancePolicy = DominancePolicy.WEAK,
    block_size: int = DEFAULT_BLOCK_SIZE,
    counters: KernelCounters | None = None,
) -> np.ndarray:
    """Monochromatic ``RSL(q)`` positions: one blocked kernel pass over
    every customer (the kernel twin of :func:`reverse_skyline_naive`)."""
    mask = batch_window_membership(
        pts,
        pts,
        q,
        policy,
        self_positions=np.arange(pts.shape[0], dtype=np.int64),
        block_size=block_size,
        counters=counters,
    )
    return np.flatnonzero(mask).astype(np.int64)


def kernel_bbrs(
    pts: np.ndarray,
    q: np.ndarray,
    policy: DominancePolicy = DominancePolicy.WEAK,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> np.ndarray:
    """Monochromatic ``RSL(q)`` positions: BBRS global-skyline pruning,
    then one blocked kernel pass over the survivors (the kernel twin of
    :func:`reverse_skyline_bbrs`)."""
    cand = np.asarray(
        global_skyline_candidates(pts, pts, q, self_exclude=True),
        dtype=np.int64,
    )
    if cand.size == 0:
        return cand
    mask = batch_window_membership(
        pts, pts[cand], q, policy, self_positions=cand, block_size=block_size
    )
    return cand[mask]


# ----------------------------------------------------------------------
# pytest-benchmark entry points (scaled-down sizes, like the rest of the
# suite; the standalone runner below covers the paper-scale sweep).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=[2000])
def sweep_data(request):
    pts, q = _dataset(request.param, 2)
    return ScanIndex(pts), pts, q


def test_kernel_sweep_naive_loop(benchmark, sweep_data):
    idx, pts, q = sweep_data
    result = benchmark(reverse_skyline_naive, idx, pts, q, self_exclude=True)
    benchmark.extra_info["rsl_size"] = int(result.size)


def test_kernel_sweep_batch(benchmark, sweep_data):
    _idx, pts, q = sweep_data
    result = benchmark(kernel_naive, pts, q)
    benchmark.extra_info["rsl_size"] = int(result.size)


def test_kernel_sweep_bbrs_batch(benchmark, sweep_data):
    _idx, pts, q = sweep_data
    result = benchmark(kernel_bbrs, pts, q)
    benchmark.extra_info["rsl_size"] = int(result.size)


def test_kernel_lambda_counts(benchmark, sweep_data):
    _idx, pts, q = sweep_data
    counts = benchmark(
        batch_lambda_counts,
        pts,
        pts,
        q,
        self_positions=np.arange(pts.shape[0], dtype=np.int64),
    )
    benchmark.extra_info["blocked_customers"] = int((counts > 0).sum())


def test_kernel_paths_agree(sweep_data):
    idx, pts, q = sweep_data
    oracle = reverse_skyline_naive(idx, pts, q, self_exclude=True)
    batch = kernel_naive(pts, q)
    assert np.array_equal(oracle, batch)


# ----------------------------------------------------------------------
# Standalone before/after runner -> BENCH_kernels.json
# ----------------------------------------------------------------------
def _time(fn, *args, repeats: int = 3, **kwargs) -> tuple[float, object]:
    """Best-of-``repeats`` wall time and the (last) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_size(
    n: int,
    d: int,
    policy: DominancePolicy,
    block_size: int,
    loop_repeats: int,
) -> dict:
    pts, q = _dataset(n, d)
    idx = ScanIndex(pts)
    loop_naive, loop_members = _time(
        reverse_skyline_naive,
        idx,
        pts,
        q,
        policy,
        self_exclude=True,
        repeats=loop_repeats,
    )
    kernel_naive_s, kernel_members = _time(
        kernel_naive, pts, q, policy, block_size=block_size
    )
    assert np.array_equal(loop_members, kernel_members), "kernel != oracle"
    loop_bbrs, bbrs_members = _time(
        reverse_skyline_bbrs,
        idx,
        pts,
        q,
        policy,
        self_exclude=True,
        repeats=loop_repeats,
    )
    kernel_bbrs_s, bbrs_kernel_members = _time(
        kernel_bbrs, pts, q, policy, block_size=block_size
    )
    assert np.array_equal(bbrs_members, bbrs_kernel_members)
    kernel_counts, _counts = _time(
        batch_lambda_counts,
        pts,
        pts,
        q,
        policy,
        self_positions=np.arange(n, dtype=np.int64),
        block_size=block_size,
    )
    return {
        "n": n,
        "m": n,
        "d": d,
        "policy": policy.value,
        "rsl_size": int(kernel_members.size),
        "loop_naive_s": round(loop_naive, 6),
        "kernel_naive_s": round(kernel_naive_s, 6),
        "speedup_naive": round(loop_naive / kernel_naive_s, 2),
        "loop_bbrs_s": round(loop_bbrs, 6),
        "kernel_bbrs_s": round(kernel_bbrs_s, 6),
        "speedup_bbrs": round(loop_bbrs / kernel_bbrs_s, 2),
        "kernel_lambda_counts_s": round(kernel_counts, 6),
    }


def instrumented_pass(
    n: int, d: int, policy: DominancePolicy, block_size: int
) -> dict:
    """One counter-instrumented kernel pass at the given size, run
    *outside* the timed loops (counters cost a little per tile, so the
    timings above stay counter-free).  Records the work the blocked
    kernels actually did — tiles, product chunks, early exits, customers
    pruned — so regressions in pruning effectiveness show up in the
    artifact, not just regressions in wall time."""
    pts, q = _dataset(n, d)
    counters = KernelCounters()
    members = kernel_naive(
        pts, q, policy, block_size=block_size, counters=counters
    )
    return {
        "n": n,
        "m": n,
        "d": d,
        "rsl_size": int(members.size),
        "kernel_counters": counters.snapshot(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[2000, 4000, 10000]
    )
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE)
    parser.add_argument(
        "--policy", choices=["weak", "strict"], default="weak"
    )
    parser.add_argument(
        "--loop-repeats",
        type=int,
        default=1,
        help="repeats for the slow per-customer loop (best-of)",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    policy = DominancePolicy(args.policy)
    results = []
    for n in args.sizes:
        row = run_size(n, args.dim, policy, args.block_size, args.loop_repeats)
        results.append(row)
        print(
            f"n=m={n} d={args.dim}: loop naive {row['loop_naive_s']:.3f}s, "
            f"kernel {row['kernel_naive_s']:.4f}s "
            f"({row['speedup_naive']:.1f}x); bbrs loop "
            f"{row['loop_bbrs_s']:.4f}s, kernel {row['kernel_bbrs_s']:.4f}s"
        )
    from conftest import bench_environment

    payload = {
        "benchmark": "batch membership kernels vs per-customer loop",
        "methodology": "see EXPERIMENTS.md, section 'Batch kernel sweep'",
        "seed": BENCH_SEED,
        "block_size": args.block_size,
        "policy": policy.value,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "env": bench_environment(),
        "obs": instrumented_pass(
            max(args.sizes), args.dim, policy, args.block_size
        ),
        "results": results,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
