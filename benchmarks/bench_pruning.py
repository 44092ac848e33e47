"""Tile-summary pruned kernels vs the plain blocked kernels.

The filter-refinement layer (``repro.prune``) claims three things worth
pricing:

* pruning never changes answers — every per-probe membership mask is
  asserted bit-identical across the unpruned, always-pruned and
  auto-planned arms before any timing is reported, and the pruning
  counter balance invariant (skipped + blocked + refined == total
  pairs) is asserted on a traced pass;
* the filter pays for itself on low-selectivity workloads — on the
  ``sparse`` cell (customers clustered around the query, products in
  far clusters) the plain kernel has no early exit and sweeps every
  (tile, chunk) pair, while the classifier skips almost all of them;
  at n = m = 10k the always-pruned arm must beat the unpruned arm by
  at least 3x;
* ``planner="auto"`` only prunes when it wins — the ``dense`` cell
  (everything interleaved uniform, refine rate ~1) makes classification
  pure overhead, and per cell the auto arm is compared against the best
  pinned arm and must stay within 1.05x.

Entry points::

    PYTHONPATH=src python benchmarks/bench_pruning.py           # full grid
    PYTHONPATH=src python benchmarks/bench_pruning.py --smoke   # CI, tiny
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.kernels.membership import batch_lambda_counts
from repro.kernels.pruned import batch_lambda_counts_pruned

BENCH_SEED = 7

FULL_GRID = [2_000, 10_000]
SMOKE_GRID = [600]

ARMS = {
    "unpruned": dict(planner="kernel"),
    "pruned": dict(planner="pruned"),
    "auto": dict(planner="auto"),
}


def make_workload(kind: str, n: int, seed: int):
    """(products, customers, probes) for one benchmark cell.

    ``sparse``: customers clustered in a tight box around the probe
    area, products split into two far clusters (first half low corner,
    second half high corner — row order keeps product chunks spatially
    coherent).  No product falls in any customer window, so the plain
    kernel never early-exits, while almost every (tile, chunk) pair is
    classifier-skippable.  ``dense``: everything interleaved uniform in
    the unit box — the adversarial refine-everything cell.
    """
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        half = n // 2
        products = np.vstack(
            [
                rng.uniform(0.0, 0.1, size=(half, 2)),
                rng.uniform(0.9, 1.0, size=(n - half, 2)),
            ]
        )
        customers = rng.uniform(0.45, 0.55, size=(n, 2))
        probes = rng.uniform(0.48, 0.52, size=(3, 2))
    elif kind == "dense":
        products = rng.uniform(0.0, 1.0, size=(n, 2))
        customers = rng.uniform(0.0, 1.0, size=(n, 2))
        probes = rng.uniform(0.4, 0.6, size=(3, 2))
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(kind)
    return products, customers, probes


def _engine(products, customers, trace: bool = False, **kwargs) -> WhyNotEngine:
    config = WhyNotConfig(trace=trace, **kwargs)
    return WhyNotEngine(products, customers, backend="scan", config=config)


def _workload(engine: WhyNotEngine, probes: np.ndarray):
    everyone = list(range(engine.customers.shape[0]))
    return [engine.membership_mask(everyone, q).tolist() for q in probes]


def run_cell(kind: str, n: int, repeats: int) -> dict:
    products, customers, probes = make_workload(kind, n, BENCH_SEED)
    row: dict = {"workload": kind, "n": n, "m": n, "d": 2, "repeats": repeats}
    payloads: dict[str, list] = {}
    cold_times: dict[str, list] = {arm: [] for arm in ARMS}
    engines: dict[str, WhyNotEngine] = {}
    # Fresh engine per repeat: every repeat measures the cold
    # (cache-less) pass; min-of-repeats is the noise-robust estimator
    # single-shot timings on a busy machine are not.  The arms run
    # round-robin within each repeat, so machine drift (frequency
    # scaling, a noisy neighbour) lands on every arm alike.
    for _ in range(repeats):
        for arm, kwargs in ARMS.items():
            engine = engines[arm] = _engine(products, customers, **kwargs)
            t0 = time.perf_counter()
            cold = _workload(engine, probes)
            cold_times[arm].append(time.perf_counter() - t0)
            if arm not in payloads:
                payloads[arm] = cold
            else:
                assert cold == payloads[arm], f"{arm}: repeats diverged"
    for arm, engine in engines.items():
        t0 = time.perf_counter()
        warm = _workload(engine, probes)
        warm_s = time.perf_counter() - t0
        assert warm == payloads[arm], f"{arm}: warm pass diverged"
        row[f"{arm}_cold_s"] = round(min(cold_times[arm]), 6)
        row[f"{arm}_cold_all_s"] = [round(t, 6) for t in cold_times[arm]]
        row[f"{arm}_warm_s"] = round(warm_s, 6)
    row["auto_picked_operator"] = engines["auto"].last_plan.operator.name
    baseline = payloads["unpruned"]
    for arm, payload in payloads.items():
        assert payload == baseline, f"arm {arm} diverged from unpruned"
    row["divergence_check"] = "exact membership masks per arm and repeat"

    # Counter fingerprints come from a separate traced pass (tracing has
    # its own overhead, so it never pollutes the timings above).  The
    # pruned arm must satisfy the pair balance invariant, and on the
    # sparse cell it must actually skip pairs.
    traced = _engine(products, customers, trace=True, **ARMS["pruned"])
    assert _workload(traced, probes) == baseline, "traced pass diverged"
    counters = traced._prune_counters
    assert counters is not None and counters.balanced(), counters.snapshot()
    snap = counters.snapshot()
    row["pruned_counters"] = snap
    row["kernel_counters"] = traced._kernel_counters.snapshot()
    assert snap["pairs_total"] > 0, snap
    if kind == "sparse":
        assert snap["pairs_skipped"] > 0, snap

    # The Λ kernel has no early exit even unpruned, so it is timed
    # directly at kernel level (no engine surface runs it).
    q = probes[0]
    t0 = time.perf_counter()
    lam_plain = batch_lambda_counts(products, customers, q)
    row["lambda_unpruned_s"] = round(time.perf_counter() - t0, 6)
    t0 = time.perf_counter()
    lam_pruned = batch_lambda_counts_pruned(products, customers, q)
    row["lambda_pruned_s"] = round(time.perf_counter() - t0, 6)
    assert np.array_equal(lam_plain, lam_pruned), "lambda counts diverged"

    best_fixed = min(row["unpruned_cold_s"], row["pruned_cold_s"])
    row["auto_vs_best_fixed"] = round(row["auto_cold_s"] / best_fixed, 3)
    row["pruned_speedup_vs_unpruned"] = round(
        row["unpruned_cold_s"] / row["pruned_cold_s"], 3
    )
    return row


def warmup() -> None:
    """One untimed tiny pass per arm so the first timed cell does not
    charge interpreter/allocator warmup to any one arm."""
    products, customers, probes = make_workload("sparse", 150, BENCH_SEED)
    for kwargs in ARMS.values():
        _workload(_engine(products, customers, **kwargs), probes[:1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="dataset sizes (rows, n = m); default: built-in grid",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="cold-pass repeats per arm; min is reported",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny grid, assertions only"
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    sizes = args.sizes or (SMOKE_GRID if args.smoke else FULL_GRID)
    repeats = 1 if args.smoke else max(1, args.repeats)
    warmup()
    rows = []
    for kind in ("sparse", "dense"):
        for n in sizes:
            row = run_cell(kind, n, repeats)
            rows.append(row)
            print(
                f"{kind} n=m={n}: unpruned {row['unpruned_cold_s']:.3f}s, "
                f"pruned {row['pruned_cold_s']:.3f}s "
                f"({row['pruned_speedup_vs_unpruned']}x), "
                f"auto {row['auto_cold_s']:.3f}s "
                f"(auto/best-fixed {row['auto_vs_best_fixed']}x, "
                f"picked {row['auto_picked_operator']!r})"
            )
            if not args.smoke:
                # Auto must track the best pinned arm: the refine-rate
                # rule makes it decline to prune on the dense cell and
                # prune on the sparse one.
                assert row["auto_vs_best_fixed"] <= 1.05, row
                if kind == "sparse" and n >= 10_000:
                    assert row["pruned_speedup_vs_unpruned"] >= 3.0, row

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_environment, write_record

    payload = {
        "benchmark": "tile-summary pruned kernels vs plain blocked kernels",
        "methodology": "see EXPERIMENTS.md, section 'Pruned kernels'",
        "seed": BENCH_SEED,
        "env": bench_environment(),
        "arms": {name: dict(kwargs) for name, kwargs in ARMS.items()},
        "results": rows,
    }
    write_record(payload, args.out, args.smoke, "BENCH_pruning.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
