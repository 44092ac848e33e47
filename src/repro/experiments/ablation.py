"""Programmatic ablation experiments (our additions beyond the paper).

Three studies that probe the design choices DESIGN.md calls out:

* **index backends** — R-tree vs vectorised scan on the
  same window-query workload (time + node accesses);
* **pruning** — BBRS's global-skyline candidate pruning vs the naive
  per-customer test (time + candidates verified);
* **k sweep** — the approximation parameter's quality/area/time trade-off
  on one dataset.

All return plain row dictionaries; the CLI renders them as tables and the
benchmark suite asserts the expected orderings.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.engine import WhyNotEngine
from repro.data.dataset import Dataset
from repro.data.workload import build_workload
from repro.geometry.transform import window_box
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex
from repro.skyline.global_skyline import global_skyline_candidates
from repro.skyline.reverse import reverse_skyline_bbrs, reverse_skyline_naive

__all__ = ["ablation_backends", "ablation_pruning", "ablation_k_sweep"]


def ablation_backends(
    dataset: Dataset, n_queries: int = 50, seed: int = 7
) -> list[dict]:
    """Window-query cost per index backend on one dataset.

    Windows are drawn as reverse-skyline membership tests: centred on data
    points with a nearby jittered query, i.e. the selective shape the
    why-not pipeline issues constantly.
    """
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, dataset.size, size=n_queries)
    centers = dataset.points[picks]
    queries = centers + rng.normal(0, 0.01, size=centers.shape) * (
        dataset.bounds.hi - dataset.bounds.lo
    )
    windows = [window_box(c, q) for c, q in zip(centers, queries)]

    rows = []
    for name, index in (
        ("scan", ScanIndex(dataset.points)),
        ("rtree", RTree(dataset.points)),
    ):
        index.reset_stats()
        start = time.perf_counter()
        hits = [index.range_indices(box) for box in windows]
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "backend": name,
                "seconds": elapsed,
                "node_accesses": index.stats.node_accesses,
                "point_comparisons": index.stats.point_comparisons,
                "total_hits": int(sum(h.size for h in hits)),
            }
        )
    # Sanity: all backends must agree on the answers.
    reference = rows[0]["total_hits"]
    for row in rows[1:]:
        if row["total_hits"] != reference:
            raise AssertionError(
                f"backend {row['backend']} disagrees with the scan oracle"
            )
    return rows


def ablation_pruning(
    dataset: Dataset, n_queries: int = 10, seed: int = 7
) -> list[dict]:
    """BBRS pruning vs the naive reverse-skyline computation."""
    rng = np.random.default_rng(seed)
    index = ScanIndex(dataset.points)
    picks = rng.integers(0, dataset.size, size=n_queries)
    queries = dataset.points[picks] + rng.normal(
        0, 0.01, size=(n_queries, dataset.dim)
    ) * (dataset.bounds.hi - dataset.bounds.lo)

    start = time.perf_counter()
    naive = [
        reverse_skyline_naive(index, dataset.points, q, self_exclude=True)
        for q in queries
    ]
    naive_time = time.perf_counter() - start

    start = time.perf_counter()
    bbrs = [
        reverse_skyline_bbrs(index, dataset.points, q, self_exclude=True)
        for q in queries
    ]
    bbrs_time = time.perf_counter() - start

    for a, b in zip(naive, bbrs):
        if not np.array_equal(a, b):
            raise AssertionError("BBRS disagrees with the naive oracle")

    candidates = [
        global_skyline_candidates(
            dataset.points, dataset.points, q, self_exclude=True
        ).size
        for q in queries
    ]
    return [
        {
            "method": "naive",
            "seconds": naive_time,
            "window_queries": dataset.size * n_queries,
        },
        {
            "method": "bbrs",
            "seconds": bbrs_time,
            "window_queries": int(sum(candidates)),
        },
    ]


def ablation_k_sweep(
    dataset: Dataset,
    ks: Sequence[int] = (2, 5, 10, 20, 50),
    targets: Sequence[int] = tuple(range(2, 11)),
    seed: int = 7,
) -> list[dict]:
    """Quality / area / time of Approx-MWQ as the sampling parameter grows."""
    engine = WhyNotEngine(
        dataset.points, backend="scan", bounds=dataset.bounds
    )
    workload = build_workload(engine, targets=targets, seed=seed)
    if not workload:
        return []
    exact_costs = []
    exact_areas = []
    for wq in workload:
        exact_areas.append(engine.safe_region(wq.query).area())
        exact_costs.append(
            engine.modify_both(wq.why_not_position, wq.query).cost
        )
    rows = [
        {
            "k": "exact",
            "mean_cost": float(np.mean(exact_costs)),
            "mean_area_kept": 1.0,
            "seconds": float("nan"),
        }
    ]
    for k in ks:
        store = engine.approx_store(k)
        for wq in workload:
            store.precompute(wq.rsl_positions.tolist())
        start = time.perf_counter()
        costs = []
        kept = []
        for wq, exact_area in zip(workload, exact_areas):
            sr = engine.safe_region(wq.query, approximate=True, k=k)
            kept.append(sr.area() / exact_area if exact_area else 1.0)
            costs.append(
                engine.modify_both(
                    wq.why_not_position, wq.query, approximate=True, k=k
                ).cost
            )
        rows.append(
            {
                "k": k,
                "mean_cost": float(np.mean(costs)),
                "mean_area_kept": float(np.mean(kept)),
                "seconds": time.perf_counter() - start,
            }
        )
    return rows
