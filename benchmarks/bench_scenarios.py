"""Preference scenarios: weighted dominance across the planner arms.

The preference-model refactor claims the weighted paths are not a
bolt-on: every operator the planner can pick must answer weighted
queries exactly, and ``planner="auto"`` must keep tracking the best
pinned strategy *per weight shape* — partial support shrinks the
effective dimensionality, which shifts how much work each arm does.
``auto`` resolves to the kernel pin here (the uniform cells refine
every tile pair), so the sweep checks that the kernel arm stays the
right default under every weight shape.

This benchmark sweeps weight-skew scenarios (unit spelled two ways,
mild and heavy magnitude skew, partial support) over three planner
arms — ``auto``, the ``kernel`` pin and the ``index`` pin:

* every per-query answer (RSL positions, membership masks, safe-region
  boxes, culprit sets) is asserted bit-identical across the arms, so
  the timings price provably equal work;
* on small cells each scenario is additionally checked against the
  brute-force weighted oracle from ``repro.prefs.oracle``;
* per ``(cell, scenario)`` the ``auto`` arm must stay within 1.05x of
  the best pinned arm (min-of-repeats timing; asserted in full runs).

Entry points::

    PYTHONPATH=src python benchmarks/bench_scenarios.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke    # CI, tiny
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
from repro.prefs.oracle import oracle_membership, oracle_reverse_skyline

BENCH_SEED = 7

FULL_GRID = [(500, 500, 2), (1_500, 1_500, 2), (1_000, 1_000, 3)]
SMOKE_GRID = [(200, 200, 2)]

ARMS = {
    "auto": dict(planner="auto"),
    "always-kernel": dict(planner="kernel"),
    "always-naive": dict(planner="index"),
}


def weight_scenarios(d: int) -> dict:
    """Weight shapes swept per cell, keyed by scenario name."""
    return {
        "unit": None,
        "ones": [1.0] * d,
        "mild-skew": [2.0] + [0.5] * (d - 1),
        "heavy-skew": [8.0] + [0.125] * (d - 1),
        "partial": [1.0] * (d - 1) + [0.0],
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


def _workload(engine: WhyNotEngine, probes: np.ndarray, weights):
    """One weighted pass over every read surface; comparison payload."""
    out = []
    m = engine.customers.shape[0]
    everyone = list(range(m))
    for q in probes:
        rsl = engine.reverse_skyline(q, weights=weights)
        mask = engine.membership_mask(everyone, q, weights=weights)
        sr = engine.safe_region(q, weights=weights)
        exp = engine.explain(0, q, weights=weights)
        out.append(
            (
                rsl.tolist(),
                mask.tolist(),
                sr.region.lo.tolist(),
                sr.region.hi.tolist(),
                sorted(int(i) for i in exp.culprit_positions),
            )
        )
    return out


def _oracle_check(points, customers, probes, weights, payload) -> None:
    """Small-cell ground truth: RSL + membership vs the nested loops."""
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    for q, (rsl, mask, *_rest) in zip(probes, payload):
        expected = sorted(
            oracle_reverse_skyline(points, customers, q, weights=w).tolist()
        )
        assert sorted(rsl) == expected, (q, rsl, expected)
        for i, member in enumerate(mask):
            assert member == oracle_membership(
                points, customers[i], q, weights=w
            ), (q, i)


def warmup() -> None:
    """One untimed tiny pass per arm: keep process warmup out of the
    first timed (cell, scenario) pair."""
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(120, 2))
    customers = rng.uniform(0.0, 1.0, size=(80, 2))
    probes = rng.uniform(0.25, 0.75, size=(1, 2))
    for kwargs in ARMS.values():
        eng = _engine(points, customers, **kwargs)
        _workload(eng, probes, [2.0, 0.5])
        eng.close()


def run_cell(
    n: int, m: int, d: int, probe_count: int, repeats: int, smoke: bool
) -> list:
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(n, d))
    customers = rng.uniform(0.0, 1.0, size=(m, d))
    probes = np.random.default_rng(BENCH_SEED + 1).uniform(
        0.25, 0.75, size=(probe_count, d)
    )

    rows = []
    for scenario, weights in weight_scenarios(d).items():
        row: dict = {
            "n": n,
            "m": m,
            "d": d,
            "scenario": scenario,
            "weights": weights,
            "probes": probe_count,
        }
        payloads = {}
        best = {arm: float("inf") for arm in ARMS}
        # Interleave the arms round-robin so machine drift (frequency
        # scaling, background load) hits every arm alike instead of
        # whichever happened to run last, and reverse the order on odd
        # repeats: the arm timed right after the index pin reads slow,
        # so no arm may follow it every time (a rotation keeps every
        # arm's predecessor).
        arms = list(ARMS.items())
        for rep in range(repeats):
            for arm, kwargs in arms[::-1] if rep % 2 else arms:
                # A fresh engine per repeat: cold caches, so the timing
                # prices the operators, not the result cache.
                engine = _engine(points, customers, **kwargs)
                t0 = time.perf_counter()
                payloads[arm] = _workload(engine, probes, weights)
                best[arm] = min(best[arm], time.perf_counter() - t0)
                engine.close()
        for arm in ARMS:
            row[f"{arm}_s"] = round(best[arm], 6)
        baseline = payloads["auto"]
        for arm, payload in payloads.items():
            assert payload == baseline, (
                f"{scenario}: arm {arm} diverged from auto answers"
            )
        row["divergence_check"] = (
            "exact (RSL + masks + SR boxes + culprits) per arm"
        )
        if n <= 500:
            _oracle_check(points, customers, probes, weights, baseline)
            row["oracle_check"] = "exact (RSL + membership vs brute force)"
        best_pinned = min(row["always-kernel_s"], row["always-naive_s"])
        row["auto_vs_best_pinned"] = round(row["auto_s"] / best_pinned, 3)
        rows.append(row)
    return rows


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
    parser.add_argument("--repeats", type=int, default=3)
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
    repeats = 1 if args.smoke else max(1, args.repeats)
    warmup()
    rows = []
    cells = []
    for n, m, d in grid:
        cell_rows = run_cell(n, m, d, args.probes, repeats, args.smoke)
        for row in cell_rows:
            rows.append(row)
            print(
                f"n={n} m={m} d={d} {row['scenario']}: "
                f"auto {row['auto_s']:.3f}s, "
                f"kernel {row['always-kernel_s']:.3f}s, "
                f"naive {row['always-naive_s']:.3f}s "
                f"(auto/best-pinned {row['auto_vs_best_pinned']}x)"
            )
        # The acceptance bar, over the whole skew sweep of the cell:
        # auto's operators must stay the right choice under every
        # weight shape.  Aggregated across scenarios so a
        # single-row timing wobble (auto and always-kernel run the
        # same plan, so their gap is pure noise) cannot fail the run.
        auto_total = sum(r["auto_s"] for r in cell_rows)
        pinned_total = min(
            sum(r["always-kernel_s"] for r in cell_rows),
            sum(r["always-naive_s"] for r in cell_rows),
        )
        cell_ratio = round(auto_total / pinned_total, 3)
        cells.append(
            {
                "n": n,
                "m": m,
                "d": d,
                "auto_s": round(auto_total, 6),
                "best_pinned_s": round(pinned_total, 6),
                "auto_vs_best_pinned": cell_ratio,
            }
        )
        print(f"n={n} m={m} d={d} sweep: auto/best-pinned {cell_ratio}x")
        if not args.smoke:
            assert cell_ratio <= 1.05, cells[-1]

    # Work-counter fingerprint: one instrumented pass outside the timed
    # loops, recording the preference-resolution traffic.
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(200, 2))
    customers = rng.uniform(0.0, 1.0, size=(200, 2))
    probes = np.random.default_rng(BENCH_SEED + 1).uniform(
        0.25, 0.75, size=(2, 2)
    )
    fingerprint_engine = _engine(points, customers, planner="auto")
    for weights in weight_scenarios(2).values():
        _workload(fingerprint_engine, probes, weights)
    obs = {
        key: fingerprint_engine.obs.counter(key).value
        for key in (
            "prefs.default_requests",
            "prefs.weighted_requests",
            "prefs.cache_bypass",
        )
    }
    fingerprint_engine.close()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_environment, write_record

    payload = {
        "benchmark": (
            "preference scenarios: weight-skew sweep across planner arms"
        ),
        "methodology": "see EXPERIMENTS.md, section 'Preference scenarios'",
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "env": bench_environment(),
        "arms": {name: dict(kwargs) for name, kwargs in ARMS.items()},
        "obs": obs,
        "results": rows,
        "cells": cells,
    }
    write_record(payload, args.out, args.smoke, "BENCH_scenarios.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
