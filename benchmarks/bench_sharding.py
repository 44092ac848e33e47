"""Sharded multiprocess kernels vs the single-process execution path.

The shard layer claims three things worth pricing:

* fan-out never changes answers — every per-probe result (RSL
  positions, membership masks, canonical safe-region boxes, exact
  areas) is asserted bit-identical across the single-process arm and
  both sharded backends before any timing is reported;
* the process pool amortises — on a machine with several cores the
  ``sharded-process`` arm should beat ``single`` once the kernel work
  dwarfs the fan-out overhead (shared-memory publish, payload pickling,
  result merge).  On a 1-CPU machine there is nothing to amortise and
  the honest result is a slowdown, which this benchmark records rather
  than hides (the ``env`` block carries ``cpu_count`` so readers can
  tell which regime a JSON artifact came from);
* ``planner="auto"`` only fans out when it wins — per cell the auto arm
  is compared against the best pinned (fixed) arm and must stay within
  1.05x.

Entry points::

    PYTHONPATH=src python benchmarks/bench_sharding.py           # full grid
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke   # CI, tiny
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.experiments.audit import canonical_boxes
from repro.geometry.box import Box
from repro.kernels.parallel import available_cpus

BENCH_SEED = 7

FULL_GRID = [2_000, 8_000, 20_000]
SMOKE_GRID = [500]


def _arms(shards: int) -> dict[str, dict]:
    return {
        "single": dict(planner="kernel", shards=1),
        "sharded-serial": dict(
            planner="kernel", shards=shards, shard_backend="serial"
        ),
        "sharded-process": dict(
            planner="kernel", shards=shards, shard_backend="process"
        ),
        "auto": dict(planner="auto", shards=shards),
    }


def _engine(points: np.ndarray, **config_kwargs) -> WhyNotEngine:
    d = points.shape[1]
    return WhyNotEngine(
        points,
        backend="scan",
        config=WhyNotConfig(**config_kwargs),
        bounds=Box(np.zeros(d), np.ones(d)),
    )


def _workload(engine: WhyNotEngine, probes: np.ndarray, mask_rows: int):
    """One pass over the sharded surfaces; returns the comparison payload."""
    out = []
    everyone = list(range(min(engine.customers.shape[0], mask_rows)))
    for q in probes:
        rsl = engine.reverse_skyline(q)
        mask = engine.membership_mask(everyone, q)
        sr = engine.safe_region(q)
        lo, hi = canonical_boxes(sr)
        out.append(
            (rsl.tolist(), mask.tolist(), lo.tolist(), hi.tolist(), sr.area())
        )
    return out


def warmup(shards: int) -> None:
    """One untimed tiny pass per arm so the first timed cell does not
    charge process warmup (allocator, pool forks) to any one arm."""
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(150, 2))
    probes = rng.uniform(0.25, 0.75, size=(1, 2))
    for kwargs in _arms(shards).values():
        engine = _engine(points, **kwargs)
        _workload(engine, probes, mask_rows=64)
        engine.close_shard_executors()


def run_cell(
    n: int, shards: int, probe_count: int, mask_rows: int, repeats: int
) -> dict:
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    probes = np.random.default_rng(BENCH_SEED + 1).uniform(
        0.25, 0.75, size=(probe_count, 2)
    )

    row: dict = {
        "n": n,
        "d": 2,
        "shards": shards,
        "probes": probe_count,
        "repeats": repeats,
    }
    payloads = {}
    for arm, kwargs in _arms(shards).items():
        # Fresh engine per repeat so every repeat measures the cold
        # (cache-less) pass; min-of-repeats is the noise-robust
        # estimator single-shot timings on a busy machine are not.
        cold_times = []
        for rep in range(repeats):
            engine = _engine(points, **kwargs)
            t0 = time.perf_counter()
            cold = _workload(engine, probes, mask_rows)
            cold_times.append(time.perf_counter() - t0)
            if arm not in payloads:
                payloads[arm] = cold
            else:
                assert cold == payloads[arm], f"{arm}: repeats diverged"
            if rep != repeats - 1:
                engine.close_shard_executors()
        t0 = time.perf_counter()
        warm = _workload(engine, probes, mask_rows)
        warm_s = time.perf_counter() - t0
        assert warm == payloads[arm], f"{arm}: warm pass diverged"
        row[f"{arm}_cold_s"] = round(min(cold_times), 6)
        row[f"{arm}_cold_all_s"] = [round(t, 6) for t in cold_times]
        row[f"{arm}_warm_s"] = round(warm_s, 6)
        # The counter fingerprint proves which path actually ran: the
        # sharded arms must fan out, the single and (on few cores)
        # auto arms must not.
        row[f"{arm}_shard_counters"] = {
            key: int(value)
            for key, value in engine.shard_stats.snapshot().items()
        }
        engine.close_shard_executors()
    baseline = payloads["single"]
    for arm, payload in payloads.items():
        assert payload == baseline, f"arm {arm} diverged from single-process"
    row["divergence_check"] = (
        "exact (RSL + masks + canonical SR boxes + exact area) per arm"
    )
    for arm in ("sharded-serial", "sharded-process"):
        counters = row[f"{arm}_shard_counters"]
        assert counters["fanouts"] > 0, (arm, counters)
        assert counters["merged"] == counters["fanouts"], (arm, counters)
    best_fixed = min(
        row["single_cold_s"],
        row["sharded-serial_cold_s"],
        row["sharded-process_cold_s"],
    )
    row["auto_vs_best_fixed"] = round(row["auto_cold_s"] / best_fixed, 3)
    row["process_speedup_vs_single"] = round(
        row["single_cold_s"] / row["sharded-process_cold_s"], 3
    )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="dataset sizes (rows); default: built-in grid",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--probes", type=int, default=3)
    parser.add_argument(
        "--mask-rows", type=int, default=512,
        help="customers per membership_mask call",
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
    warmup(args.shards)
    rows = []
    for n in sizes:
        row = run_cell(n, args.shards, args.probes, args.mask_rows, repeats)
        rows.append(row)
        print(
            f"n={n} shards={args.shards}: single {row['single_cold_s']:.3f}s, "
            f"serial {row['sharded-serial_cold_s']:.3f}s, "
            f"process {row['sharded-process_cold_s']:.3f}s "
            f"({row['process_speedup_vs_single']}x vs single), "
            f"auto {row['auto_cold_s']:.3f}s "
            f"(auto/best-fixed {row['auto_vs_best_fixed']}x)"
        )
        if not args.smoke:
            # Auto must track the best fixed arm: with the fan-out term
            # in the cost model it declines to shard when sharding
            # loses (e.g. on a 1-CPU machine).
            assert row["auto_vs_best_fixed"] <= 1.05, row

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_environment

    payload = {
        "benchmark": (
            "sharded multiprocess kernels vs single-process execution"
        ),
        "methodology": "see EXPERIMENTS.md, section 'Sharded execution'",
        "seed": BENCH_SEED,
        "shards": args.shards,
        "available_cpus": available_cpus(),
        "env": bench_environment(),
        "arms": {
            name: dict(kwargs) for name, kwargs in _arms(args.shards).items()
        },
        "results": rows,
    }
    out = (
        args.out
        or Path(__file__).resolve().parent.parent / "BENCH_sharding.json"
    )
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
