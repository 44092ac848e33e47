"""Update churn: incremental index + cache maintenance vs rebuild.

The versioned store layer claims that a mutating market is served best by
*repairing* what a mutation can reach (window locality) instead of
rebuilding the engine.  This benchmark prices that claim end to end:

* ``incremental_s`` — one engine absorbs every mutation through
  ``insert_products`` / ``delete_products`` / ``update_products`` and
  re-answers a fixed probe set (reverse skyline + safe region) after
  each one.  Scoped invalidation keeps unaffected cache entries warm.
* ``rebuild_s`` — the pre-store workflow: after every mutation a fresh
  engine is built over the current matrices and the probes are answered
  cold.

Every per-round answer (reverse-skyline positions, safe-region boxes) is
asserted bit-identical between the two arms, so the speedup is measured
over provably equal work.  A second section prices the observability
layer on the mutation path: the same incremental churn with
``trace=True`` vs ``trace=False``, plus an interleaved disabled/disabled
A/B whose spread is the noise floor the documented <2% disabled-tracer
bound is checked against.

Entry points::

    PYTHONPATH=src python benchmarks/bench_updates.py            # full, 10k
    PYTHONPATH=src python benchmarks/bench_updates.py --smoke    # CI, 300
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


def _mutation_script(rounds: int, d: int, seed: int = BENCH_SEED + 2):
    """A reproducible single-product churn: each round inserts, deletes
    or updates ONE product.  Deletes/updates draw a *fraction* in
    ``[0, 1)`` that each arm scales by its current row count, so both
    arms replay the identical script regardless of when they run."""
    rng = np.random.default_rng(seed)
    script = []
    for step in range(rounds):
        kind = ("insert", "delete", "update")[step % 3]
        script.append(
            (kind, float(rng.random()), rng.uniform(0.0, 1.0, size=(1, d)))
        )
    return script


def _apply(engine: WhyNotEngine, kind: str, fraction: float, row: np.ndarray):
    n = engine.products.shape[0]
    if kind == "insert":
        engine.insert_products(row)
    elif kind == "delete":
        engine.delete_products([int(fraction * n)])
    else:
        engine.update_products([int(fraction * n)], row)


def _answers(engine: WhyNotEngine, probes: np.ndarray):
    """The per-round comparison payload: RSL positions and SR boxes."""
    out = []
    for q in probes:
        rsl = engine.reverse_skyline(q)
        sr = engine.safe_region(q)
        out.append((rsl.tolist(), sr.region.lo.tolist(), sr.region.hi.tolist()))
    return out


def churn_incremental(
    points: np.ndarray, script, probes: np.ndarray, config: WhyNotConfig
):
    """One engine, mutations absorbed in place; timed after warm-up."""
    engine = _engine(points, config)
    _answers(engine, probes)  # warm every cache layer
    rounds = []
    t0 = time.perf_counter()
    for kind, fraction, row in script:
        _apply(engine, kind, fraction, row)
        rounds.append(_answers(engine, probes))
    elapsed = time.perf_counter() - t0
    return elapsed, rounds, engine


def churn_rebuild(
    points: np.ndarray, script, probes: np.ndarray, config: WhyNotConfig
):
    """Fresh engine per mutation, probes answered cold — the baseline."""
    engine = _engine(points, config)  # mutation carrier only
    rounds = []
    t0 = time.perf_counter()
    for kind, fraction, row in script:
        _apply(engine, kind, fraction, row)
        fresh = _engine(engine.products, config)
        rounds.append(_answers(fresh, probes))
    elapsed = time.perf_counter() - t0
    return elapsed, rounds


def run_churn(n: int, d: int, rounds: int, probe_count: int) -> dict:
    points = _dataset(n, d)
    probes = _probes(d, probe_count)
    script = _mutation_script(rounds, d)
    config = WhyNotConfig()

    inc_s, inc_rounds, engine = churn_incremental(points, script, probes, config)
    reb_s, reb_rounds = churn_rebuild(points, script, probes, config)
    assert inc_rounds == reb_rounds, (
        "incremental churn diverged from rebuild-per-mutation"
    )

    idx = engine.index.stats.snapshot()
    return {
        "n": n,
        "m": n,
        "d": d,
        "rounds": rounds,
        "probes": probe_count,
        "incremental_s": round(inc_s, 6),
        "rebuild_s": round(reb_s, 6),
        "speedup": round(reb_s / inc_s, 2),
        "per_mutation_incremental_ms": round(1e3 * inc_s / rounds, 3),
        "per_mutation_rebuild_ms": round(1e3 * reb_s / rounds, 3),
        "index_incremental_ops": int(
            idx["incremental_inserts"]
            + idx["incremental_removes"]
            + idx["incremental_updates"]
        ),
        "index_rebuilds": int(idx["rebuilds"]),
        "cache_scoped_considered": int(engine._scoped_considered.value),
        "cache_evicted_scoped": int(engine._scoped_evicted.value),
        "cache_retained_scoped": int(engine._scoped_retained.value),
        "cache_repaired_scoped": int(engine._scoped_repaired.value),
        "divergence_check": "exact (RSL positions + SR boxes) per round",
    }


def run_tracer_ab(n: int, d: int, rounds: int, probe_count: int) -> dict:
    """Price the obs layer on the mutation path.

    Interleaved best-of-3: two disabled arms (their spread is the noise
    floor) and one enabled arm.  The documented disabled-tracer bound
    (<2%, docs/OBSERVABILITY.md) is about the *disabled* fast path: the
    mutation span/counter sites must stay attribute-lookup cheap, so the
    disabled/disabled spread must remain within the bound.
    """
    points = _dataset(n, d)
    probes = _probes(d, probe_count)
    script = _mutation_script(rounds, d)
    off, off2, on = [], [], []
    for _ in range(3):
        off.append(
            churn_incremental(points, script, probes, WhyNotConfig())[0]
        )
        on.append(
            churn_incremental(points, script, probes, WhyNotConfig(trace=True))[0]
        )
        off2.append(
            churn_incremental(points, script, probes, WhyNotConfig())[0]
        )
    disabled_s, disabled2_s, enabled_s = min(off), min(off2), min(on)
    noise_pct = 100.0 * abs(disabled_s - disabled2_s) / min(
        disabled_s, disabled2_s
    )
    overhead_pct = 100.0 * (enabled_s - min(disabled_s, disabled2_s)) / min(
        disabled_s, disabled2_s
    )
    return {
        "disabled_s": round(disabled_s, 6),
        "disabled_repeat_s": round(disabled2_s, 6),
        "enabled_s": round(enabled_s, 6),
        "disabled_ab_noise_pct": round(noise_pct, 2),
        "enabled_overhead_pct": round(overhead_pct, 2),
        "bound": "disabled/disabled spread must stay <2% (noise floor)",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=10_000)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--probes", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny size, equality assertions only (no speedup/noise gates)",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.size = min(args.size, 300)
        args.rounds = min(args.rounds, 6)

    row = run_churn(args.size, args.dim, args.rounds, args.probes)
    print(
        f"churn n=m={row['n']} d={row['d']} ({row['rounds']} single-product "
        f"mutations, {row['probes']} probes/round): "
        f"incremental {row['incremental_s']:.3f}s "
        f"({row['per_mutation_incremental_ms']:.1f} ms/mutation), "
        f"rebuild {row['rebuild_s']:.3f}s "
        f"({row['per_mutation_rebuild_ms']:.1f} ms/mutation) "
        f"-> {row['speedup']}x"
    )
    print(
        f"  index: {row['index_incremental_ops']} incremental ops, "
        f"{row['index_rebuilds']} rebuilds; caches: "
        f"{row['cache_retained_scoped']} retained / "
        f"{row['cache_evicted_scoped']} evicted / "
        f"{row['cache_repaired_scoped']} repaired"
    )
    tracer = run_tracer_ab(
        args.size, args.dim, max(2, args.rounds // 3), args.probes
    )
    print(
        f"  obs: disabled {tracer['disabled_s']:.3f}s vs enabled "
        f"{tracer['enabled_s']:.3f}s (+{tracer['enabled_overhead_pct']}%), "
        f"disabled A/B noise {tracer['disabled_ab_noise_pct']}%"
    )
    if not args.smoke:
        assert row["speedup"] >= 5.0, (
            f"incremental churn must beat rebuild-per-mutation by >=5x, "
            f"got {row['speedup']}x"
        )
        assert tracer["disabled_ab_noise_pct"] < 2.0, tracer

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_environment, write_record

    payload = {
        "benchmark": "update churn: incremental store/index/cache maintenance vs rebuild-per-mutation",
        "methodology": "see EXPERIMENTS.md, section 'Update churn'",
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "env": bench_environment(),
        "churn": row,
        "tracer_ab": tracer,
    }
    write_record(payload, args.out, args.smoke, "BENCH_updates.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
