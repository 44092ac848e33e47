"""Shared benchmark fixtures.

Benchmarks run on scaled-down datasets (hundreds to a few thousand rows)
so the whole suite finishes in minutes; the CLI harness (`repro-whynot
<experiment> --full`) reproduces the paper's original sizes.  Sizes are
chosen so every *shape* the paper reports is still visible: SR dominates
MWQ, Approx-MWQ collapses it, BBRS beats the naive scan, and so on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import WhyNotEngine
from repro.data.cardb import generate_cardb
from repro.data.synthetic import (
    generate_anticorrelated,
    generate_correlated,
    generate_uniform,
)
from repro.data.workload import build_workload

BENCH_SEED = 7
CARDB_SIZE = 2000
SYNTH_SIZE = 2000
TARGETS = tuple(range(1, 11))


def bench_environment() -> dict:
    """Environment provenance for benchmark artifacts.

    Every standalone benchmark runner embeds this under an ``"env"`` key
    in its ``BENCH_*.json`` so numbers stay interpretable: interpreter
    and numpy versions, platform, CPU count, git SHA, and the library
    version.  Delegates to :func:`repro.obs.environment_provenance`;
    falls back to the bare interpreter facts if ``repro.obs`` is ever
    unavailable (e.g. benchmarking an older checkout).
    """
    try:
        from repro.obs import environment_provenance

        return environment_provenance()
    except Exception:  # pragma: no cover - defensive fallback
        import platform

        return {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        }


def write_record(payload: dict, out: Path | None, smoke: bool, name: str) -> None:
    """Write a runner's JSON record to ``out``, or else to the committed
    ``name`` at the repo root.  A smoke run without ``out`` writes
    nothing, so a smoke run never overwrites a committed record."""
    if out is None:
        if smoke:
            print("smoke run: no record written (pass --out to keep one)")
            return
        out = Path(__file__).resolve().parent.parent / name
    out.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {out}")


@pytest.fixture(scope="session")
def cardb_dataset():
    return generate_cardb(CARDB_SIZE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def uniform_dataset():
    return generate_uniform(SYNTH_SIZE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def correlated_dataset():
    return generate_correlated(SYNTH_SIZE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def anticorrelated_dataset():
    return generate_anticorrelated(SYNTH_SIZE, seed=BENCH_SEED)


def build_engine(dataset, backend="scan"):
    return WhyNotEngine(dataset.points, backend=backend, bounds=dataset.bounds)


@pytest.fixture(scope="session")
def cardb_engine(cardb_dataset):
    return build_engine(cardb_dataset)


@pytest.fixture(scope="session")
def cardb_workload(cardb_engine):
    workload = build_workload(cardb_engine, targets=TARGETS, seed=BENCH_SEED)
    assert workload, "benchmark workload must not be empty"
    return workload


@pytest.fixture(scope="session")
def uniform_engine(uniform_dataset):
    return build_engine(uniform_dataset)


@pytest.fixture(scope="session")
def uniform_workload(uniform_engine):
    workload = build_workload(
        uniform_engine, targets=(1, 2, 3, 4), seed=BENCH_SEED
    )
    assert workload, "benchmark workload must not be empty"
    return workload


def fresh_engine_like(engine):
    """A new engine over the same data with cold caches, for timing the
    safe-region construction itself."""
    return WhyNotEngine(
        engine.products, backend="scan", bounds=engine.bounds
    )
