"""Shared fixtures: the paper's worked example and small random engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import WhyNotEngine
from repro.data.paperdata import paper_dataset, paper_points, paper_query
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex


@pytest.fixture(scope="session")
def paper_pts() -> np.ndarray:
    return paper_points()


@pytest.fixture(scope="session")
def paper_q() -> np.ndarray:
    return paper_query()


@pytest.fixture()
def paper_engine(paper_pts) -> WhyNotEngine:
    """Monochromatic engine over the Fig. 1(a) points (scan backend)."""
    ds = paper_dataset()
    return WhyNotEngine(ds.points, backend="scan", bounds=ds.bounds)


@pytest.fixture()
def paper_engine_rtree(paper_pts) -> WhyNotEngine:
    """Same engine on the R*-tree backend."""
    ds = paper_dataset()
    return WhyNotEngine(ds.points, backend="rtree", bounds=ds.bounds)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20130408)  # ICDE 2013 week.


def random_points(
    rng: np.random.Generator, n: int, dim: int = 2, grid: int | None = 8
) -> np.ndarray:
    """Random points, optionally snapped to a grid to provoke ties."""
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    if grid:
        pts = np.round(pts * grid) / grid
    return pts


@pytest.fixture(params=["scan", "rtree"])
def index_factory(request):
    """Build either index implementation from a point matrix."""

    def factory(points: np.ndarray):
        if request.param == "scan":
            return ScanIndex(points)
        return RTree(points)

    factory.backend = request.param
    return factory
