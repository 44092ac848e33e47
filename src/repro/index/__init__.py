"""Spatial access methods.

Three interchangeable implementations of the :class:`SpatialIndex`
interface:

* :class:`ScanIndex` — vectorised brute force, the correctness oracle;
* :class:`RTree` — an STR-packed R-tree with the paper's page fanout
  (1536-byte pages), the access method the paper uses; every mutation
  repacks it;
* :class:`GridIndex` — a uniform grid, which answers selective windows
  3-4x faster than the R-tree in the backend ablation.

All reverse-skyline and why-not machinery is written against the interface,
so every experiment can run on any backend.
"""

from repro.index.base import SpatialIndex
from repro.index.bulkload import str_bulk_load
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex
from repro.index.stats import IndexStats

__all__ = [
    "SpatialIndex",
    "ScanIndex",
    "RTree",
    "GridIndex",
    "IndexStats",
    "str_bulk_load",
    "make_index",
]

_BACKENDS = {
    "rtree": RTree,
    "scan": ScanIndex,
    "grid": GridIndex,
}


def make_index(backend: str, points) -> SpatialIndex:
    """Construct the named backend over ``points``.

    Raises :class:`~repro.exceptions.InvalidParameterError` for unknown
    backend names (the error the engine has always raised).
    """
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        from repro.exceptions import InvalidParameterError

        raise InvalidParameterError(
            f"unknown backend {backend!r}; use 'rtree', 'scan' or 'grid'"
        ) from None
    return cls(points)
