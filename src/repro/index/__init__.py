"""Spatial access methods.

Two interchangeable implementations of the :class:`SpatialIndex`
interface:

* :class:`ScanIndex` — vectorised brute force, the correctness oracle;
* :class:`RTree` — an STR-packed R-tree with the paper's page fanout
  (1536-byte pages), the access method the paper uses, stored as
  per-level MBR arrays; every mutation repacks it.

All reverse-skyline and why-not machinery is written against the interface,
so every experiment can run on any backend.
"""

from repro.index.base import SpatialIndex
from repro.index.bulkload import str_bulk_load
from repro.index.rtree import RTree
from repro.index.scan import ScanIndex
from repro.index.stats import IndexStats

__all__ = [
    "SpatialIndex",
    "ScanIndex",
    "RTree",
    "IndexStats",
    "str_bulk_load",
    "make_index",
]

_BACKENDS = {
    "rtree": RTree,
    "scan": ScanIndex,
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
            f"unknown backend {backend!r}; use 'rtree' or 'scan'"
        ) from None
    return cls(points)
