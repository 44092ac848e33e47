"""Binding engine surface calls to (logical plan, runtime context).

The single place a public surface request (``"mwq"``, why_not, query,
approximate=...) is turned into a coordinate-free logical plan plus the
execution-context kwargs that carry the actual coordinates.  Keeping
this in the plan layer means the engine facade holds no per-surface
argument knowledge at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exceptions import InvalidParameterError
from repro.geometry.point import as_point
from repro.plan.logical import (
    BatchWhyNotQuery,
    LambdaQuery,
    LogicalPlan,
    MembershipMaskQuery,
    MQPQuery,
    MWPQuery,
    MWQQuery,
    RSLQuery,
    SafeRegionQuery,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import WhyNotEngine

__all__ = ["SURFACES", "build_request"]

SURFACES = {
    "reverse_skyline": RSLQuery,
    "membership": MembershipMaskQuery,
    "explain": LambdaQuery,
    "mwp": MWPQuery,
    "mqp": MQPQuery,
    "safe_region": SafeRegionQuery,
    "mwq": MWQQuery,
    "batch": BatchWhyNotQuery,
}


def build_request(
    engine: "WhyNotEngine", surface: str, *args, **kwargs
) -> tuple[LogicalPlan, dict]:
    """``(logical plan, execution-context kwargs)`` for one surface call."""
    approximate = bool(kwargs.pop("approximate", False))
    k = int(kwargs.pop("k", 10))
    # Preference weights ride on every surface; resolution validates them
    # (length, sign, finiteness) before any planning happens.
    prefs = engine.resolve_prefs(kwargs.pop("weights", None))
    if kwargs:
        raise InvalidParameterError(
            f"unknown arguments {sorted(kwargs)!r} for {surface!r}"
        )
    try:
        logical_cls = SURFACES[surface]
    except KeyError:
        raise InvalidParameterError(
            f"unknown surface {surface!r}; one of {sorted(SURFACES)}"
        ) from None
    dim = engine.dim
    if surface == "reverse_skyline":
        (query,) = args
        return logical_cls(), {"query": as_point(query, dim=dim), "prefs": prefs}
    if surface == "membership":
        why_nots, query = args
        why_nots = tuple(why_nots)
        return (
            logical_cls(),
            {
                "query": as_point(query, dim=dim),
                "why_nots": why_nots,
                "prefs": prefs,
            },
        )
    if surface in ("explain", "mwp", "mqp"):
        why_not, query = args
        return (
            logical_cls(),
            {
                "query": as_point(query, dim=dim),
                "why_not": why_not,
                "prefs": prefs,
            },
        )
    if surface == "safe_region":
        (query,) = args
        return (
            logical_cls(approximate=approximate, k=k),
            {
                "query": as_point(query, dim=dim),
                "approximate": approximate,
                "k": k,
                "prefs": prefs,
            },
        )
    if surface == "mwq":
        why_not, query = args
        return (
            logical_cls(approximate=approximate, k=k),
            {
                "query": as_point(query, dim=dim),
                "why_not": why_not,
                "approximate": approximate,
                "k": k,
                "prefs": prefs,
            },
        )
    # batch
    why_nots, query = args
    why_nots = tuple(why_nots)
    return (
        logical_cls(approximate=approximate, k=k),
        {
            "query": as_point(query, dim=dim),
            "why_nots": why_nots,
            "approximate": approximate,
            "k": k,
            "prefs": prefs,
        },
    )
