"""Logical plans — *what* a why-not surface computes, not *how*.

Each query surface of the paper gets one small frozen dataclass: RSL
membership (:class:`RSLQuery`, :class:`MembershipMaskQuery`), the ``Λ``
explanation window (:class:`LambdaQuery`), Algorithm 1
(:class:`MWPQuery`), Algorithm 2 (:class:`MQPQuery`), Algorithm 3 exact
or Section-VI.B approximate (:class:`SafeRegionQuery`), Algorithm 4 and
Approx-MWQ (:class:`MWQQuery`), batch why-not answering
(:class:`BatchWhyNotQuery`) and the lost-customer retained mask
(:class:`RetainedMaskQuery`) the MQP experiment cost rides on.

A logical plan deliberately carries **no coordinates**: it describes the
shape of the computation (surface, approximation parameters), so one
planned tree is reusable across every query point and batch size of
the same shape — that is what makes the plan cache effective.  The
runtime arguments (query point, why-not customer, ...) travel through
the :class:`~repro.plan.executor.ExecutionContext` instead.

``child_plans()`` declares the sub-computations a surface is *defined*
over (MWQ needs a safe region, which needs the reverse skyline); the
physical operator chosen by the planner may execute fewer children
(e.g. the sequential batch path skips the membership prefilter) via
:meth:`repro.plan.operators.Operator.child_plans`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = [
    "LogicalPlan",
    "RSLQuery",
    "MembershipMaskQuery",
    "RetainedMaskQuery",
    "LambdaQuery",
    "MWPQuery",
    "MQPQuery",
    "SafeRegionQuery",
    "MWQQuery",
    "BatchWhyNotQuery",
]


@dataclass(frozen=True)
class LogicalPlan:
    """Base class: a coordinate-free description of one computation."""

    surface: ClassVar[str] = "abstract"

    def child_plans(self) -> tuple["LogicalPlan", ...]:
        """Sub-computations this surface is defined over."""
        return ()

    def cache_key(self) -> tuple:
        """Hashable identity used by the plan cache (shape, not data)."""
        return (self.surface,) + self._key_fields()

    def _key_fields(self) -> tuple:
        return ()

    def describe(self) -> str:
        """One-line human label used by EXPLAIN output."""
        fields = self._key_fields()
        return self.surface if not fields else f"{self.surface}{fields!r}"


@dataclass(frozen=True)
class RSLQuery(LogicalPlan):
    """``RSL(q)`` — positions of the reverse skyline of one query."""

    surface: ClassVar[str] = "reverse_skyline"


@dataclass(frozen=True)
class MembershipMaskQuery(LogicalPlan):
    """Membership of many customers in ``RSL(q)`` (one bool each)."""

    surface: ClassVar[str] = "membership"


@dataclass(frozen=True)
class RetainedMaskQuery(LogicalPlan):
    """Which current ``RSL(q)`` members survive a refined query point."""

    surface: ClassVar[str] = "retained_mask"


@dataclass(frozen=True)
class LambdaQuery(LogicalPlan):
    """Aspect 1: the ``Λ`` window of products blocking membership."""

    surface: ClassVar[str] = "explain"


@dataclass(frozen=True)
class MWPQuery(LogicalPlan):
    """Algorithm 1 — modify the why-not point."""

    surface: ClassVar[str] = "mwp"


@dataclass(frozen=True)
class MQPQuery(LogicalPlan):
    """Algorithm 2 — modify the query point."""

    surface: ClassVar[str] = "mqp"


@dataclass(frozen=True)
class SafeRegionQuery(LogicalPlan):
    """Algorithm 3 (exact) or the Section-VI.B approximation."""

    surface: ClassVar[str] = "safe_region"
    approximate: bool = False
    k: int = 10

    def child_plans(self) -> tuple[LogicalPlan, ...]:
        return (RSLQuery(),)

    def _key_fields(self) -> tuple:
        # k only matters on the approximate path; folding it away keeps
        # every exact safe-region call on one shared plan-cache entry.
        return (self.approximate, self.k if self.approximate else 0)


@dataclass(frozen=True)
class MWQQuery(LogicalPlan):
    """Algorithm 4 — modify both, over the (approximate) safe region."""

    surface: ClassVar[str] = "mwq"
    approximate: bool = False
    k: int = 10

    def child_plans(self) -> tuple[LogicalPlan, ...]:
        return (SafeRegionQuery(approximate=self.approximate, k=self.k),)

    def _key_fields(self) -> tuple:
        return (self.approximate, self.k if self.approximate else 0)


@dataclass(frozen=True)
class BatchWhyNotQuery(LogicalPlan):
    """Many why-not questions against one query point."""

    surface: ClassVar[str] = "batch"
    approximate: bool = False
    k: int = 10

    def child_plans(self) -> tuple[LogicalPlan, ...]:
        return (
            SafeRegionQuery(approximate=self.approximate, k=self.k),
            MembershipMaskQuery(),
        )

    def _key_fields(self) -> tuple:
        return (self.approximate, self.k if self.approximate else 0)
