"""Brute-force weighted-dominance oracle.

Deliberately naive reference implementations of the weighted query
surfaces — nested loops, no index, no kernels, no pruning — used by the
property suite and the CLI ``audit`` experiment to check the
production paths exactly.  Every function takes a raw weight vector
(``None`` = unit weights) and applies the support-projection semantics
documented in :mod:`repro.prefs`: zero-weight dimensions are dropped
from every comparison, positive magnitudes never change a verdict.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import DominancePolicy
from repro.prefs.model import support_dims

__all__ = [
    "oracle_dominates",
    "oracle_dynamic_skyline",
    "oracle_lambda_positions",
    "oracle_membership",
    "oracle_reverse_skyline",
]


def _sliced(arrays: list[np.ndarray], weights, dim: int) -> list[np.ndarray]:
    support = support_dims(
        None if weights is None else np.asarray(weights, dtype=np.float64),
        dim,
    )
    if support is None:
        return arrays
    return [np.asarray(a)[..., support] for a in arrays]


def oracle_dominates(
    a: Sequence[float],
    b: Sequence[float],
    weights=None,
    policy: DominancePolicy = DominancePolicy.WEAK,
) -> bool:
    """Does ``a`` dominate ``b`` under the weighted (projected) order?"""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    av, bv = _sliced([av, bv], weights, av.shape[0])
    if DominancePolicy(policy) is DominancePolicy.STRICT:
        return bool(np.all(av < bv))
    return bool(np.all(av <= bv) and np.any(av < bv))


def oracle_dynamic_skyline(
    points: np.ndarray,
    origin: Sequence[float],
    weights=None,
    exclude: Sequence[int] = (),
) -> np.ndarray:
    """Positions of the dynamic skyline of ``points`` w.r.t. ``origin``
    over the support dimensions (weak minimality, like the library)."""
    points = np.asarray(points, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    dists = np.abs(points - origin)
    (dists,) = _sliced([dists], weights, points.shape[1])
    excluded = set(int(i) for i in exclude)
    keep = []
    for i in range(points.shape[0]):
        if i in excluded:
            continue
        dominated = False
        for j in range(points.shape[0]):
            if j == i or j in excluded:
                continue
            if np.all(dists[j] <= dists[i]) and np.any(dists[j] < dists[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return np.asarray(keep, dtype=np.int64)


def oracle_lambda_positions(
    products: np.ndarray,
    why_not: Sequence[float],
    query: Sequence[float],
    weights=None,
    policy: DominancePolicy = DominancePolicy.WEAK,
    exclude: Sequence[int] = (),
) -> np.ndarray:
    """The Λ set: products inside the (weighted) window of ``why_not``
    around ``query`` — the culprits blocking membership."""
    products = np.asarray(products, dtype=np.float64)
    c = np.asarray(why_not, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    dim = products.shape[1]
    radii = np.abs(c - q)
    dists = np.abs(products - c)
    dists, radii = _sliced([dists, radii[None, :]], weights, dim)
    radii = radii[0]
    excluded = set(int(i) for i in exclude)
    strict = DominancePolicy(policy) is DominancePolicy.STRICT
    out = []
    for i in range(products.shape[0]):
        if i in excluded:
            continue
        if strict:
            hit = bool(np.all(dists[i] < radii))
        else:
            hit = bool(
                np.all(dists[i] <= radii) and np.any(dists[i] < radii)
            )
        if hit:
            out.append(i)
    return np.asarray(out, dtype=np.int64)


def oracle_membership(
    products: np.ndarray,
    why_not: Sequence[float],
    query: Sequence[float],
    weights=None,
    policy: DominancePolicy = DominancePolicy.WEAK,
    exclude: Sequence[int] = (),
) -> bool:
    """Is ``why_not`` in the (weighted) reverse skyline of ``query``?
    Exactly the Lemma-1 test: membership iff Λ is empty."""
    return (
        oracle_lambda_positions(
            products, why_not, query, weights, policy, exclude
        ).size
        == 0
    )


def oracle_reverse_skyline(
    products: np.ndarray,
    customers: np.ndarray,
    query: Sequence[float],
    weights=None,
    policy: DominancePolicy = DominancePolicy.WEAK,
    monochromatic: bool = False,
) -> np.ndarray:
    """Positions of every customer in the weighted ``RSL(query)``."""
    customers = np.asarray(customers, dtype=np.float64)
    members = []
    for i in range(customers.shape[0]):
        exclude = (i,) if monochromatic else ()
        if oracle_membership(
            products, customers[i], query, weights, policy, exclude
        ):
            members.append(i)
    return np.asarray(members, dtype=np.int64)
