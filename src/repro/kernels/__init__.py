"""Vectorised batch kernels for bulk reverse-skyline workloads.

Every multi-customer path in the library — BBRS verification, lost-customer
sweeps, MQP experiment scoring, DSL pre-computation — reduces to evaluating
the Dellis-Seeger window emptiness test for *many* customers against the
same query.  Doing that one customer at a time through the index is a
Python-level loop and dominates MWQ runtime (the paper's Fig. 15); these
kernels evaluate all customers in one broadcasted NumPy pass, tiled over a
configurable block size so the intermediate arrays stay bounded.

* :mod:`repro.kernels.membership` — blocked batch membership / Λ-count /
  tolerance-aware verification kernels;
* :mod:`repro.kernels.pruned` — filter-refinement twins of the same
  kernels, classifying (tile, chunk) AABB pairs via :mod:`repro.prune`
  before touching the exact blocked path;
* :mod:`repro.kernels.parallel` — :func:`available_cpus`, the
  affinity-aware CPU count the served benchmark records.
"""

from repro.kernels.membership import (
    AUTO_BLOCK_BYTES,
    DEFAULT_BLOCK_SIZE,
    KernelCounters,
    auto_block_size,
    batch_lambda_counts,
    batch_lambda_sets,
    batch_verify_membership,
    batch_window_membership,
    resolve_block_size,
)
from repro.kernels.parallel import available_cpus
from repro.kernels.pruned import (
    batch_lambda_counts_pruned,
    batch_verify_membership_pruned,
    batch_window_membership_pruned,
)

__all__ = [
    "AUTO_BLOCK_BYTES",
    "DEFAULT_BLOCK_SIZE",
    "KernelCounters",
    "auto_block_size",
    "available_cpus",
    "batch_window_membership",
    "batch_lambda_counts",
    "batch_lambda_sets",
    "batch_verify_membership",
    "batch_window_membership_pruned",
    "batch_lambda_counts_pruned",
    "batch_verify_membership_pruned",
    "resolve_block_size",
]
