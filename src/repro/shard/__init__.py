"""Partitioned (sharded) execution of the batch kernels.

The Dellis-Seeger membership test is per-customer independent and the
safe-region fold is an intersection of per-member regions — both
embarrassingly shardable.
This package space-partitions the product/customer matrices into
shards (reusing the STR tiling of :mod:`repro.index.bulkload`), runs
the blocked kernels of :mod:`repro.kernels` per shard — in a
``ProcessPoolExecutor`` over ``multiprocessing.shared_memory`` views
(``backend="process"``) or in-process (``backend="serial"``, the
deterministic oracle) — and merges:

* membership / verification masks — boolean union of disjoint shards;
* safe-region partial folds — region intersection of per-shard folds.

The merged results are **bit-identical** to the single-process
kernels (property-tested): masks because the per-row
predicate touches only that row's data, the region fold because box
intersection distributes and containment survives further
intersection, so the final set of maximal boxes is order-invariant.

Layering: this package sits beside the kernels — it may import
``repro.kernels`` / ``repro.index`` / ``repro.obs`` (and the geometry
core), never ``repro.plan`` / ``repro.experiments`` / ``repro.viz``.
The planner integration lives in :mod:`repro.plan.operators`.
"""

from repro.shard.executor import ShardExecutor
from repro.shard.partition import partition_matrix, shard_assignment
from repro.shard.sharedmem import MatrixSpec, SharedMatrix, attach_matrix
from repro.shard.stats import ShardStats

__all__ = [
    "MatrixSpec",
    "ShardExecutor",
    "ShardStats",
    "SharedMatrix",
    "attach_matrix",
    "partition_matrix",
    "shard_assignment",
]
