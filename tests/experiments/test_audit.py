"""The audit's canonical box form against the pairwise reference loop,
and a safe-region area the audit once found differing across shard
counts."""

from types import SimpleNamespace

import numpy as np

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.experiments.audit import UNIT_BOX, _cases, canonical_boxes


def _pairwise(lo, hi):
    """Drop every box contained in another (the first of equal boxes
    stays), then lexsort: the definition ``canonical_boxes`` vectorises."""
    keep = np.ones(lo.shape[0], dtype=bool)
    for i in range(lo.shape[0]):
        if not keep[i]:
            continue
        for j in range(lo.shape[0]):
            if i == j or not keep[j]:
                continue
            if np.all(lo[j] >= lo[i]) and np.all(hi[j] <= hi[i]):
                same = np.array_equal(lo[j], lo[i]) and np.array_equal(
                    hi[j], hi[i]
                )
                if not same or j > i:
                    keep[j] = False
    lo, hi = lo[keep], hi[keep]
    order = np.lexsort(np.hstack([lo, hi]).T[::-1])
    return lo[order], hi[order]


def test_canonical_boxes_matches_pairwise_loop():
    rng = np.random.default_rng(0)
    for _ in range(500):
        count, dim = int(rng.integers(0, 10)), int(rng.integers(1, 4))
        # Quarter-grid corners make duplicates, nested and zero-volume
        # boxes common.
        lo = rng.integers(0, 4, (count, dim)) / 4
        hi = lo + rng.integers(0, 3, (count, dim)) / 4
        if count:
            twins = rng.integers(0, count, count // 2 + 1)
            lo, hi = np.vstack([lo, lo[twins]]), np.vstack([hi, hi[twins]])
        region = SimpleNamespace(region=SimpleNamespace(lo=lo, hi=hi))
        got_lo, got_hi = canonical_boxes(region)
        want_lo, want_hi = _pairwise(lo, hi)
        assert np.array_equal(got_lo, want_lo)
        assert np.array_equal(got_hi, want_hi)


def test_area_bit_identical_across_shard_counts_clustered_seed4():
    """Regression: on the audit's clustered case (``--sizes 150 --seed
    4``), after its insert/delete/update program, the two-shard fold
    kept one more redundant zero-volume box than the one-shard fold.
    Their canonical boxes were equal, but the area differed in the last
    bit because the sweep measured the raw box list and the extra box
    added a slab breakpoint."""
    (case,) = [c for c in _cases(150, 4) if c.name == "clustered"]
    engines = [
        WhyNotEngine(
            case.products,
            case.customers,
            config=WhyNotConfig(
                planner="index", shards=shards, shard_backend="serial",
                **case.overrides,
            ),
            bounds=UNIT_BOX,
        )
        for shards in (1, 2)
    ]
    for step in case.program:
        for op, payload in step:
            for engine in engines:
                getattr(engine, op)(**payload)
    single, sharded = (e.safe_region(case.probes[0]) for e in engines)
    for a, b in zip(canonical_boxes(single), canonical_boxes(sharded)):
        assert np.array_equal(a, b)
    assert single.area() == sharded.area()
    for engine in engines:
        engine.close()
