"""The audit's canonical box form against the pairwise reference loop."""

from types import SimpleNamespace

import numpy as np

from repro.experiments.audit import canonical_boxes


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
