"""Tests for library configuration objects."""

import dataclasses

import pytest

from repro.config import (
    CostWeights,
    DominancePolicy,
    RTreeConfig,
    WhyNotConfig,
)


class TestWhyNotConfig:
    def test_defaults(self):
        config = WhyNotConfig()
        assert config.policy is DominancePolicy.STRICT
        assert config.sort_dim == 0
        assert config.margin == 0.0
        assert config.verify

    def test_frozen(self):
        config = WhyNotConfig()
        with pytest.raises(Exception):
            config.margin = 0.5

    def test_margin_bounds(self):
        WhyNotConfig(margin=0.0)
        WhyNotConfig(margin=0.999)
        with pytest.raises(ValueError):
            WhyNotConfig(margin=1.0)
        with pytest.raises(ValueError):
            WhyNotConfig(margin=-0.1)

    def test_sort_dim_validated(self):
        with pytest.raises(ValueError):
            WhyNotConfig(sort_dim=-1)

    def test_planner_modes(self):
        assert WhyNotConfig().planner == "auto"
        for pin in ("index", "kernel", "pruned"):
            assert WhyNotConfig(planner=pin).planner == pin
        for bogus in ("bogus", "fixed", "sharded"):
            with pytest.raises(ValueError, match="planner"):
                WhyNotConfig(planner=bogus)

    def test_n_jobs_is_gone(self):
        """Per-customer pre-computation runs on one thread: there is no
        worker-count field."""
        assert not hasattr(WhyNotConfig(), "n_jobs")
        with pytest.raises(TypeError):
            WhyNotConfig(n_jobs=2)

    def test_kernel_block_size_validated(self):
        WhyNotConfig(kernel_block_size=1)
        # None is the default: the engine resolves it from d via the
        # auto_block_size working-set heuristic.
        assert WhyNotConfig().kernel_block_size is None
        WhyNotConfig(kernel_block_size=None)
        with pytest.raises(ValueError):
            WhyNotConfig(kernel_block_size=0)
        with pytest.raises(ValueError):
            WhyNotConfig(kernel_block_size=-4)

    def test_planner_pin_replaces_selection_fields(self):
        """``planner`` is the only arm-selection setting."""
        for field in ("batch_kernels", "prune", "shard_dtype"):
            assert not hasattr(WhyNotConfig(), field)
            with pytest.raises(TypeError):
                WhyNotConfig(**{field: None})

    def test_unmeasured_knobs_are_gone(self):
        """The safe-region fold chunk is a module constant, and the DSL
        cache / scoped invalidation follow the default preferences'
        support: none of them is a field."""
        assert len(dataclasses.fields(WhyNotConfig)) == 12
        for field in (
            "shard_partition",
            "sr_chunk_size",
            "scoped_invalidation",
            "dsl_cache",
        ):
            assert not hasattr(WhyNotConfig(), field)
            with pytest.raises(TypeError):
                WhyNotConfig(**{field: None})

    def test_shard_fields_are_gone(self):
        """There is no process-sharded layer to configure."""
        assert len(dataclasses.fields(WhyNotConfig)) == 12
        with pytest.raises(TypeError):
            WhyNotConfig(shards=2)
        with pytest.raises(TypeError):
            WhyNotConfig(shard_backend="serial")

    def test_prune_tile_size_validated(self):
        assert WhyNotConfig().prune_tile_size is None
        WhyNotConfig(prune_tile_size=1)
        WhyNotConfig(prune_tile_size=512)
        with pytest.raises(ValueError):
            WhyNotConfig(prune_tile_size=0)
        with pytest.raises(ValueError):
            WhyNotConfig(prune_tile_size=-8)


class TestPolicyEnum:
    def test_values(self):
        assert DominancePolicy.WEAK.value == "weak"
        assert DominancePolicy.STRICT.value == "strict"

    def test_distinct(self):
        assert DominancePolicy.WEAK is not DominancePolicy.STRICT


class TestRTreeConfig:
    def test_defaults_match_page_size(self):
        # ~1536-byte pages with 40-byte 2-D entries.
        config = RTreeConfig()
        assert config.max_entries == 38

    def test_validation(self):
        with pytest.raises(ValueError):
            RTreeConfig(max_entries=3)
        with pytest.raises(TypeError):
            RTreeConfig(min_fill=0.4)


class TestCostWeights:
    def test_default_none(self):
        weights = CostWeights()
        assert weights.alpha is None and weights.beta is None

    def test_resolution_dim3(self):
        alpha, beta = CostWeights().resolved(3)
        assert len(alpha) == 3
        assert sum(alpha) == pytest.approx(1.0)
        assert alpha == beta
