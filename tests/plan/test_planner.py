"""Planner operator selection: each pin forces its arm, ``auto``
resolves to the pruned or kernel pin by one refine-rate rule, and an
unknown surface is rejected."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.config import WhyNotConfig
from repro.core.engine import WhyNotEngine
from repro.core.safe_region import compute_safe_region
from repro.plan.logical import (
    BatchWhyNotQuery,
    LambdaQuery,
    MembershipMaskQuery,
    MQPQuery,
    MWPQuery,
    MWQQuery,
    RetainedMaskQuery,
    RSLQuery,
    SafeRegionQuery,
)
from repro.plan.operators import candidate_operators
from repro.plan.planner import PRUNE_BELOW, Planner


def no_rate() -> float:
    raise AssertionError("a pinned planner never reads the refine rate")


SURFACES = (
    RSLQuery(),
    MembershipMaskQuery(),
    RetainedMaskQuery(),
    SafeRegionQuery(),
    BatchWhyNotQuery(),
)

#: pin -> operator per surface: RSL, membership, retained, exact safe
#: region, batch.
PIN_TABLE = {
    "index": (
        "rsl-index-verify",
        "membership-index-loop",
        "retained-index-loop",
        "sr-cached-fold",
        "batch-sequential",
    ),
    "kernel": (
        "rsl-kernel-verify",
        "membership-kernel",
        "retained-kernel",
        "sr-cached-fold",
        "batch-prefilter",
    ),
    "pruned": (
        "rsl-pruned-kernel",
        "membership-pruned",
        "retained-kernel",
        "sr-cached-fold",
        "batch-prefilter",
    ),
}


@pytest.mark.parametrize("pin", list(PIN_TABLE))
def test_pin_table(pin):
    """Every pin forces exactly its arm on every surface, planned and
    executed: the batch prefilter's membership child follows the pin
    too."""
    planner = Planner(WhyNotConfig(planner=pin))
    chosen = tuple(planner.choose(q, no_rate).name for q in SURFACES)
    assert chosen == PIN_TABLE[pin]
    batch = planner.plan(BatchWhyNotQuery(), no_rate)
    assert [c.operator.name for c in batch.children] == list(
        PIN_TABLE[pin][3:4] + (PIN_TABLE[pin][1:2] if pin != "index" else ())
    )
    points = np.random.default_rng(7).random((40, 2))
    engine = WhyNotEngine(points, config=WhyNotConfig(planner=pin))
    q = np.array([0.5, 0.5])
    engine.safe_region(q)
    assert engine.last_plan.operator.name == PIN_TABLE[pin][3]
    engine.membership_mask([0, 1, 2], q)
    assert engine.last_plan.operator.name == PIN_TABLE[pin][1]


class TestFixedMode:
    """Pinned arms: the planner choice is fixed by ``config.planner``."""

    def test_kernel_config_picks_kernel_operators(self):
        planner = Planner(WhyNotConfig(planner="kernel"))
        assert planner.choose(RSLQuery(), no_rate).name == "rsl-kernel-verify"
        assert (
            planner.choose(MembershipMaskQuery(), no_rate).name
            == "membership-kernel"
        )
        assert planner.choose(RetainedMaskQuery(), no_rate).name == "retained-kernel"
        assert (
            planner.choose(BatchWhyNotQuery(), no_rate).name
            == "batch-prefilter"
        )

    def test_no_kernel_config_picks_index_operators(self):
        planner = Planner(WhyNotConfig(planner="index"))
        assert planner.choose(RSLQuery(), no_rate).name == "rsl-index-verify"
        assert (
            planner.choose(MembershipMaskQuery(), no_rate).name
            == "membership-index-loop"
        )
        assert (
            planner.choose(RetainedMaskQuery(), no_rate).name
            == "retained-index-loop"
        )
        assert (
            planner.choose(BatchWhyNotQuery(), no_rate).name
            == "batch-sequential"
        )

    def test_dsl_cache_config_selects_safe_region_fold(self):
        """One local fold either way: it reads the DSL cache whenever the
        engine keeps one (full-support defaults) and equals the uncached
        fold."""
        for weights in (None, (0.0, 1.0)):
            config = WhyNotConfig(planner="index", prefs_weights=weights)
            planner = Planner(config)
            chosen = planner.choose(SafeRegionQuery(), no_rate)
            assert chosen.name == "sr-cached-fold"
        points = np.random.default_rng(8).random((30, 2))
        cached = WhyNotEngine(points)
        assert cached.dsl_cache is not None
        q = np.array([0.5, 0.5])
        uncached = compute_safe_region(
            cached.index,
            points,
            q,
            cached.reverse_skyline(q),
            cached._geometry_bounds(q),
            self_exclude=True,
            dsl_cache=None,
        )
        assert cached.safe_region(q).area() == uncached.area()

    def test_approximate_safe_region_has_one_operator(self):
        for pin in ("index", "kernel", "pruned"):
            planner = Planner(WhyNotConfig(planner=pin))
            chosen = planner.choose(
                SafeRegionQuery(approximate=True, k=10), no_rate
            )
            assert chosen.name == "sr-approx-store"


def _load_bench_pruning():
    """``benchmarks/bench_pruning.py`` by path (benchmarks are scripts,
    not a package)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_pruning.py"
    spec = importlib.util.spec_from_file_location("bench_pruning", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Every logical surface, approximate variants included.
AUTO_SURFACES = (
    RSLQuery(),
    MembershipMaskQuery(),
    RetainedMaskQuery(),
    LambdaQuery(),
    MWPQuery(),
    MQPQuery(),
    SafeRegionQuery(),
    SafeRegionQuery(approximate=True, k=4),
    MWQQuery(),
    MWQQuery(approximate=True, k=4),
    BatchWhyNotQuery(),
)

#: (surface, prunable data?) -> root operator ``auto`` must pick.
AUTO_TABLE = {
    "reverse_skyline": ("rsl-kernel-verify", "rsl-pruned-kernel"),
    "membership": ("membership-kernel", "membership-pruned"),
    "retained_mask": ("retained-kernel", "retained-kernel"),
    "explain": ("lambda-window", "lambda-window"),
    "mwp": ("mwp-staircase", "mwp-staircase"),
    "mqp": ("mqp-staircase", "mqp-staircase"),
    "safe_region": ("sr-cached-fold", "sr-cached-fold"),
    "mwq": ("mwq-combine", "mwq-combine"),
    "batch": ("batch-prefilter", "batch-prefilter"),
}


@pytest.fixture(scope="module")
def rule_engines():
    """One auto engine per (backend, layout): the ``dense`` layout of
    the pruning benchmark refines every pair (rate 1.0); its ``sparse``
    layout with small tiles refines few (rate below PRUNE_BELOW)."""
    bench = _load_bench_pruning()
    engines = {}
    for backend in ("scan", "rtree"):
        for kind in ("dense", "sparse"):
            products, customers, _ = bench.make_workload(kind, 600, 7)
            engines[backend, kind] = WhyNotEngine(
                products,
                customers,
                backend=backend,
                config=WhyNotConfig(prune_tile_size=64),
            )
    return engines


class RateSpy:
    """Counts reads of the engine's centroid refine rate."""

    def __init__(self, engine):
        self.rate = engine.prune_summaries.centroid_refine_rate
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.rate()


class TestAutoMode:
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("backend", ["scan", "rtree"])
    @pytest.mark.parametrize(
        "logical", AUTO_SURFACES, ids=lambda q: q.describe()
    )
    def test_decision_table(self, rule_engines, backend, kind, logical):
        """``auto`` is the pruned pin on prunable data for surfaces with
        a pruned operator and the kernel pin everywhere else; it never
        reaches an index variant and reads the refine rate only for a
        surface that registers a pruned operator."""
        engine = rule_engines[backend, kind]
        rate = engine.prune_summaries.centroid_refine_rate()
        prunable = kind == "sparse"
        assert (rate <= PRUNE_BELOW) == prunable, rate
        spy = RateSpy(engine)
        chosen = engine.planner.choose(logical, spy)
        expected = AUTO_TABLE[logical.surface][prunable]
        if logical.surface == "safe_region" and logical.approximate:
            expected = "sr-approx-store"
        assert chosen.name == expected
        has_pruned = any(
            op.variant == "pruned" for op in candidate_operators(logical)
        )
        assert spy.calls == (1 if has_pruned else 0)
        pinned = Planner(WhyNotConfig(planner="pruned" if prunable else "kernel"))
        for node in engine.planner.plan(logical, spy).walk():
            assert node.operator.variant != "index", node.operator.name
            assert node.operator is pinned.choose(node.logical, no_rate)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_engine_plans_through_the_summaries_probe(
        self, rule_engines, kind, monkeypatch
    ):
        """The engine hands the planner its summaries' centroid probe:
        a membership plan reads it once, an explain plan never."""
        engine = rule_engines["scan", kind]
        engine.plan_cache.clear()
        spy = RateSpy(engine)
        monkeypatch.setattr(engine.prune_summaries, "centroid_refine_rate", spy)
        q = np.array([0.5, 0.5])
        engine.explain(0, q)
        assert spy.calls == 0
        engine.membership_mask([0, 1, 2], q)
        assert spy.calls == 1
        expected = "membership-pruned" if kind == "sparse" else "membership-kernel"
        assert engine.last_plan.operator.name == expected

    def test_auto_is_deterministic(self):
        planner = Planner(WhyNotConfig(planner="auto"))
        names = {
            planner.choose(RSLQuery(), lambda: 1.0).name for _ in range(10)
        }
        assert names == {"rsl-kernel-verify"}


class TestCapabilityGating:
    def test_unknown_surface_rejected(self):
        class Bogus(RSLQuery):
            surface = "bogus"

        planner = Planner(WhyNotConfig())
        with pytest.raises(ValueError):
            planner.candidates(Bogus())


class TestPlanTrees:
    def test_safe_region_plan_nests_rsl_child(self):
        planner = Planner(WhyNotConfig())
        node = planner.plan(SafeRegionQuery(), lambda: 1.0)
        assert node.logical.surface == "safe_region"
        assert [c.logical.surface for c in node.children] == ["reverse_skyline"]

    def test_batch_prefilter_plan_has_two_children(self):
        planner = Planner(WhyNotConfig(planner="kernel"))
        node = planner.plan(BatchWhyNotQuery(), no_rate)
        assert node.operator.name == "batch-prefilter"
        surfaces = [c.logical.surface for c in node.children]
        assert surfaces == ["safe_region", "membership"]

    def test_batch_sequential_plan_drops_prefilter_child(self):
        planner = Planner(WhyNotConfig(planner="index"))
        node = planner.plan(BatchWhyNotQuery(), no_rate)
        assert node.operator.name == "batch-sequential"
        surfaces = [c.logical.surface for c in node.children]
        assert surfaces == ["safe_region"]


class TestEngineWiring:
    def test_engine_planner_mode_from_config(self):
        points = np.random.default_rng(0).random((40, 2))
        auto = WhyNotEngine(points)
        pinned = WhyNotEngine(points, config=WhyNotConfig(planner="pruned"))
        assert auto.planner.config.planner == "auto"
        assert pinned.planner.config.planner == "pruned"

    def test_last_plan_tracks_surface_calls(self):
        points = np.random.default_rng(1).random((40, 2))
        engine = WhyNotEngine(points)
        q = np.array([0.5, 0.5])
        engine.reverse_skyline(q)
        assert engine.last_plan.logical.surface == "reverse_skyline"
        engine.safe_region(q)
        assert engine.last_plan.logical.surface == "safe_region"
