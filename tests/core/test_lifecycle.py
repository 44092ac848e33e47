"""Engine lifecycle: close(), context management, thread-safety switch."""

from __future__ import annotations

import numpy as np
import pytest

from repro import WhyNotEngine


def _engine() -> WhyNotEngine:
    rng = np.random.default_rng(11)
    return WhyNotEngine(rng.random((30, 2)), customers=rng.random((20, 2)))


def test_close_is_idempotent_and_observable():
    engine = _engine()
    assert not engine.closed
    engine.reverse_skyline([0.5, 0.5])
    engine.close()
    assert engine.closed
    engine.close()  # second close is a no-op
    assert engine.closed


def test_context_manager_closes():
    with _engine() as engine:
        engine.reverse_skyline([0.4, 0.6])
        assert not engine.closed
    assert engine.closed


def test_context_manager_closes_on_error():
    engine = _engine()
    with pytest.raises(ValueError, match="boom"):
        with engine:
            raise ValueError("boom")
    assert engine.closed


def test_enable_thread_safety_locks_registry():
    engine = _engine()
    assert not engine.obs.metrics.thread_safe
    engine.enable_thread_safety()
    assert engine.obs.metrics.thread_safe
    engine.enable_thread_safety()  # idempotent
    assert engine.obs.metrics.thread_safe
    # Metrics created after the switch are locked too.
    counter = engine.obs.counter("test.after_switch")
    assert counter._lock is not None
