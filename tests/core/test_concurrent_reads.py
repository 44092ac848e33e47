"""Satellite 3: concurrent pinned readers are bit-identical to serial.

N reader threads, each holding a snapshot lease and a pinned session,
answer why-not questions while a writer mutates the market between
epochs.  Every threaded answer must equal the serial single-threaded
answer for the same epoch bit for bit; no ``StaleSessionError`` may
leak mid-batch; every lease and gate hold must balance out.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import WhyNotEngine
from repro.core.batch import answer_why_not
from repro.serve.serialize import canonical_json, serialize_answer

N_THREADS = 4
EPOCHS = 3
QUESTIONS = list(range(8))
QUERY = np.array([0.45, 0.55])


def _make_engine() -> WhyNotEngine:
    rng = np.random.default_rng(77)
    return WhyNotEngine(
        rng.random((50, 2)), customers=rng.random((30, 2)), backend="rtree"
    )


def _mutation_for(epoch: int) -> list:
    return [[0.05 + 0.12 * epoch, 0.92 - 0.11 * epoch]]


def _answer(engine: WhyNotEngine, question: int) -> str:
    return canonical_json(
        serialize_answer(answer_why_not(engine, question, QUERY))
    )


def _serial_expectations() -> list:
    engine = _make_engine()
    expected = []
    for epoch in range(EPOCHS):
        expected.append([_answer(engine, i) for i in QUESTIONS])
        engine.insert_products(_mutation_for(epoch))
    engine.close()
    return expected


def test_threaded_pinned_reads_match_serial():
    expected = _serial_expectations()
    engine = _make_engine()
    engine.enable_thread_safety()
    results = [[None] * len(QUESTIONS) for _ in range(EPOCHS)]
    errors: list = []

    for epoch in range(EPOCHS):
        started = threading.Barrier(N_THREADS + 1, timeout=10)

        def reader(tid: int, epoch: int = epoch) -> None:
            try:
                lease = engine.leases.acquire(timeout=10)
                try:
                    session = engine.session()
                    assert session.epoch == epoch
                    started.wait()
                    for i in QUESTIONS[tid::N_THREADS]:
                        results[epoch][i] = _answer(engine, i)
                        # The pinned session stays valid for the whole
                        # batch: the writer cannot land mid-lease.
                        assert not session.stale
                finally:
                    lease.release()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
                try:
                    started.wait()
                except threading.BrokenBarrierError:
                    pass

        threads = [
            threading.Thread(target=reader, args=(tid,))
            for tid in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        started.wait()  # all readers hold their leases now
        time.sleep(0.01)

        # The writer drains concurrently with the in-flight readers:
        # it must wait them out, then land the mutation atomically.
        with engine.leases.drain(timeout=10):
            assert engine.leases.active == 0
            engine.insert_products(_mutation_for(epoch))
        for t in threads:
            t.join(timeout=10)

        assert not errors, errors
        assert engine.dataset_epoch == epoch + 1
        assert engine.leases.published_epoch == epoch + 1

    assert results == expected  # bit-identical, every epoch

    # Counters and holds balance out.
    assert engine.leases.active == 0
    assert engine.leases.acquired_total == EPOCHS * N_THREADS
    assert engine.gate.active_readers == 0
    assert not engine.gate.write_held
    engine.close()


def test_stale_session_raises_only_across_epochs():
    """A session pinned before the writer's batch fails *cleanly* after
    it — structured attributes set, never a torn mid-batch answer."""
    from repro.exceptions import StaleSessionError

    engine = _make_engine()
    session = engine.session()
    session.reverse_skyline(QUERY)
    engine.insert_products([[0.5, 0.5]])
    with pytest.raises(StaleSessionError) as excinfo:
        session.reverse_skyline(QUERY)
    assert excinfo.value.pinned_epoch == 0
    assert excinfo.value.current_epoch == 1
    session.refresh()
    session.reverse_skyline(QUERY)  # usable again after re-pinning
    engine.close()
