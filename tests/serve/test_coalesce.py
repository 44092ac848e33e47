"""Request coalescing: batching, ordering, isolation, failure fan-out."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import WhyNotEngine
from repro.serve import ServeConfig, WhyNotService
from repro.serve.coalesce import Coalescer


def test_concurrent_same_key_requests_share_one_dispatch():
    async def scenario():
        calls = []

        async def dispatch(key, payloads):
            calls.append((key, list(payloads)))
            return [p * 10 for p in payloads]

        sizes = []
        co = Coalescer(dispatch, window_s=0.01, on_batch=sizes.append)
        results = await asyncio.gather(
            *[co.submit("k", i) for i in range(5)]
        )
        assert results == [0, 10, 20, 30, 40]  # order preserved
        assert len(calls) == 1
        assert sizes == [5]
        assert co.pending_batches == 0

    asyncio.run(scenario())


def test_different_keys_never_share_a_batch():
    async def scenario():
        calls = []

        async def dispatch(key, payloads):
            calls.append(key)
            return [f"{key}:{p}" for p in payloads]

        co = Coalescer(dispatch, window_s=0.01)
        a, b = await asyncio.gather(co.submit("a", 1), co.submit("b", 2))
        assert (a, b) == ("a:1", "b:2")
        assert sorted(calls) == ["a", "b"]

    asyncio.run(scenario())


def test_max_batch_flushes_early():
    async def scenario():
        calls = []

        async def dispatch(key, payloads):
            calls.append(len(payloads))
            return list(payloads)

        co = Coalescer(dispatch, window_s=5.0, max_batch=3)
        results = await asyncio.wait_for(
            asyncio.gather(*[co.submit("k", i) for i in range(3)]),
            timeout=1.0,  # must not wait out the 5s window
        )
        assert results == [0, 1, 2]
        assert calls == [3]

    asyncio.run(scenario())


def test_dispatch_failure_fans_out_to_all_members():
    async def scenario():
        async def dispatch(key, payloads):
            raise RuntimeError("kernel exploded")

        co = Coalescer(dispatch, window_s=0.005)
        results = await asyncio.gather(
            co.submit("k", 1), co.submit("k", 2), return_exceptions=True
        )
        assert all(isinstance(r, RuntimeError) for r in results)
        assert co.pending_batches == 0
        # The coalescer stays usable after a failed batch.
        ok = Coalescer(dispatch, window_s=0.0)
        with pytest.raises(RuntimeError):
            await ok.submit("k", 3)

    asyncio.run(scenario())


def test_result_count_mismatch_is_an_error():
    async def scenario():
        async def dispatch(key, payloads):
            return []  # dispatcher bug: wrong arity

        co = Coalescer(dispatch, window_s=0.0)
        with pytest.raises(RuntimeError, match="results"):
            await co.submit("k", 1)

    asyncio.run(scenario())


def test_sequential_submissions_open_fresh_batches():
    async def scenario():
        calls = []

        async def dispatch(key, payloads):
            calls.append(list(payloads))
            return list(payloads)

        co = Coalescer(dispatch, window_s=0.0)
        assert await co.submit("k", 1) == 1
        assert await co.submit("k", 2) == 2
        assert calls == [[1], [2]]

    asyncio.run(scenario())


def test_default_window_dispatches_a_lone_request_without_waiting(monkeypatch):
    """Under ``ServeConfig()`` a lone request is dispatched on the next
    loop ticks: no ``wait_for`` window is slept first."""
    waits = []
    real_wait_for = asyncio.wait_for

    def spy(*args, **kwargs):
        waits.append(args)
        return real_wait_for(*args, **kwargs)

    monkeypatch.setattr(asyncio, "wait_for", spy)

    async def scenario():
        calls = []

        async def dispatch(key, payloads):
            calls.append(list(payloads))
            return list(payloads)

        co = Coalescer(dispatch, window_s=ServeConfig().coalesce_window_s)
        request = asyncio.ensure_future(co.submit("k", 7))
        for _ in range(3):  # submit, then the dispatch task
            await asyncio.sleep(0)
        assert calls == [[7]]
        assert await request == 7

    asyncio.run(scenario())
    assert waits == []


def test_default_window_still_coalesces_a_one_tick_burst():
    """16 requests gathered in one tick form one batch with no window,
    below ``max_batch`` so the flush cannot come from the size trigger."""
    async def scenario():
        rng = np.random.default_rng(3)
        engine = WhyNotEngine(
            rng.random((40, 2)), customers=rng.random((20, 2))
        )
        config = ServeConfig(max_inflight=16)
        assert config.coalesce_window_s == 0.0 and config.max_batch > 16
        async with WhyNotService(engine, config) as svc:
            await asyncio.gather(
                *(svc.why_not(i, [0.5, 0.5]) for i in range(16))
            )
            assert int(svc.m_batches.value) == 1
            assert int(svc.m_coalesced.value) == 15

    asyncio.run(scenario())
