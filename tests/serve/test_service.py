"""WhyNotService: bit-identity, coalescing, writes, shedding, lifecycle."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import WhyNotEngine
from repro.core.batch import answer_why_not
from repro.exceptions import InvalidParameterError
from repro.serve import (
    QueueFullError,
    ServeConfig,
    WhyNotService,
    canonical_json,
    serialize_answer,
    serialize_explanation,
    serialize_safe_region,
)

QUERY = [0.45, 0.55]


def _stores() -> tuple:
    rng = np.random.default_rng(42)
    return rng.random((50, 2)), rng.random((30, 2))


def _engine() -> WhyNotEngine:
    products, customers = _stores()
    return WhyNotEngine(products, customers=customers)


def _direct(question: int, epoch_mutations: list = ()) -> str:
    """The canonical direct-engine answer on a twin engine."""
    twin = _engine()
    for op, payload in epoch_mutations:
        getattr(twin, op)(**payload)
    try:
        return canonical_json(
            serialize_answer(answer_why_not(twin, question, np.asarray(QUERY)))
        )
    finally:
        twin.close()


@pytest.mark.parametrize("coalesce", [True, False])
def test_served_answers_bit_identical_to_direct(coalesce):
    async def scenario():
        cfg = ServeConfig(coalesce=coalesce, coalesce_window_s=0.002)
        async with WhyNotService(_engine(), cfg) as svc:
            outs = await asyncio.gather(
                *[svc.why_not(i, QUERY) for i in range(8)]
            )
            for i, out in enumerate(outs):
                assert out["epoch"] == 0
                assert canonical_json(out["result"]) == _direct(i)
            if coalesce:
                assert int(svc.m_coalesced.value) > 0
            else:
                assert int(svc.m_coalesced.value) == 0
            assert int(svc.m_completed.value) == 8

    asyncio.run(scenario())


def test_safe_region_and_explain_match_direct_and_plan_cache_hits():
    async def scenario():
        engine = _engine()
        async with WhyNotService(engine) as svc:
            twin = _engine()
            served = await svc.safe_region(QUERY)
            direct = serialize_safe_region(twin.safe_region(np.asarray(QUERY)))
            assert canonical_json(served["result"]) == canonical_json(direct)
            hits = engine.obs.metrics.get("plan.cache_hits").value
            await svc.safe_region(QUERY)  # second identical request
            assert engine.obs.metrics.get("plan.cache_hits").value > hits

            served = await svc.explain(3, QUERY)
            direct = serialize_explanation(twin.explain(3, np.asarray(QUERY)))
            assert canonical_json(served["result"]) == canonical_json(direct)
            twin.close()

    asyncio.run(scenario())


def test_mutation_advances_epoch_and_reads_follow():
    async def scenario():
        engine = _engine()
        async with WhyNotService(engine) as svc:
            before = await svc.why_not(2, QUERY)
            assert before["epoch"] == 0
            mutation = ("insert_products", {"points": [[0.9, 0.9]]})
            out = await svc.mutate(mutation[0], **mutation[1])
            assert out["epoch"] == 1
            assert engine.leases.published_epoch == 1
            after = await svc.why_not(2, QUERY)
            assert after["epoch"] == 1
            assert canonical_json(after["result"]) == _direct(2, [mutation])
            assert int(svc.m_drains.value) == 1
            assert int(svc.m_mutations.value) == 1

    asyncio.run(scenario())


def test_mixed_read_write_workload_stays_consistent():
    async def scenario():
        engine = _engine()
        cfg = ServeConfig(max_inflight=8, coalesce_window_s=0.001)
        async with WhyNotService(engine, cfg) as svc:
            async def read(i):
                return await svc.why_not(i % 6, QUERY, deadline_s=20)

            async def write(step):
                await asyncio.sleep(0.002 * step)
                return await svc.mutate(
                    "insert_products",
                    points=[[0.8 + 0.01 * step, 0.1 + 0.01 * step]],
                )

            outs = await asyncio.gather(
                *[read(i) for i in range(12)], write(1), write(2)
            )
            reads, writes = outs[:12], outs[12:]
            # Every read answered at a real epoch and matches the direct
            # answer for that same generation.
            mutations_by_epoch = {
                1: [("insert_products", {"points": [[0.81, 0.11]]})],
                2: [
                    ("insert_products", {"points": [[0.81, 0.11]]}),
                    ("insert_products", {"points": [[0.82, 0.12]]}),
                ],
            }
            assert sorted(w["epoch"] for w in writes) == [1, 2]
            for i, out in enumerate(reads):
                epoch = out["epoch"]
                assert epoch in (0, 1, 2)
                expected = _direct(i % 6, mutations_by_epoch.get(epoch, []))
                assert canonical_json(out["result"]) == expected
        assert engine.leases.active == 0

    asyncio.run(scenario())


def test_queue_full_sheds_with_429():
    async def scenario():
        cfg = ServeConfig(max_inflight=1, max_queue=0, coalesce=False)
        async with WhyNotService(_engine(), cfg) as svc:
            release = asyncio.Event()

            async def hog():
                assert svc.admission is not None
                loop = asyncio.get_running_loop()
                async with svc.admission.slot(loop.time() + 5):
                    await release.wait()

            task = asyncio.create_task(hog())
            await asyncio.sleep(0.01)
            with pytest.raises(QueueFullError):
                await svc.why_not(0, QUERY)
            assert int(svc.m_shed_queue.value) == 1
            release.set()
            await task
            # Service recovers once the slot frees.
            out = await svc.why_not(0, QUERY)
            assert canonical_json(out["result"]) == _direct(0)

    asyncio.run(scenario())


def test_unknown_mutation_op_refused():
    async def scenario():
        async with WhyNotService(_engine()) as svc:
            with pytest.raises(InvalidParameterError, match="unknown mutation"):
                await svc.mutate("drop_tables", points=[])

    asyncio.run(scenario())


def test_stop_closes_engine_and_refuses_new_requests():
    async def scenario():
        engine = _engine()
        svc = WhyNotService(engine)
        await svc.start()
        await svc.why_not(0, QUERY)
        await svc.stop()
        assert engine.closed
        with pytest.raises(RuntimeError, match="not running"):
            await svc.why_not(0, QUERY)
        with pytest.raises(RuntimeError, match="not running"):
            await svc.mutate("insert_products", points=[[0.5, 0.5]])

    asyncio.run(scenario())


def test_mutation_error_propagates_but_batch_survives():
    async def scenario():
        engine = _engine()
        async with WhyNotService(engine) as svc:
            with pytest.raises(Exception):
                # Out-of-range delete position fails inside the writer.
                await svc.mutate("delete_products", positions=[10_000])
            # The writer task is still alive and applies the next one.
            out = await svc.mutate("insert_products", points=[[0.7, 0.7]])
            assert out["epoch"] == engine.dataset_epoch

    asyncio.run(scenario())


def test_health_and_metrics_surface():
    async def scenario():
        async with WhyNotService(_engine()) as svc:
            await svc.why_not(1, QUERY)
            health = svc.health()
            assert health["status"] == "ok"
            assert health["leases"] == 0
            text = svc.metrics_text()
            assert "serve_requests_total" in text
            assert "serve_latency_why_not" in text
            assert "serve_queue_depth" in text

    asyncio.run(scenario())


@pytest.mark.parametrize("coalesce", [True, False])
def test_serialize_answer_never_runs_on_the_loop_thread(coalesce, monkeypatch):
    """Answers are serialized in the executor call that computes them:
    the event loop only routes the finished dicts."""
    import threading

    from repro.serve import service as service_module

    threads: list = []
    original = service_module.serialize_answer

    def recording(answer):
        threads.append(threading.get_ident())
        return original(answer)

    monkeypatch.setattr(service_module, "serialize_answer", recording)

    async def scenario():
        loop_thread = threading.get_ident()
        async with WhyNotService(_engine(), ServeConfig(coalesce=coalesce)) as svc:
            outs = await asyncio.gather(
                *[svc.why_not(i, QUERY) for i in range(6)]
            )
        for i, out in enumerate(outs):
            assert canonical_json(out["result"]) == _direct(i)
        return loop_thread

    loop_thread = asyncio.run(scenario())
    assert len(threads) == 6
    assert loop_thread not in threads
