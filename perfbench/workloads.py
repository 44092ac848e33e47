"""Seeded inputs and the closed-loop client of the three workloads.

Everything a run sends to the service is a pure function of ``--seed``
and ``--seconds``: the data, the hot queries, every burst's customers,
every cold question and the mutation log.  One client drives the
service, with one request or one 16-request burst in flight at a time,
so batch composition never depends on host timing.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.engine import WhyNotEngine
from repro.serve import ServeConfig, WhyNotService, canonical_json

#: Requests per burst; also ``ServeConfig.max_batch``/``max_inflight``,
#: so a batch flushes when its 16th request arrives, never on the timer.
BURST = 16
HOT_QUERIES = 8
CHURN_QUERIES = 4
#: Fresh questions of the cold-explore warm pass (answers discarded).
COLD_WARM_QUESTIONS = 16
#: Query points lie in this square.
LO, HI = 0.05, 0.95
#: Churn's mutation cycle: 60% update, 20% insert, 20% delete.
CHURN_PATTERN = ("update", "insert", "update", "delete", "update")

# Independent random streams, one per kind of input.
_DATA, _HOT, _DRAWS, _CHURN_LOG, _COLD, _COLD_WARM = range(6)

SERVE_CONFIG = ServeConfig(max_batch=BURST, max_inflight=BURST)

_PROBE_ARRAY = np.linspace(0.0, 1.0, 128).reshape(64, 2)


#: Seconds the client waits for the service to go idle before a probe.
IDLE_WAIT_S = 5.0


def host_probe() -> tuple[float, float]:
    """``(wall seconds, thread CPU seconds)`` taken by a fixed piece of
    reference work: a pure-Python loop plus small NumPy reductions, the
    mix the answer path runs.  The CPU time is the calling thread's own,
    so waiting for the GIL or for a CPU that another thread holds does
    not count; on a host whose speed drifts it still grows with the
    drift, because it is the probe's own instructions that run slower."""
    wall, cpu = time.perf_counter(), time.thread_time()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    for _ in range(100):
        np.all(_PROBE_ARRAY < 0.9, axis=1).any()
    return time.perf_counter() - wall, time.thread_time() - cpu


@dataclass(frozen=True)
class Spec:
    """One workload: data size and how much traffic per second of
    ``--seconds``.

    ``--seconds`` is the time budget of a whole run on the reference
    host, not only of its measured phase: set-up, measured phase and
    verification together take about that long.  A run does
    ``seconds * units_per_s`` bursts (hot-batch), questions
    (cold-explore) or cycles (churn), rounded up to whole rounds over
    the queries, so its work is fixed before it starts and a slower host
    takes longer.
    """

    name: str
    n: int
    units_per_s: float
    round_size: int

    def units(self, seconds: float) -> int:
        rounds = math.ceil(seconds * self.units_per_s / self.round_size)
        return self.round_size * rounds


SPECS = {
    spec.name: spec
    for spec in (
        Spec("hot-batch", 2000, 1.6, HOT_QUERIES),
        Spec("cold-explore", 10000, 4.8, 16),
        Spec("churn", 2000, 1.6, CHURN_QUERIES),
    )
}


def stream(seed: int, kind: int) -> np.random.Generator:
    return np.random.default_rng([seed, kind])


def stratified(rng: np.random.Generator, count: int, side: int,
               lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """``count`` points, point ``i`` uniform in cell ``i % side**2`` of a
    ``side`` x ``side`` grid over ``[lo, hi]^2``: every seed covers the
    square evenly, so per-seed cost varies less than with free draws."""
    cells = np.arange(count) % (side * side)
    corner = np.stack([cells % side, cells // side], axis=1)
    width = (hi - lo) / side
    return lo + (corner + rng.uniform(0.0, 1.0, (count, 2))) * width


def hot_queries(seed: int) -> np.ndarray:
    """8 hot queries in ``[0.05, 0.95]^2``, two per quadrant: query ``i``
    sits near the centre of the left (``i < 4``) or right half of
    quadrant ``i % 4``, so churn's first four cover one quadrant each.
    The seed jitters them by at most 2% of the square; larger moves
    change the per-seed cost more than the program's noise does."""
    i = np.arange(HOT_QUERIES)
    quadrant = np.stack([i % 4 % 2, i % 4 // 2], axis=1) * 0.5
    centre = quadrant + np.stack([i // 4 * 0.25 + 0.125,
                                  np.full(HOT_QUERIES, 0.25)], axis=1)
    jitter = stream(seed, _HOT).uniform(-0.02, 0.02, (HOT_QUERIES, 2))
    return LO + (centre + jitter) * (HI - LO)


def dataset(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bichromatic d=2 products and customers, uniform in [0,1]^2."""
    rng = stream(seed, _DATA)
    return rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.0, 1.0, (n, 2))


def rsl_members(
    products: np.ndarray, customers: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """Boolean mask of customers in RSL(query), by brute force.

    A customer is a member unless some product dynamically dominates the
    query with respect to it (no farther in any dimension, nearer in
    one).  Computed here, not by the program, so the traffic does not
    depend on the code under test.
    """
    member = np.ones(customers.shape[0], dtype=bool)
    for start in range(0, customers.shape[0], 256):
        c = customers[start:start + 256]
        no_farther = np.ones((c.shape[0], products.shape[0]), dtype=bool)
        nearer = np.zeros_like(no_farther)
        for dim in range(c.shape[1]):
            dp = np.abs(products[None, :, dim] - c[:, dim, None])
            dq = np.abs(query[dim] - c[:, dim, None])
            no_farther &= dp <= dq
            nearer |= dp < dq
        member[start:start + 256] = ~(no_farther & nearer).any(axis=1)
    return member


def mutation_log(seed: int, count: int, products: np.ndarray) -> list[tuple]:
    """``count`` single-product mutations cycling through
    :data:`CHURN_PATTERN`.  New coordinates are stratified on a 4x4
    grid; an update or delete hits the product nearest to a point
    stratified the same way, mirrored through the centre.  The op mix
    and the places it touches are thus the same for every seed."""
    rng = stream(seed, _CHURN_LOG)
    points = stratified(rng, count, 4)
    targets = 1.0 - stratified(rng, count, 4)
    current = np.array(products)
    log: list[tuple] = []
    for i in range(count):
        op = CHURN_PATTERN[i % len(CHURN_PATTERN)]
        point = points[i:i + 1]
        nearest = int(np.abs(current - targets[i]).sum(axis=1).argmin())
        if op == "update":
            payload = {"positions": [nearest], "points": point.tolist()}
            current[nearest] = point
        elif op == "insert":
            payload = {"points": point.tolist()}
            current = np.vstack([current, point])
        else:
            payload = {"positions": [nearest]}
            current = np.delete(current, nearest, axis=0)
        log.append(("mutate", f"{op}_products", payload))
    return log


@dataclass
class Inputs:
    """Everything one run of a workload sends, fixed before it starts.

    ``warm`` and ``measured`` hold ``("burst", query, why_nots)``,
    ``("read", query, why_not)`` and ``("mutate", op, payload)`` items.
    """

    products: np.ndarray
    customers: np.ndarray
    warm: list
    measured: list


def _bursts(products, customers, queries, rng, count) -> list:
    """``count`` bursts round-robin over ``queries``.  Each burst asks
    about 16 fresh non-members of its query, one drawn from each of 16
    bands of distance to the query, so every burst mixes near and far
    customers alike and per-burst cost varies little by seed."""
    bands = []
    for q in queries:
        pool = np.flatnonzero(~rsl_members(products, customers, q))
        near_first = pool[np.argsort(np.abs(customers[pool] - q).sum(axis=1))]
        bands.append(np.array_split(near_first, BURST))
    return [
        ("burst", queries[i % len(queries)],
         [int(rng.choice(band)) for band in bands[i % len(queries)]])
        for i in range(count)
    ]


def make_inputs(name: str, seed: int, seconds: float) -> Inputs:
    spec = SPECS[name]
    products, customers = dataset(seed, spec.n)
    units = spec.units(seconds)
    if name == "cold-explore":
        def questions(kind, count):
            # Question i: a query in grid cell i % 16 and a customer in
            # distance band (i // 16) % 8 from it, so every seed mixes
            # near and far customers in the same proportions.
            rng = stream(seed, kind)
            queries = stratified(rng, count, 4, LO, HI)
            asked = []
            for i, q in enumerate(queries):
                near_first = np.argsort(np.abs(customers - q).sum(axis=1))
                band = np.array_split(near_first, 8)[i // 16 % 8]
                asked.append(("read", q, int(rng.choice(band))))
            return asked
        return Inputs(products, customers,
                      questions(_COLD_WARM, COLD_WARM_QUESTIONS),
                      questions(_COLD, units))
    queries = hot_queries(seed)
    if name == "churn":
        queries = queries[:CHURN_QUERIES]
    warm_count = len(queries)
    bursts = _bursts(products, customers, queries, stream(seed, _DRAWS),
                     warm_count + units)
    warm, measured = bursts[:warm_count], bursts[warm_count:]
    if name == "churn":
        # Each cycle is one mutation, then a burst on the next query.
        # The customers are non-members at the first epoch.
        log = mutation_log(seed, units, products)
        measured = [item for pair in zip(log, measured) for item in pair]
    return Inputs(products, customers, warm, measured)


# ----------------------------------------------------------------------
# The closed-loop client
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What the client saw during the measured phase."""

    events: list = field(default_factory=list)   # in submission order
    read_latencies: list = field(default_factory=list)   # per burst/read
    mutate_latencies: list = field(default_factory=list)
    answers: int = 0
    wall_s: float = 0.0          # without the host probes
    probes: list = field(default_factory=list)   # host_probe() results
    busy_probes: int = 0         # probes taken with the service not idle
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)


#: ``name -> context manager`` wrapped around each client request.
RequestScope = Callable[[str], contextlib.AbstractContextManager]


def no_scope(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


class Client:
    """One closed-loop caller: it sends the next request (or burst)
    only after every reply to the previous one has arrived.  Then it
    waits until the service is idle and runs :func:`host_probe`,
    recording the result in ``probes``; a probe taken while the service
    still had work after :data:`IDLE_WAIT_S` counts in ``busy_probes``.

    Must be created inside the service's event loop, while no request is
    in flight: the tasks alive then are the idle baseline.
    """

    def __init__(self, service: WhyNotService,
                 scope: RequestScope = no_scope) -> None:
        self.service = service
        self.scope = scope
        self.probes: list[tuple[float, float]] = []
        self.busy_probes = 0
        self._idle_tasks = len(asyncio.all_tasks())

    def _busy(self) -> bool:
        health = self.service.health()
        return bool(health["inflight"] or health["queue_depth"]
                    or health["leases"]
                    or self.service.coalescer.pending_batches
                    or len(asyncio.all_tasks()) > self._idle_tasks)

    async def send(self, item, phase: "Phase | None") -> None:
        await self._send(item, phase)
        deadline = time.perf_counter() + IDLE_WAIT_S
        while self._busy() and time.perf_counter() < deadline:
            await asyncio.sleep(0.001)
        self.busy_probes += self._busy()
        self.probes.append(host_probe())

    async def _send(self, item, phase: "Phase | None") -> None:
        kind = item[0]
        if kind == "mutate":
            _, op, payload = item
            with self.scope("client.mutate"):
                start = time.perf_counter()
                try:
                    outcome = ("ok", await self.service.mutate(op, **payload))
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    outcome = ("error", repr(exc))
                elapsed = time.perf_counter() - start
            if phase is not None:
                phase.mutate_latencies.append(elapsed)
                phase.events.append(("mutate", op, payload, outcome))
            return
        _, query, who = item
        why_nots = who if kind == "burst" else [who]
        with self.scope("client.request"):
            start = time.perf_counter()
            replies = await asyncio.gather(
                *(self.service.why_not(c, query) for c in why_nots),
                return_exceptions=True,
            )
            elapsed = time.perf_counter() - start
        if phase is None:
            return
        phase.read_latencies.append(elapsed)
        phase.answers += len(why_nots)
        for c, reply in zip(why_nots, replies):
            if isinstance(reply, BaseException):
                outcome = ("error", repr(reply))
            else:
                outcome = ("ok", {"epoch": reply["epoch"],
                                  "json": canonical_json(reply["result"])})
            phase.events.append(("read", [float(v) for v in query], c,
                                 outcome))


async def start_service(inputs: Inputs, config) -> WhyNotService:
    engine = WhyNotEngine(inputs.products, customers=inputs.customers,
                          backend="rtree", config=config)
    return await WhyNotService(engine, SERVE_CONFIG).start()


async def warm(service: WhyNotService, inputs: Inputs) -> Client:
    """Run the warm pass; returns its client, which holds the host
    probes taken during it."""
    client = Client(service)
    for item in inputs.warm:
        await client.send(item, None)
    return client


async def measure(service: WhyNotService, inputs: Inputs,
                  scope: RequestScope = no_scope,
                  on_start: "Callable[[], None] | None" = None) -> Phase:
    """Run the measured phase and snapshot the counters around it."""
    metrics = service.engine.obs.metrics
    phase = Phase(counters_before=metrics.snapshot())
    client = Client(service, scope)
    if on_start is not None:
        on_start()
    start = time.perf_counter()
    for item in inputs.measured:
        await client.send(item, phase)
    phase.probes = client.probes
    phase.busy_probes = client.busy_probes
    phase.wall_s = time.perf_counter() - start - sum(
        wall for wall, _ in phase.probes)
    phase.counters_after = metrics.snapshot()
    return phase
