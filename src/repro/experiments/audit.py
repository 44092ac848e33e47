"""Differential audit: one harness for the bit-identity contract.

``repro-whynot audit`` answers every surface — ``RSL(q)``, membership,
``Λ``, the exact and approximate safe regions, MWP / MQP / MWQ — through
every execution arm: the planner pins ``index`` / ``kernel`` /
``pruned`` / ``auto``, an engine rebuilt each round and an in-process
:class:`~repro.serve.WhyNotService` replayed over HTTP.  Across one
mutation program on monochromatic, bichromatic and clustered data and
every weight shape, each arm must be bit-identical to the ``index/1``
reference arm and the reference must match the brute-force oracles; the
counter invariants of every layer crossed are asserted too.  Every
failed check prints a ``[FAIL]`` line naming case, arm and surface.
"""

from __future__ import annotations

import argparse
import asyncio
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.config import WhyNotConfig
from repro.core.batch import answer_why_not
from repro.core.engine import WhyNotEngine
from repro.core.safe_region import compute_safe_region_oracle
from repro.geometry import region_array as _ra
from repro.geometry.box import Box
from repro.index.scan import ScanIndex
from repro.obs import validate_export, validate_journal
from repro.prefs.oracle import oracle_lambda_positions, oracle_reverse_skyline
from repro.serve import (
    ServeConfig,
    WhyNotHTTPServer,
    WhyNotService,
    canonical_json,
    http_json,
    serialize_answer,
)

__all__ = ["canonical_answer", "canonical_boxes", "run_audit"]

PINS = ("index", "kernel", "pruned", "auto")
REFERENCE = "index/1"
# Tracing is switched on only where a check reads the counters it
# feeds: prune pair balance and the query journal.
TRACED = {"auto/1": dict(trace=True, journal=True),
          "pruned/1": dict(trace=True)}
# Unit weights spelled two ways, a magnitude skew and each
# single-dimension support (a zero weight drops that dimension).
WEIGHT_SHAPES = (("unit", None), ("ones", (1.0, 1.0)), ("skew", (4.0, 0.25)),
                 ("support-0", (1.0, 0.0)), ("support-1", (0.0, 2.0)))
UNIT_BOX = Box(np.zeros(2), np.ones(2))
APPROX_K = 5
PROBES = 2
WHY_NOTS = 2
SERVED_READERS = 16

Check = Callable[[str, bool], None]


def canonical_boxes(safe_region) -> tuple[np.ndarray, np.ndarray]:
    """The maximal boxes of a safe region, deduplicated and lexsorted.

    ``simplify`` only drops a box contained in an *earlier* box of its
    volume-descending sort, so zero-volume boxes (which all tie) can
    survive inside a sibling, and which redundant ones survive depends
    on the fold order.  The maximal set (drop every box contained in
    another, keep the first of equal ones) does not; the audit compares
    both forms.
    """
    lo, hi = _ra.maximal_arrays(
        np.asarray(safe_region.region.lo, dtype=np.float64),
        np.asarray(safe_region.region.hi, dtype=np.float64),
    )
    order = np.lexsort(np.hstack([lo, hi]).T[::-1])
    return lo[order], hi[order]


def canonical_answer(
    engine: WhyNotEngine,
    q: np.ndarray,
    members: Sequence[int],
    why_nots: Sequence[int],
    weights: "Sequence[float] | None" = None,
) -> dict[str, object]:
    """Every surface of one query in comparable form, keyed by surface:
    the RSL, the membership mask of ``members``, the sorted ``Λ`` set of
    each why-not customer, the canonical exact safe region with its
    exact area, the raw exact boxes (in fold order), the approximate
    safe region and each why-not customer's serialized composite answer
    (MWP, MQP and MWQ).  Two engines agree exactly when these dicts
    compare equal."""
    exact = engine.safe_region(q, weights=weights)
    approx = engine.safe_region(
        q, approximate=True, k=APPROX_K, weights=weights
    ).region
    lo, hi = canonical_boxes(exact)
    answers = [answer_why_not(engine, w, q, weights=weights)
               for w in why_nots]
    return {
        "rsl": engine.reverse_skyline(q, weights=weights).tolist(),
        "membership": engine.membership_mask(
            members, q, weights=weights
        ).tolist(),
        "safe_region": (lo.tolist(), hi.tolist(), exact.area()),
        "safe_region.raw": (exact.region.lo.tolist(),
                            exact.region.hi.tolist()),
        "approx_safe_region": (approx.lo.tolist(), approx.hi.tolist()),
        "answer": [canonical_json(serialize_answer(answer))
                   for answer in answers],
        "lambda": [sorted(answer.explanation.culprit_positions.tolist())
                   for answer in answers],
    }


@dataclass
class _Case:
    """One 2-D dataset of the audit with its mutation program."""

    name: str
    products: np.ndarray
    customers: "np.ndarray | None"
    probes: np.ndarray
    draw: Callable[[str, int], np.ndarray]  # (role, count) -> new rows
    weighted: bool = False
    overrides: dict = field(default_factory=dict)
    why_nots: list[int] = field(default_factory=list)
    program: list[list[tuple[str, dict]]] = field(default_factory=list)

    @property
    def mono(self) -> bool:
        return self.customers is None


def _cases(size: int, seed: int) -> list[_Case]:
    """Mono- and bichromatic uniform data, plus the ``sparse`` cell of
    ``benchmarks/bench_pruning.py`` (customers in a tight central box,
    products in two far corner clusters, one cluster per product chunk)
    with small classifier tiles, so its pruned arm must skip pairs.  A
    central product cluster keeps that case's ``RSL(q)`` small."""
    rng = np.random.default_rng(seed)
    half, third = size // 2, size // 6

    def uniform(role: str, count: int) -> np.ndarray:
        return rng.random((count, 2))

    def central(count: int) -> np.ndarray:
        return rng.uniform(0.45, 0.55, size=(count, 2))

    def clustered(role: str, count: int) -> np.ndarray:
        if role == "customers":
            return central(count)
        corner = rng.integers(0, 2, size=(count, 1)) * 0.9
        return corner + rng.uniform(0.0, 0.1, size=(count, 2))

    corners = [rng.uniform(lo, lo + 0.1, (third, 2)) for lo in (0.0, 0.9)]
    cases = [
        _Case("mono", uniform("products", size), None,
              rng.random((PROBES, 2)), uniform),
        _Case("bi", uniform("products", half), uniform("customers", half),
              rng.random((PROBES, 2)), uniform, weighted=True),
        _Case("clustered", np.vstack([*corners, central(half - 2 * third)]),
              central(half), rng.uniform(0.48, 0.52, (PROBES, 2)),
              clustered, overrides={"prune_tile_size": 16}),
    ]
    for case in cases:
        m = (case.products if case.mono else case.customers).shape[0]
        case.why_nots = sorted(map(int, rng.choice(m, WHY_NOTS, False)))
        case.program = _program(case, rng)
    return cases


def _program(case: _Case, rng) -> list[list[tuple[str, dict]]]:
    """Insert, delete, then update two rows of every store; each step is
    a list of ``(engine method, JSON-able kwargs)``.  Inserting first
    keeps every store at least its starting size, so positions drawn
    below it (and the why-not positions) stay valid throughout."""
    roles = ("products",) if case.mono else ("products", "customers")
    steps = []
    for kind in ("insert", "delete", "update"):
        step = []
        for role in roles:
            rows = case.products if role == "products" else case.customers
            picked = rng.choice(rows.shape[0], 2, replace=False)
            payload = {
                "positions": sorted(int(i) for i in picked),
                "points": case.draw(role, 2).tolist(),
            }
            if kind != "update":
                del payload["points" if kind == "delete" else "positions"]
            step.append((f"{kind}_{role}", payload))
        steps.append(step)
    return steps


def _arm_configs(overrides: dict) -> dict[str, WhyNotConfig]:
    return {
        f"{pin}/1": WhyNotConfig(
            planner=pin, **TRACED.get(f"{pin}/1", {}), **overrides
        )
        for pin in PINS
    }


def _oracle_misses(case: _Case, engine: WhyNotEngine, answers: list[dict],
                   weights) -> set[str]:
    """Surfaces on which the reference arm's answers differ from the
    brute-force oracles (the safe region is compared by area)."""
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    policy = engine.config.policy
    products, customers = engine.products, engine.customers
    misses = set()
    for q, answer in zip(case.probes, answers):
        rsl = oracle_reverse_skyline(products, customers, q, w, policy,
                                     monochromatic=case.mono)
        if not np.array_equal(np.sort(answer["rsl"]), rsl):
            misses.add("rsl")
        mask = np.zeros(customers.shape[0], dtype=bool)
        mask[rsl] = True
        if answer["membership"] != mask.tolist():
            misses.add("membership")
        lams = [
            sorted(oracle_lambda_positions(
                products, customers[i], q, w, policy,
                exclude=(i,) if case.mono else ()).tolist())
            for i in case.why_nots
        ]
        if answer["lambda"] != lams:
            misses.add("lambda")
        region = compute_safe_region_oracle(
            ScanIndex(products), customers, q, rsl, engine._geometry_bounds(q),
            config=engine.config, self_exclude=case.mono, weights=w)
        if not np.isclose(answer["safe_region"][2], region.area()):
            misses.add("safe_region")
    return misses


def _audit_case(case: _Case, args: argparse.Namespace,
                check: Check) -> tuple[dict, dict]:
    """Run one case through every engine-backed arm.

    Every round (the start, then each mutation step) answers unit
    weights; the weighted case also answers every weight shape in round
    0 and checks the reference against the oracles per shape there and
    at unit weights after the last step.  Returns the reference's
    serialized answers keyed by ``(epoch, probe, why_not)`` and the
    journaled arm's obs export."""
    engines = {
        name: WhyNotEngine(case.products, case.customers, args.backend,
                           config, bounds=UNIT_BOX)
        for name, config in _arm_configs(case.overrides).items()
    }
    compared = dict.fromkeys([*engines, "rebuilt"], 0)
    mismatches: dict[tuple[str, str], str] = {}  # first place they differ
    oracle: dict[str, set[str]] = {}  # oracle run -> surfaces that differ
    expected: dict[tuple[int, int, int], str] = {}
    tracked = True
    try:
        for round_no, step in enumerate([[]] + case.program):
            for op, payload in step:
                for engine in engines.values():
                    getattr(engine, op)(**payload)
            ref = engines[REFERENCE]
            members = list(range(ref.customers.shape[0]))
            weighted = case.weighted and round_no == 0
            with WhyNotEngine(
                ref.products, None if case.mono else ref.customers,
                args.backend, WhyNotConfig(**case.overrides), bounds=UNIT_BOX,
            ) as rebuilt:
                arms = {**engines, "rebuilt": rebuilt}
                shapes = WEIGHT_SHAPES if weighted else WEIGHT_SHAPES[:1]
                for shape, weights in shapes:
                    where = f"round {round_no}, {shape} weights"
                    got = {
                        name: [canonical_answer(engine, q, members,
                                                case.why_nots, weights)
                               for q in case.probes]
                        for name, engine in arms.items()
                    }
                    if shape == "unit":
                        unit = got[REFERENCE]
                    # Unit weights spelled out must be bit-identical to
                    # the engine default.
                    want = unit if shape == "ones" else got[REFERENCE]
                    for name, answers in got.items():
                        compared[name] += len(answers)
                        for j, (a, b) in enumerate(zip(answers, want)):
                            for surface in a:
                                if a[surface] != b[surface]:
                                    mismatches.setdefault(
                                        (name, surface), f"{where}, probe {j}"
                                    )
                    last = round_no == len(case.program) and shape == "unit"
                    if case.weighted and shape != "ones" and (weighted or last):
                        oracle[where] = _oracle_misses(case, ref,
                                                       got[REFERENCE], weights)
            for j, answer in enumerate(unit):
                for w_pos, text in zip(case.why_nots, answer["answer"]):
                    expected[(ref.dataset_epoch, j, w_pos)] = text
            tracked &= all(e.index.points is e.products
                           for e in engines.values())
        for surface in ("rsl", "membership", "lambda", "safe_region"):
            misses = [where for where, bad in oracle.items() if surface in bad]
            if oracle:
                check(f"{REFERENCE} {surface} == oracle ({'; '.join(oracle)})"
                      + (f" — differs at {'; '.join(misses)}" if misses
                         else ""), not misses)
        for arm, count in compared.items():
            bad = sorted((surface, at) for (name, surface), at
                         in mismatches.items() if name == arm)
            for surface, at in bad:
                check(f"{arm} differs from {REFERENCE} on {surface} (first at "
                      f"{at})", False)
            if not bad:
                check(f"{arm} bit-identical to {REFERENCE} over {count} "
                      "answers", True)
        check("every arm's index matrix tracks its store", tracked)
        export = _invariants(case, engines, sum(map(len, case.program)), check)
    finally:
        for engine in engines.values():
            engine.close()
    return expected, export


def _error(validate: Callable, payload) -> str:
    """``": <complaint>"`` if ``validate`` rejects ``payload``, else ``""``."""
    try:
        validate(payload)
    except ValueError as exc:
        return f": {exc}"
    return ""


def _invariants(case: _Case, engines: dict[str, WhyNotEngine], ops: int,
                check: Check) -> dict:
    """The counter invariants of every layer the case crossed; returns
    the journaled arm's obs export."""
    for arm, engine in engines.items():
        mutations = int(engine._mutations.value)
        check(f"{arm} engine.mutations == program ops ({mutations} == {ops})",
              mutations == ops)
        if case.weighted:
            check(f"{arm} counted weighted requests",
                  engine.obs.counter("prefs.weighted_requests").value > 0)
    s = engines["pruned/1"]._prune_counters.snapshot()
    skips = case.name == "clustered"
    check(f"pruned/1 prune pair balance (skipped + blocked + refined == "
          f"total): {s['pairs_skipped']} + {s['pairs_blocked']} + "
          f"{s['pairs_refined']} == {s['pairs_total']}"
          + (", pairs_skipped > 0" if skips else ""),
          engines["pruned/1"]._prune_counters.balanced()
          and s["pairs_total"] > 0 and (s["pairs_skipped"] > 0 or not skips))
    journaled = engines["auto/1"]
    journal = journaled.journal
    error = _error(validate_journal, journal)
    check(f"journal validates ({len(journal)} records, appended="
          f"{journal.appended}) and carries kernels.* counter deltas{error}",
          not error and len(journal) > 0
          and any(counter.startswith("kernels.")
                  for entry in journal for counter in entry.counters))
    export = journaled.obs.export(env=True, extra={"experiment": "audit",
                                                   "case": case.name})
    error = _error(validate_export, export)
    check(f"export validates ({export['schema']}) with a journal section"
          f"{error}",
          not error and bool(export.get("journal", {}).get("records")))
    return export


def _served_replay(case: _Case, args: argparse.Namespace,
                   expected: dict[tuple, str], check: Check) -> None:
    """Concurrent HTTP why-not clients interleaved with the case's
    mutation program (one op per step, so every served epoch is a
    reference round); every served answer must equal the reference's
    answer at its served epoch."""
    ops = [op for step in case.program for op in step]
    pairs = [(j, w) for j in range(len(case.probes)) for w in case.why_nots]
    engine = WhyNotEngine(case.products, case.customers, args.backend,
                          bounds=UNIT_BOX)
    service = WhyNotService(engine, ServeConfig(max_inflight=8,
                                                coalesce_window_s=0.002))

    async def scenario() -> tuple:
        async with service, WhyNotHTTPServer(service) as server:

            async def call(method: str, path: str, body=None):
                return await http_json(server.host, server.port, method,
                                       path, body)

            async def read(j: int, w: int):
                query = case.probes[j].tolist()
                return j, *await call("POST", "/why-not", {
                    "why_not": w, "query": query, "deadline_s": 30})

            async def write_all():
                results = []
                for op, payload in ops:
                    await asyncio.sleep(0.003)
                    results.append(
                        await call("POST", "/mutate", dict(payload, op=op)))
                return results

            writes, *reads = await asyncio.gather(write_all(), *[
                read(*pairs[i % len(pairs)]) for i in range(SERVED_READERS)])
            health, metrics = (await call("GET", "/healthz"),
                               await call("GET", "/metrics"))
            leases = engine.leases.active
        return reads, writes, health, metrics, leases

    reads, writes, health, metrics, leases = asyncio.run(scenario())
    epochs = list(range(1, len(ops) + 1))
    check(f"served reads all answered 200, mutations 200 with epochs {epochs}",
          all(status == 200 for _, status, _ in reads)
          and [status for status, _ in writes] == [200] * len(ops)
          and [out["epoch"] for _, out in writes] == epochs)
    served = [(j, out) for j, status, out in reads if status == 200]
    divergent = [
        j for j, out in served
        if canonical_json(out["result"]) != expected.get(
            (out["epoch"], j, out["result"]["why_not"]["position"]))
    ]
    check(f"served all {len(served)} answers bit-identical to {REFERENCE} "
          f"at their served epoch (epochs "
          f"{sorted({out['epoch'] for _, out in served})}, surface answer)",
          not divergent)
    n = {name: int(getattr(service, f"m_{name}").value)
         for name in ("requests", "completed", "shed_queue", "shed_deadline",
                      "coalesced", "drains")}
    shed = n["shed_queue"] + n["shed_deadline"]
    check(f"served counters balance (requests {n['requests']} == completed "
          f"{n['completed']} + shed {shed}), coalesced {n['coalesced']}, "
          f"drains {n['drains']}",
          n["requests"] == n["completed"] + shed and n["coalesced"] >= 1
          and 1 <= n["drains"] <= len(ops))
    check(f"served final epoch {engine.dataset_epoch} == {len(ops)} applied "
          f"mutations, no lease leaked ({leases} active), stop() closed the "
          "engine",
          engine.dataset_epoch == len(ops) and leases == 0 and engine.closed)
    check("served healthz ok and /metrics exports serve.* and engine counters",
          health[0] == 200 and health[1]["status"] == "ok"
          and metrics[0] == 200 and "serve_requests_total" in metrics[1]
          and "engine_dataset_epoch" in metrics[1])


def run_audit(args: argparse.Namespace) -> tuple[str, str, dict]:
    """Audit the first ``--sizes`` entry (default 300 rows); returns the
    title, the ``[PASS]``/``[FAIL]`` lines ending with the verdict, and
    the journaled arm's ``repro.obs/3`` export on the monochromatic case."""
    size = args.sizes[0] if args.sizes else 300
    lines: list[str] = []
    exports = []
    for case in _cases(size, args.seed):

        def check(label: str, ok: bool, name: str = case.name) -> None:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {label}")

        m = (case.products if case.mono else case.customers).shape[0]
        lines.append(f"{case.name}: n={case.products.shape[0]} m={m}, "
                     f"{len(case.probes)} probes, why-nots {case.why_nots}, "
                     f"{len(case.program)} mutation steps")
        expected, export = _audit_case(case, args, check)
        exports.append(export)
        if case.mono:
            _served_replay(case, args, expected, check)
    failures = sum("[FAIL]" in line for line in lines)
    lines.append(f"{failures} FAILURES" if failures else "all checks passed")
    title = (f"Differential audit (size {size}, seed {args.seed}, backend "
             f"{args.backend}): {len(PINS) + 2} arms vs {REFERENCE}")
    return title, "\n".join(lines), exports[0]
