"""Command-line harness: regenerate any table or figure of the paper.

Examples::

    repro-whynot table3                  # scaled-down default (fast)
    repro-whynot table3 --full           # the paper's 50K/100K/200K rows
    repro-whynot table5 --sizes 5000
    repro-whynot fig14 --seed 3
    repro-whynot all --sizes 2000

Scaled-down sizes reproduce the paper's *shapes* in seconds; ``--full``
runs the original sizes (minutes — exactly the point of Figure 15).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments import figures, tables
from repro.experiments.reporting import format_block, render_figure, render_tables

__all__ = ["main", "build_parser"]

# Scaled-down defaults keep every experiment under ~a minute on a laptop.
FAST_CARDB_SIZES = (2_000, 4_000, 8_000)
FAST_SYNTH_SIZES = (4_000, 8_000)
FULL_CARDB_SIZES = (50_000, 100_000, 200_000)
FULL_SYNTH_SIZES = (100_000, 200_000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-whynot",
        description=(
            "Regenerate the tables and figures of 'On Answering Why-not "
            "Questions in Reverse Skyline Queries' (ICDE 2013)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table3",
            "table4",
            "table5",
            "table6",
            "fig14",
            "fig15",
            "fig17",
            "validate",
            "updates",
            "ablation",
            "run",
            "trace",
            "explain",
            "shard",
            "prune",
            "obs",
            "serve",
            "weighted",
            "all",
        ],
        help="which table/figure to regenerate ('validate' checks every "
        "qualitative claim of Section VI and exits non-zero on failure; "
        "'updates' runs a mixed insert/delete/update churn and asserts the "
        "incrementally maintained engine stays bit-identical to a rebuild; "
        "'trace' runs an instrumented workload and prints the span tree; "
        "'explain' prints the planner's EXPLAIN ANALYZE tree for every "
        "why-not surface; 'shard' answers the same workload through the "
        "single-process and sharded execution paths and asserts the "
        "answers agree bit-for-bit; 'prune' does the same for the "
        "tile-summary pruned kernels, including across dataset "
        "mutations, and asserts the prune counter balance invariant; "
        "'obs' runs a journaled workload, prints the per-query journal "
        "summary and the cost-drift sentinel table, and asserts the "
        "sharded worker-telemetry counter balance; 'serve' starts the "
        "asyncio service in-process, fires concurrent HTTP clients "
        "through a mixed read/write workload and asserts every served "
        "response is bit-identical to a direct engine call at its "
        "served epoch; 'weighted' sweeps preference-weight shapes — "
        "unit, skewed, partial support — over every query surface and "
        "asserts each answer matches the brute-force weighted oracle "
        "exactly, with unit weights bit-identical to the unweighted "
        "engine)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="dataset sizes (rows); overrides the fast defaults",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's dataset sizes (50K-200K); slow by design",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--backend",
        choices=["scan", "rtree"],
        default="scan",
        help="spatial index backend",
    )
    parser.add_argument(
        "--k",
        type=int,
        nargs="+",
        default=[10, 20],
        help="approximation parameter(s) for table5/table6/fig17",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append ASCII charts to the figure outputs",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="also write the raw text output to this file",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="for 'run': archive the raw experiment records as JSON",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run engines with the observability layer on (nested spans + "
        "work counters); implied by the 'trace' experiment, honoured by "
        "'run' and 'validate'",
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the observability export (repro.obs/2 JSON: span tree, "
        "counters, query journal, environment provenance) to this file",
    )
    return parser


def _sizes(args: argparse.Namespace, cardb: bool) -> tuple[int, ...]:
    if args.sizes:
        return tuple(args.sizes)
    if args.full:
        return FULL_CARDB_SIZES if cardb else FULL_SYNTH_SIZES
    return FAST_CARDB_SIZES if cardb else FAST_SYNTH_SIZES


def _run(args: argparse.Namespace, experiment: str) -> str:
    seed = args.seed
    backend = args.backend
    if experiment == "table3":
        result = tables.table3(_sizes(args, True), seed=seed, backend=backend)
        return format_block(
            "Table III — quality of results on (simulated) CarDB",
            render_tables(result),
        )
    if experiment == "table4":
        result = tables.table4(_sizes(args, False), seed=seed, backend=backend)
        return format_block(
            "Table IV — quality of results on synthetic datasets",
            render_tables(result),
        )
    if experiment == "table5":
        ks = tuple(args.k)
        result = tables.table5(
            _sizes(args, True)[-2:], ks=ks, seed=seed, backend=backend
        )
        return format_block(
            "Table V — Approx-MWQ quality on (simulated) CarDB",
            render_tables(result, approx_ks=ks),
        )
    if experiment == "table6":
        ks = tuple(args.k[:1])
        result = tables.table6(
            _sizes(args, False), ks=ks, seed=seed, backend=backend
        )
        return format_block(
            "Table VI — Approx-MWQ quality on synthetic datasets",
            render_tables(result, approx_ks=ks),
        )
    if experiment == "fig14":
        series = figures.figure14(_sizes(args, True), seed=seed, backend=backend)
        body = render_figure({"CarDB": series})
        if args.plot:
            from repro.experiments.plotting import ascii_log_chart

            body += "\n" + ascii_log_chart(series, title="area vs |RSL|")
        return format_block(
            "Figure 14 — RSL size vs safe-region area (fraction of universe)",
            body,
        )
    if experiment == "fig15":
        panels = figures.figure15(
            cardb_sizes=_sizes(args, True)[-1:],
            synthetic_size=_sizes(args, False)[0],
            seed=seed,
            backend=backend,
        )
        body = render_figure(panels)
        if args.plot:
            from repro.experiments.plotting import ascii_log_chart

            body += "\n" + "\n".join(
                ascii_log_chart(series, title=f"{name}: time (s) vs |RSL|")
                for name, series in panels.items()
            )
        return format_block(
            "Figure 15 — execution time (s) of MWP, MQP, SR, MWQ",
            body,
        )
    if experiment == "fig17":
        panels = figures.figure17(
            cardb_sizes=_sizes(args, True)[-1:],
            synthetic_size=_sizes(args, False)[0],
            k=args.k[0],
            seed=seed,
            backend=backend,
        )
        body = render_figure(panels)
        if args.plot:
            from repro.experiments.plotting import ascii_log_chart

            body += "\n" + "\n".join(
                ascii_log_chart(series, title=f"{name}: time (s) vs |RSL|")
                for name, series in panels.items()
            )
        return format_block(
            "Figure 17 — execution time (s) with the approximate safe region",
            body,
        )
    if experiment == "validate":
        return _validate(args)
    if experiment == "updates":
        return _updates(args)
    if experiment == "ablation":
        return _ablation(args)
    if experiment == "run":
        return _run_archive(args)
    if experiment == "trace":
        return _trace(args)
    if experiment == "explain":
        return _explain(args)
    if experiment == "shard":
        return _shard(args)
    if experiment == "prune":
        return _prune(args)
    if experiment == "obs":
        return _obs(args)
    if experiment == "serve":
        return _serve(args)
    if experiment == "weighted":
        return _weighted(args)
    raise ValueError(f"unknown experiment {experiment!r}")


def _write_metrics(args: argparse.Namespace, payload: dict) -> str | None:
    """Write an obs payload to --metrics-out; returns the path written."""
    if not args.metrics_out:
        return None
    import json

    with open(args.metrics_out, "w") as handle:
        json.dump(payload, handle, indent=2, default=float)
    return args.metrics_out


def _trace(args: argparse.Namespace) -> str:
    """Run an instrumented why-not workload and report spans + counters.

    Builds a uniform synthetic dataset (first ``--sizes`` entry, default
    1000 rows), answers a small why-not workload with ``trace=True``,
    validates the exported payload against the ``repro.obs/2`` schema
    (negative durations or unbalanced nesting raise), optionally writes
    it to ``--metrics-out``, and prints the span tree plus the counter
    snapshot.
    """
    from repro.config import WhyNotConfig
    from repro.core.batch import answer_why_not
    from repro.data.synthetic import SYNTHETIC_GENERATORS
    from repro.data.workload import build_workload
    from repro.experiments.runner import make_engine
    from repro.obs import render_span_tree, validate_export

    size = args.sizes[0] if args.sizes else 1_000
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    engine = make_engine(
        dataset, backend=args.backend, config=WhyNotConfig(trace=True)
    )
    workload = build_workload(engine, targets=(1, 2, 3), seed=args.seed)
    # Trace the answering phase only, not the workload search above.
    engine.obs.clear()
    for workload_query in workload:
        answer_why_not(
            engine, workload_query.why_not_position, workload_query.query
        )
    payload = engine.obs.export(
        env=True,
        extra={"experiment": "trace", "dataset": dataset.name, "size": size},
    )
    validate_export(payload)
    written = _write_metrics(args, payload)

    lines = [render_span_tree(engine.obs.tracer), "", "counters:"]
    for name, value in sorted(payload["metrics"].items()):
        if isinstance(value, (int, bool)) or (
            isinstance(value, float) and value
        ):
            lines.append(f"  {name} = {value}")
    if written:
        lines.append(f"metrics exported to {written}")
    return format_block(
        f"Traced workload over {dataset.name} "
        f"({len(workload)} why-not questions)",
        "\n".join(lines),
    )


def _explain(args: argparse.Namespace) -> str:
    """EXPLAIN ANALYZE every why-not surface over one sampled question.

    Builds a uniform synthetic dataset (first ``--sizes`` entry, default
    1000 rows) with tracing on, draws one why-not question from the
    standard workload generator, then runs ``engine.explain_plan`` for
    each surface under the configured planner mode and prints the chosen
    plan trees (operator per logical node, estimated vs. measured cost,
    run counts) plus the plan-cache counters.  Every report is validated
    — a node that executed without both costs fails the command.
    """
    from repro.config import WhyNotConfig
    from repro.data.synthetic import SYNTHETIC_GENERATORS
    from repro.data.workload import build_workload
    from repro.experiments.runner import make_engine

    size = args.sizes[0] if args.sizes else 1_000
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    engine = make_engine(
        dataset, backend=args.backend, config=WhyNotConfig(trace=True)
    )
    workload = build_workload(engine, targets=(2,), seed=args.seed)
    question = workload[0]
    c_t, q = question.why_not_position, question.query
    k = args.k[0]
    calls = [
        ("reverse_skyline", (q,), {}),
        ("membership", ([c_t], q), {}),
        ("explain", (c_t, q), {}),
        ("mwp", (c_t, q), {}),
        ("mqp", (c_t, q), {}),
        ("safe_region", (q,), {}),
        ("safe_region", (q,), {"approximate": True, "k": k}),
        ("mwq", (c_t, q), {}),
        ("batch", ([c_t], q), {}),
    ]
    sections = []
    for surface, call_args, call_kwargs in calls:
        report = engine.explain_plan(surface, *call_args, **call_kwargs)
        sections.append(report.validate().render())
    cache = engine.plan_cache
    considered = int(cache.considered.value)
    hits = int(cache.hits.value)
    misses = int(cache.misses.value)
    if considered != hits + misses:
        raise ValueError(
            f"plan-cache counter imbalance: {considered} != {hits} + {misses}"
        )
    sections.append(
        "plan cache: "
        f"considered={considered} hits={hits} misses={misses} "
        f"evicted={int(cache.evicted.value)} entries={len(cache)}"
    )
    return format_block(
        f"EXPLAIN over {dataset.name} (planner={engine.config.planner}, "
        f"backend={args.backend}, why-not position {c_t})",
        "\n\n".join(sections),
    )


def _run_archive(args: argparse.Namespace) -> str:
    """Run the full protocol over every default dataset and archive the
    raw records (JSON via --json), plus a one-line summary per dataset."""
    from repro.config import WhyNotConfig
    from repro.data.cardb import generate_cardb
    from repro.data.io import save_results_json
    from repro.data.synthetic import SYNTHETIC_GENERATORS
    from repro.experiments.runner import make_engine, run_dataset
    from repro.obs import environment_provenance

    datasets = [generate_cardb(_sizes(args, True)[-1], seed=args.seed)]
    synth_size = _sizes(args, False)[0]
    for j, kind in enumerate(("UN", "CO", "AC")):
        datasets.append(SYNTHETIC_GENERATORS[kind](synth_size, seed=args.seed + j))

    config = WhyNotConfig(trace=True) if args.trace else None
    results = []
    lines = []
    obs_payloads: dict[str, dict] = {}
    for dataset in datasets:
        engine = make_engine(dataset, backend=args.backend, config=config)
        result = run_dataset(
            dataset,
            targets=tuple(range(1, 16)),
            approx_ks=tuple(args.k[:1]),
            seed=args.seed,
            backend=args.backend,
            measure_area=True,
            engine=engine,
        )
        results.append(result)
        if args.trace:
            obs_payloads[dataset.name] = engine.obs.export()
        lines.append(
            f"{dataset.name}: {len(result.records)} queries, "
            f"|RSL| in {[r.rsl_size for r in result.sorted_records()]}"
        )
    if args.json:
        save_results_json(results, args.json)
        lines.append(f"records archived to {args.json}")
    if obs_payloads:
        written = _write_metrics(
            args,
            {
                "schema": "repro.obs/2",
                "env": environment_provenance(),
                "datasets": obs_payloads,
            },
        )
        if written:
            lines.append(f"observability payloads written to {written}")
    return format_block("Experiment run", "\n".join(lines))


def _updates(args: argparse.Namespace) -> str:
    """Update-churn smoke check: incremental maintenance == rebuild.

    Runs a seeded mixed insert/delete/update workload over both dataset
    conventions, re-answering a fixed probe set after every mutation and
    comparing each answer surface (reverse skyline, membership mask, safe
    region, approximate safe region) bit-for-bit against a freshly built
    engine over the final matrices.  Also asserts the scoped-invalidation
    counter balance ``scoped_considered == evicted_scoped +
    retained_scoped`` and that the index matrix tracks the store.  Any
    mismatch prints a FAIL line and the process exits non-zero.
    """
    import numpy as np

    from repro.config import WhyNotConfig
    from repro.core.engine import WhyNotEngine
    from repro.data.synthetic import SYNTHETIC_GENERATORS

    size = args.sizes[0] if args.sizes else 200
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    config = WhyNotConfig(trace=True) if args.trace else WhyNotConfig()
    lines = []
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    def regions_equal(a, b) -> bool:
        return np.array_equal(a.region.lo, b.region.lo) and np.array_equal(
            a.region.hi, b.region.hi
        )

    for mono in (True, False):
        if mono:
            products, customers = dataset.points, None
        else:
            half = dataset.points.shape[0] // 2
            products = dataset.points[:half]
            customers = dataset.points[half:]
        engine = WhyNotEngine(
            products,
            customers=customers,
            backend=args.backend,
            config=config,
            bounds=dataset.bounds,
        )
        probes = [
            engine.bounds.lo + rng.random(engine.dim) * (
                engine.bounds.hi - engine.bounds.lo
            )
            for _ in range(4)
        ]
        for q in probes:  # warm every cache layer before churning
            engine.reverse_skyline(q)
            engine.safe_region(q)
            engine.safe_region(q, approximate=True, k=5)

        def random_rows(count):
            span = engine.bounds.hi - engine.bounds.lo
            return engine.bounds.lo + rng.random((count, engine.dim)) * span

        def mutate(step):
            kind = ("insert", "delete", "update")[step % 3]
            n = engine.products.shape[0]
            if kind == "insert":
                engine.insert_products(random_rows(2))
            elif kind == "delete":
                engine.delete_products(rng.choice(n, size=2, replace=False))
            else:
                positions = rng.choice(n, size=2, replace=False)
                engine.update_products(positions, random_rows(2))
            if not mono:
                m = engine.customers.shape[0]
                if kind == "insert":
                    engine.insert_customers(random_rows(1))
                elif kind == "delete":
                    engine.delete_customers(rng.choice(m, size=1, replace=False))
                else:
                    engine.update_customers(
                        rng.choice(m, size=1, replace=False), random_rows(1)
                    )

        steps = 6
        for step in range(steps):
            mutate(step)
            for q in probes:  # keep the surviving caches in active use
                engine.reverse_skyline(q)
        fresh = WhyNotEngine(
            engine.products,
            customers=None if mono else engine.customers,
            backend=args.backend,
            config=config,
            bounds=dataset.bounds,
        )
        name = "monochromatic" if mono else "bichromatic"
        lines.append(
            f"{name}: {steps} mixed mutation rounds, "
            f"epoch {engine.dataset_epoch}, "
            f"n={engine.products.shape[0]} m={engine.customers.shape[0]}"
        )
        check(
            "index matrix tracks the store",
            np.array_equal(engine.index.points, engine.products),
        )
        everyone = list(range(engine.customers.shape[0]))
        check(
            "reverse skylines match a rebuilt engine",
            all(
                np.array_equal(engine.reverse_skyline(q), fresh.reverse_skyline(q))
                for q in probes
            ),
        )
        check(
            "membership masks match a rebuilt engine",
            all(
                np.array_equal(
                    engine.membership_mask(everyone, q),
                    fresh.membership_mask(everyone, q),
                )
                for q in probes
            ),
        )
        check(
            "safe regions match a rebuilt engine",
            all(
                regions_equal(engine.safe_region(q), fresh.safe_region(q))
                for q in probes
            ),
        )
        check(
            "approximate safe regions match a rebuilt engine",
            all(
                regions_equal(
                    engine.safe_region(q, approximate=True, k=5),
                    fresh.safe_region(q, approximate=True, k=5),
                )
                for q in probes
            ),
        )
        considered = int(engine._scoped_considered.value)
        evicted = int(engine._scoped_evicted.value)
        retained = int(engine._scoped_retained.value)
        check(
            "scoped_considered == evicted_scoped + retained_scoped "
            f"({considered} == {evicted} + {retained})",
            considered == evicted + retained,
        )
        check(
            "mutations counted",
            int(engine._mutations.value) == (steps if mono else 2 * steps),
        )
    verdict = "all checks passed" if not failures else f"{failures} FAILURES"
    lines.append(verdict)
    return format_block(
        f"Update churn over {dataset.name} (seed {args.seed}, "
        f"backend {args.backend})",
        "\n".join(lines),
    )


def _shard(args: argparse.Namespace) -> str:
    """Sharded-execution smoke check: fan-out never changes answers.

    Builds a uniform synthetic dataset (first ``--sizes`` entry, default
    2000 rows) and answers the same probe set through three arms — the
    single-process engine (``shards=1``), the sharded serial backend and
    the sharded process-pool backend (both ``shards=2``, forced via the
    ``planner="kernel"`` pin).  Reverse skylines, membership masks and
    safe regions (canonical maximal box set + exact area) are compared
    bit-for-bit across the arms; any divergence prints a FAIL line and
    the process exits non-zero.  Also reports the shard fan-out counters
    and the operators the auto planner picked on this machine.
    """
    import numpy as np

    from repro.config import WhyNotConfig
    from repro.core.engine import WhyNotEngine
    from repro.data.synthetic import SYNTHETIC_GENERATORS

    size = args.sizes[0] if args.sizes else 2_000
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    lines = []
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    def canonical_boxes(safe_region):
        # simplify keeps zero-volume boxes contained in a later sibling,
        # and which redundant ones survive depends on fold order; the
        # maximal set (drop any box contained in another) is canonical.
        lo = np.asarray(safe_region.region.lo)
        hi = np.asarray(safe_region.region.hi)
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

    arms = {
        "single": WhyNotConfig(planner="kernel"),
        "sharded-serial": WhyNotConfig(
            planner="kernel", shards=2, shard_backend="serial"
        ),
        "sharded-process": WhyNotConfig(
            planner="kernel", shards=2, shard_backend="process"
        ),
    }
    engines = {
        name: WhyNotEngine(
            dataset.points,
            backend=args.backend,
            config=config,
            bounds=dataset.bounds,
        )
        for name, config in arms.items()
    }
    span = dataset.bounds.hi - dataset.bounds.lo
    probes = [
        dataset.bounds.lo + rng.random(dataset.points.shape[1]) * span
        for _ in range(4)
    ]
    everyone = list(range(min(size, 512)))
    answers: dict[str, list] = {}
    timings: dict[str, float] = {}
    for name, engine in engines.items():
        start = time.perf_counter()
        out = []
        for q in probes:
            rsl = engine.reverse_skyline(q)
            mask = engine.membership_mask(everyone, q)
            sr = engine.safe_region(q)
            lo, hi = canonical_boxes(sr)
            out.append(
                (rsl.tolist(), mask.tolist(), lo.tolist(), hi.tolist(),
                 sr.area())
            )
        timings[name] = time.perf_counter() - start
        answers[name] = out
    base = answers["single"]
    for name in ("sharded-serial", "sharded-process"):
        check(
            f"{name} answers bit-identical to single-process "
            "(RSL + masks + canonical SR boxes + exact area)",
            answers[name] == base,
        )
        snap = engines[name].shard_stats.snapshot()
        check(
            f"{name} actually fanned out "
            f"(fanouts={snap['fanouts']}, dispatched={snap['dispatched']}, "
            f"merged={snap['merged']})",
            snap["fanouts"] > 0 and snap["dispatched"] > 0
            and snap["merged"] == snap["fanouts"],
        )
        engines[name].close_shard_executors()
    auto = WhyNotEngine(
        dataset.points,
        backend=args.backend,
        config=WhyNotConfig(planner="auto", shards=2),
        bounds=dataset.bounds,
    )
    auto.reverse_skyline(probes[0])
    picked = auto.last_plan.operator.name
    lines.append(
        f"auto planner on this machine picked {picked!r} for the "
        "reverse skyline (fan-out only when the cost model says it wins)"
    )
    for name, seconds in timings.items():
        lines.append(f"  {name}: {seconds:.3f}s over {len(probes)} probes")
    verdict = "all checks passed" if not failures else f"{failures} FAILURES"
    lines.append(verdict)
    return format_block(
        f"Sharded execution over {dataset.name} (n={size}, seed "
        f"{args.seed}, backend {args.backend})",
        "\n".join(lines),
    )


def _prune(args: argparse.Namespace) -> str:
    """Pruned-kernel smoke check: pruning never changes answers.

    Builds a uniform synthetic dataset (first ``--sizes`` entry, default
    2000 rows) and answers the same probe set through three arms — the
    plain kernels (``planner="kernel"``), the always-pruned kernels
    (``planner="pruned"``) and the cost-based ``planner="auto"``.
    Reverse skylines, membership masks and ``Λ`` culprit sets are
    compared bit-for-bit against the unpruned arm, then a round of
    inserts/deletes/updates exercises the incremental tile-summary
    maintenance and the comparison is repeated.
    The pruning counter balance invariant (skipped + blocked + refined
    == total pairs) is asserted on the traced arm.  Any divergence
    prints a FAIL line and the process exits non-zero.
    """
    import numpy as np

    from repro.config import WhyNotConfig
    from repro.core.engine import WhyNotEngine
    from repro.data.synthetic import SYNTHETIC_GENERATORS

    size = args.sizes[0] if args.sizes else 2_000
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    lines = []
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    arms = {
        "off": WhyNotConfig(planner="kernel"),
        "always": WhyNotConfig(planner="pruned", trace=True),
        "auto": WhyNotConfig(planner="auto"),
    }
    engines = {
        name: WhyNotEngine(
            dataset.points,
            backend=args.backend,
            config=config,
            bounds=dataset.bounds,
        )
        for name, config in arms.items()
    }
    span = dataset.bounds.hi - dataset.bounds.lo
    probes = [
        dataset.bounds.lo + rng.random(dataset.points.shape[1]) * span
        for _ in range(4)
    ]
    everyone = list(range(min(size, 512)))
    why_nots = [int(i) for i in rng.integers(0, size, 3)]

    def answer_all() -> dict[str, list]:
        answers: dict[str, list] = {}
        for name, engine in engines.items():
            out = []
            for q in probes:
                rsl = engine.reverse_skyline(q)
                mask = engine.membership_mask(everyone, q)
                culprits = [
                    sorted(engine.explain(w, q).culprit_positions.tolist())
                    for w in why_nots
                ]
                out.append((rsl.tolist(), mask.tolist(), culprits))
            answers[name] = out
        return answers

    answers = answer_all()
    for name in ("always", "auto"):
        check(
            f"{name} answers bit-identical to unpruned "
            "(RSL + masks + Λ culprit sets)",
            answers[name] == answers["off"],
        )
    counters = engines["always"]._prune_counters
    snap = counters.snapshot() if counters is not None else {}
    check(
        "always arm exercised the pruned kernels "
        f"(pairs_total={snap.get('pairs_total', 0)})",
        snap.get("pairs_total", 0) > 0,
    )
    check(
        "prune counter balance (skipped + blocked + refined == total): "
        f"{snap.get('pairs_skipped', 0)} + {snap.get('pairs_blocked', 0)}"
        f" + {snap.get('pairs_refined', 0)} == {snap.get('pairs_total', 0)}",
        counters is not None and counters.balanced(),
    )
    # Mutate every arm identically, then re-compare: the tile summaries
    # must track insert/delete/update incrementally, not just at build.
    fresh = dataset.bounds.lo + rng.random((8, dataset.points.shape[1])) * span
    doomed = sorted(int(i) for i in rng.choice(size, 4, replace=False))
    moved = sorted(int(i) for i in rng.choice(size - 4, 4, replace=False))
    replacement = (
        dataset.bounds.lo + rng.random((4, dataset.points.shape[1])) * span
    )
    for engine in engines.values():
        engine.insert_products(fresh)
        engine.delete_products(doomed)
        engine.update_products(moved, replacement)
    answers = answer_all()
    for name in ("always", "auto"):
        check(
            f"{name} still bit-identical after insert/delete/update "
            "(incremental tile-summary maintenance)",
            answers[name] == answers["off"],
        )
    check(
        "prune counter balance holds after mutations",
        counters is not None and counters.balanced(),
    )
    engines["auto"].reverse_skyline(probes[0])
    picked = engines["auto"].last_plan.operator.name
    lines.append(
        f"auto planner on this machine picked {picked!r} for the "
        "reverse skyline (prunes only when the tile summary predicts "
        "a win)"
    )
    if snap:
        lines.append(
            "prune.* fingerprint (always arm): "
            + ", ".join(f"{k}={v}" for k, v in sorted(snap.items()))
        )
    verdict = "all checks passed" if not failures else f"{failures} FAILURES"
    lines.append(verdict)
    return format_block(
        f"Pruned kernels over {dataset.name} (n={size}, seed "
        f"{args.seed}, backend {args.backend})",
        "\n".join(lines),
    )


def _obs(args: argparse.Namespace) -> str:
    """Journaled observability smoke check: journal, drift, telemetry.

    Builds a uniform synthetic dataset (first ``--sizes`` entry, default
    1000 rows), answers a probe workload twice (the second pass warms
    every cache, so the drift sentinel sees both cold and warm samples)
    on a journaled engine (``trace=True, journal=True``), and asserts:
    the journal captured every plan with balanced ring accounting
    (:func:`repro.obs.validate_journal`); the cost-drift sentinel
    aggregates a non-empty per-operator table; the export validates
    against the ``repro.obs/2`` schema including the journal section;
    and the sharded worker-telemetry counters balance — the same probe
    set answered through the serial and process shard backends merges
    identical ``kernels.*`` / ``prune.*`` worker totals, and the merged
    prune counters keep the pair-balance invariant.  Any violation
    prints a FAIL line and the process exits non-zero.
    """
    import numpy as np

    from repro.config import WhyNotConfig
    from repro.core.engine import WhyNotEngine
    from repro.data.synthetic import SYNTHETIC_GENERATORS
    from repro.obs import validate_export, validate_journal

    size = args.sizes[0] if args.sizes else 1_000
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    lines = []
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    span = dataset.bounds.hi - dataset.bounds.lo
    probes = [
        dataset.bounds.lo + rng.random(dataset.points.shape[1]) * span
        for _ in range(3)
    ]
    everyone = list(range(min(size, 256)))

    def workload(engine) -> None:
        for _ in range(2):  # second pass hits the caches (warm drift rows)
            for q in probes:
                engine.reverse_skyline(q)
                engine.membership_mask(everyone, q)
                engine.safe_region(q)

    engine = WhyNotEngine(
        dataset.points,
        backend=args.backend,
        config=WhyNotConfig(trace=True, journal=True),
        bounds=dataset.bounds,
    )
    workload(engine)
    journal = engine.journal
    check(
        f"journal populated ({len(journal)} records, "
        f"appended={journal.appended})",
        len(journal) > 0,
    )
    try:
        validate_journal(journal)
        check("journal validates (seq order, accounting, field shapes)", True)
    except ValueError as exc:
        check(f"journal validates: {exc}", False)
    check(
        "journal records carry kernel counter deltas",
        any(
            name.startswith("kernels.")
            for entry in journal
            for name in entry.counters
        ),
    )
    report = engine.drift_report()
    check(
        f"drift sentinel aggregated {len(report.operators)} operators",
        len(report.operators) > 0,
    )
    payload = engine.obs.export(
        env=True,
        extra={"experiment": "obs", "dataset": dataset.name, "size": size},
    )
    try:
        validate_export(payload)
        check(f"export validates ({payload['schema']})", True)
    except ValueError as exc:
        check(f"export validates: {exc}", False)
    check(
        "export carries the journal section",
        bool(payload.get("journal", {}).get("records")),
    )
    written = _write_metrics(args, payload)

    # Worker-telemetry balance: the serial and process shard backends
    # run the identical task code, so the worker counter totals they
    # merge back must be exactly equal for the same probe set.
    shard_totals: dict[str, dict] = {}
    prune_balanced: dict[str, bool] = {}
    for backend_name in ("serial", "process"):
        sharded = WhyNotEngine(
            dataset.points,
            backend=args.backend,
            config=WhyNotConfig(
                trace=True,
                journal=True,
                planner="pruned",
                shards=2,
                shard_backend=backend_name,
            ),
            bounds=dataset.bounds,
        )
        workload(sharded)
        executor = next(iter(sharded._shard_executors.values()), None)
        shard_totals[backend_name] = (
            {k: dict(v) for k, v in executor.worker_totals.items()}
            if executor is not None
            else {}
        )
        prune_balanced[backend_name] = (
            sharded._prune_counters is not None
            and sharded._prune_counters.balanced()
        )
        check(
            f"{backend_name} backend merged worker telemetry "
            f"(worker_merges={sharded.shard_stats.worker_merges})",
            sharded.shard_stats.worker_merges > 0,
        )
        sharded.close_shard_executors()
    check(
        "worker counter totals balance across backends "
        "(serial == process, kernels.* and prune.*)",
        shard_totals["serial"] == shard_totals["process"]
        and bool(shard_totals["serial"].get("kernels")),
    )
    check(
        "merged prune counters keep the pair-balance invariant",
        prune_balanced["serial"] and prune_balanced["process"],
    )

    summary = journal.summary()
    lines.append("")
    lines.append(
        f"journal: retained={summary['retained']}/{summary['capacity']}, "
        f"appended={summary['appended']}, dropped={summary['dropped']}"
    )
    for surface, agg in sorted(summary["surfaces"].items()):
        lines.append(
            f"  {surface}: {agg['count']} plans, "
            f"mean {agg['mean_s'] * 1e3:.3f} ms"
        )
    lines.append("")
    lines.append(report.render())
    if written:
        lines.append(f"\nmetrics exported to {written}")
    verdict = "all checks passed" if not failures else f"{failures} FAILURES"
    lines.append(verdict)
    return format_block(
        f"Journaled observability over {dataset.name} (n={size}, seed "
        f"{args.seed}, backend {args.backend})",
        "\n".join(lines),
    )


def _ablation(args: argparse.Namespace) -> str:
    """Run the backend / pruning / k-sweep ablation studies."""
    from repro.data.cardb import generate_cardb
    from repro.experiments.ablation import (
        ablation_backends,
        ablation_k_sweep,
        ablation_pruning,
    )

    size = _sizes(args, True)[-1]
    dataset = generate_cardb(size, seed=args.seed)
    sections = []

    rows = ablation_backends(dataset, seed=args.seed)
    lines = [f"{'backend':>8} {'seconds':>10} {'node acc.':>10} {'pt cmp.':>12}"]
    lines += [
        f"{r['backend']:>8} {r['seconds']:>10.4f} {r['node_accesses']:>10} "
        f"{r['point_comparisons']:>12}"
        for r in rows
    ]
    sections.append("Window-query backends\n" + "\n".join(lines))

    rows = ablation_pruning(dataset, seed=args.seed)
    lines = [f"{'method':>8} {'seconds':>10} {'window queries':>15}"]
    lines += [
        f"{r['method']:>8} {r['seconds']:>10.4f} {r['window_queries']:>15}"
        for r in rows
    ]
    sections.append("Reverse-skyline pruning (BBRS)\n" + "\n".join(lines))

    rows = ablation_k_sweep(dataset, ks=tuple(args.k), seed=args.seed)
    lines = [f"{'k':>6} {'mean cost':>12} {'area kept':>10} {'seconds':>9}"]
    lines += [
        f"{str(r['k']):>6} {r['mean_cost']:>12.6f} {r['mean_area_kept']:>9.1%} "
        f"{r['seconds']:>9.3f}"
        for r in rows
    ]
    sections.append("Approximation parameter sweep\n" + "\n".join(lines))

    return format_block(
        f"Ablation studies over {dataset.name}", "\n\n".join(sections)
    )


def _validate(args: argparse.Namespace) -> str:
    """Run one seeded experiment and check every Section-VI claim."""
    from repro.config import WhyNotConfig
    from repro.data.cardb import generate_cardb
    from repro.experiments.runner import make_engine, run_dataset
    from repro.experiments.validation import run_all_checks

    size = _sizes(args, True)[-1]
    dataset = generate_cardb(size, seed=args.seed)
    engine = make_engine(
        dataset,
        backend=args.backend,
        config=WhyNotConfig(trace=True) if args.trace else None,
    )
    result = run_dataset(
        dataset,
        targets=tuple(range(1, 16)),
        approx_ks=tuple(args.k[:1]),
        seed=args.seed,
        backend=args.backend,
        measure_area=True,
        engine=engine,
    )
    report = run_all_checks(result.records)
    header = (
        f"Validation over {dataset.name} "
        f"({len(result.records)} why-not queries, seed {args.seed})"
    )
    body = report.render()
    if args.trace:
        from repro.obs import validate_export

        payload = engine.obs.export(
            env=True,
            extra={"experiment": "validate", "dataset": dataset.name},
        )
        validate_export(payload)
        written = _write_metrics(args, payload)
        body += f"\nobservability export validated ({payload['schema']})"
        if written:
            body += f"; written to {written}"
    return format_block(header, body)


def _serve(args: argparse.Namespace) -> str:
    """The serving-layer smoke: an in-process asyncio service under
    concurrent HTTP clients, verified answer-by-answer against direct
    engine calls replayed at each served epoch."""
    import asyncio

    import numpy as np

    from repro.core.batch import answer_why_not
    from repro.core.engine import WhyNotEngine
    from repro.data.synthetic import SYNTHETIC_GENERATORS
    from repro.serve import (
        ServeConfig,
        WhyNotHTTPServer,
        WhyNotService,
        canonical_json,
        http_json,
        serialize_answer,
    )

    size = args.sizes[0] if args.sizes else 300
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    half = dataset.points.shape[0] // 2
    products = dataset.points[:half]
    customers = dataset.points[half:]
    query = np.quantile(products, 0.5, axis=0)
    questions = list(range(min(6, customers.shape[0])))
    n_readers = 16
    mutation_log = [
        ("insert_products", {"points": [[0.81, 0.13]]}),
        ("insert_products", {"points": [[0.17, 0.88]]}),
    ]

    lines: list[str] = []
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    async def scenario() -> dict:
        engine = WhyNotEngine(
            products, customers=customers, backend=args.backend
        )
        service = WhyNotService(
            engine,
            ServeConfig(max_inflight=8, coalesce_window_s=0.002),
        )
        out: dict = {}
        async with service:
            async with WhyNotHTTPServer(service) as server:
                host, port = server.host, server.port

                async def read(i: int):
                    return await http_json(
                        host, port, "POST", "/why-not",
                        {
                            "why_not": questions[i % len(questions)],
                            "query": list(query),
                            "deadline_s": 30,
                        },
                    )

                async def write_all():
                    results = []
                    for op, payload in mutation_log:
                        await asyncio.sleep(0.003)
                        results.append(
                            await http_json(
                                host, port, "POST", "/mutate",
                                dict(payload, op=op),
                            )
                        )
                    return results

                gathered = await asyncio.gather(
                    *[read(i) for i in range(n_readers)], write_all()
                )
                out["reads"] = gathered[:n_readers]
                out["writes"] = gathered[n_readers]
                out["health"] = await http_json(host, port, "GET", "/healthz")
                out["metrics"] = await http_json(host, port, "GET", "/metrics")
            out["counters"] = {
                "requests": int(service.m_requests.value),
                "completed": int(service.m_completed.value),
                "coalesced": int(service.m_coalesced.value),
                "batches": int(service.m_batches.value),
                "shed": int(service.m_shed_queue.value)
                + int(service.m_shed_deadline.value),
                "drains": int(service.m_drains.value),
            }
            out["leases_active"] = engine.leases.active
            out["final_epoch"] = engine.dataset_epoch
        out["engine_closed"] = engine.closed
        return out

    out = asyncio.run(scenario())

    check(
        "every read answered 200",
        all(status == 200 for status, _ in out["reads"]),
    )
    check(
        "every mutation answered 200 with advancing epochs",
        [status for status, _ in out["writes"]] == [200, 200]
        and [body["epoch"] for _, body in out["writes"]] == [1, 2],
    )

    # Replay verification: a twin engine is rebuilt at each served epoch
    # by replaying the mutation-log prefix, and every served response
    # must be bit-identical to the twin's direct answer.
    twins: dict[int, WhyNotEngine] = {}

    def direct(epoch: int, why_not: int) -> str:
        if epoch not in twins:
            twin = WhyNotEngine(
                products.copy(), customers=customers.copy(),
                backend=args.backend,
            )
            for op, payload in mutation_log[:epoch]:
                getattr(twin, op)(**payload)
            twins[epoch] = twin
        return canonical_json(
            serialize_answer(answer_why_not(twins[epoch], why_not, query))
        )

    divergent = 0
    epochs_served = set()
    for status, body in out["reads"]:
        if status != 200:
            divergent += 1
            continue
        epochs_served.add(body["epoch"])
        expected = direct(body["epoch"], body["result"]["why_not"]["position"])
        if canonical_json(body["result"]) != expected:
            divergent += 1
    for twin in twins.values():
        twin.close()
    check(
        f"all {n_readers} served responses bit-identical to direct "
        f"engine calls (epochs {sorted(epochs_served)})",
        divergent == 0,
    )
    counters = out["counters"]
    check(
        "serve counters balance (requests == completed + shed)",
        counters["requests"] == counters["completed"] + counters["shed"],
    )
    check("coalescer folded concurrent requests", counters["coalesced"] >= 1)
    check(
        "writer drained once per mutation batch",
        1 <= counters["drains"] <= len(mutation_log),
    )
    check(
        "final epoch equals applied mutations",
        out["final_epoch"] == len(mutation_log),
    )
    check("no lease leaked", out["leases_active"] == 0)
    check("stop() closed the engine", out["engine_closed"])
    health_status, health = out["health"]
    check("healthz reported ok", health_status == 200 and health["status"] == "ok")
    metrics_status, metrics_text = out["metrics"]
    check(
        "metrics endpoint exports serve.* and engine counters",
        metrics_status == 200
        and "serve_requests_total" in metrics_text
        and "engine_dataset_epoch" in metrics_text,
    )

    verdict = "all checks passed" if not failures else f"{failures} FAILURES"
    body = "\n".join(
        [
            f"dataset UN n={size} ({half} products / "
            f"{customers.shape[0]} customers), backend={args.backend}",
            f"workload: {n_readers} concurrent why-not clients + "
            f"{len(mutation_log)} interleaved mutations over HTTP",
            f"counters: {counters}",
            "",
            *lines,
            "",
            f"verdict: {verdict}",
        ]
    )
    return format_block(
        "SERVE — concurrent serving layer vs direct engine calls", body
    )


def _weighted(args: argparse.Namespace) -> str:
    """Weighted-dominance divergence check: engine vs brute-force oracle.

    Builds a bichromatic uniform dataset (first ``--sizes`` entry,
    default 300 rows split products/customers), then sweeps preference
    weight shapes (unit spelled two ways, magnitude skew, both partial
    supports) x shard counts over every read surface — reverse skyline,
    membership mask, culprit explanation and the exact safe region —
    asserting each answer equals the nested-loop weighted oracle from
    ``repro.prefs.oracle`` exactly, and that unit weights stay
    bit-identical to the unweighted engine.  Any divergence prints a
    FAIL line and the process exits non-zero.
    """
    import numpy as np

    from repro.config import WhyNotConfig
    from repro.core.engine import WhyNotEngine
    from repro.core.safe_region import compute_safe_region_oracle
    from repro.data.synthetic import SYNTHETIC_GENERATORS
    from repro.index.scan import ScanIndex
    from repro.prefs.oracle import (
        oracle_lambda_positions,
        oracle_membership,
        oracle_reverse_skyline,
    )

    size = args.sizes[0] if args.sizes else 300
    dataset = SYNTHETIC_GENERATORS["UN"](size, seed=args.seed)
    half = dataset.points.shape[0] // 2
    products = dataset.points[:half]
    customers = dataset.points[half:]
    rng = np.random.default_rng(args.seed + 1)
    span = dataset.bounds.hi - dataset.bounds.lo
    probes = dataset.bounds.lo + rng.random((3, products.shape[1])) * span

    shapes = [
        ("unit", None),
        ("ones", [1.0, 1.0]),
        ("skew", [4.0, 0.25]),
        ("drop-hi", [1.0, 0.0]),
        ("drop-lo", [0.0, 2.0]),
    ]
    lines = []
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
        if not ok:
            failures += 1

    plain = WhyNotEngine(
        products, customers, backend=args.backend, bounds=dataset.bounds
    )
    for shards in (1, 2):
        config = WhyNotConfig(shards=shards, shard_backend="serial")
        engine = WhyNotEngine(
            products,
            customers,
            backend=args.backend,
            config=config,
            bounds=dataset.bounds,
        )
        for name, weights in shapes:
            w = None if weights is None else np.asarray(weights)
            for j, q in enumerate(probes):
                rsl = np.sort(engine.reverse_skyline(q, weights=weights))
                oracle_rsl = np.sort(
                    oracle_reverse_skyline(
                        products, customers, q,
                        weights=w, policy=config.policy,
                    )
                )
                check(
                    f"shards={shards} {name} probe{j}: RSL == oracle",
                    np.array_equal(rsl, oracle_rsl),
                )
                mask = engine.membership_mask(
                    list(range(customers.shape[0])), q, weights=weights
                )
                oracle_mask = [
                    oracle_membership(
                        products, customers[i], q,
                        weights=w, policy=config.policy,
                    )
                    for i in range(customers.shape[0])
                ]
                check(
                    f"shards={shards} {name} probe{j}: membership == oracle",
                    list(mask) == oracle_mask,
                )
                exp = engine.explain(0, q, weights=weights)
                lam = oracle_lambda_positions(
                    products, customers[0], q,
                    weights=w, policy=config.policy,
                )
                check(
                    f"shards={shards} {name} probe{j}: lambda == oracle",
                    np.array_equal(
                        np.sort(exp.culprit_positions), np.sort(lam)
                    ),
                )
                sr = engine.safe_region(q, weights=weights)
                oracle_sr = compute_safe_region_oracle(
                    ScanIndex(products),
                    customers,
                    q,
                    oracle_rsl,
                    engine._geometry_bounds(q),
                    config=config,
                    weights=w,
                )
                check(
                    f"shards={shards} {name} probe{j}: safe region == oracle",
                    np.isclose(sr.area(), oracle_sr.area()),
                )
                if name in ("unit", "ones"):
                    check(
                        f"shards={shards} {name} probe{j}: "
                        "bit-identical to unweighted engine",
                        np.array_equal(
                            rsl, np.sort(plain.reverse_skyline(q))
                        ),
                    )
        counters = {
            key: engine.obs.counter(key).value
            for key in (
                "prefs.default_requests",
                "prefs.weighted_requests",
                "prefs.cache_bypass",
            )
        }
        check(
            f"shards={shards}: weighted requests counted",
            counters["prefs.weighted_requests"] > 0,
        )
        lines.append(f"  shards={shards} counters: {counters}")
        engine.close()
    plain.close()

    verdict = "all checks passed" if not failures else f"{failures} FAILURES"
    body = "\n".join(
        [
            f"dataset UN n={size} ({half} products / "
            f"{customers.shape[0]} customers), backend={args.backend}",
            f"weight shapes: {[n for n, _ in shapes]}, "
            f"probes={probes.shape[0]}, shard counts: 1, 2",
            "",
            *lines,
            "",
            f"verdict: {verdict}",
        ]
    )
    return format_block(
        "WEIGHTED — preference-model surfaces vs brute-force oracle", body
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    experiments = (
        ["table3", "table4", "table5", "table6", "fig14", "fig15", "fig17"]
        if args.experiment == "all"
        else [args.experiment]
    )
    chunks: list[str] = []
    failed = False
    for experiment in experiments:
        start = time.perf_counter()
        output = _run(args, experiment)
        elapsed = time.perf_counter() - start
        output += f"[{experiment} regenerated in {elapsed:.1f}s]\n\n"
        sys.stdout.write(output)
        chunks.append(output)
        if (
            experiment
            in (
                "validate", "updates", "shard", "prune", "obs", "serve",
                "weighted",
            )
            and "FAIL" in output
        ):
            failed = True
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("".join(chunks))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
