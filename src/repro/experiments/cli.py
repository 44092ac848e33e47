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
            "audit",
            "ablation",
            "run",
            "trace",
            "explain",
            "all",
        ],
        help="which table/figure to regenerate ('validate' checks every "
        "qualitative claim of Section VI and exits non-zero on failure; "
        "'audit' checks every execution arm against the reference arm "
        "and the reference against the brute-force oracle across a "
        "mutation program, and exits non-zero on any divergence; "
        "'trace' runs an instrumented workload and prints the span tree; "
        "'explain' prints the planner's EXPLAIN ANALYZE tree for every "
        "why-not surface)",
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
        help="write the observability export (repro.obs/3 JSON: span tree, "
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
    if experiment == "audit":
        return _audit(args)
    if experiment == "ablation":
        return _ablation(args)
    if experiment == "run":
        return _run_archive(args)
    if experiment == "trace":
        return _trace(args)
    if experiment == "explain":
        return _explain(args)
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
    validates the exported payload against the ``repro.obs/3`` schema
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
    plan trees (operator per logical node, measured cost, run counts)
    plus the plan-cache counters.  Every report is validated — a node
    that executed without a measured cost fails the command.
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
    from repro.obs import SCHEMA, environment_provenance

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
                "schema": SCHEMA,
                "env": environment_provenance(),
                "datasets": obs_payloads,
            },
        )
        if written:
            lines.append(f"observability payloads written to {written}")
    return format_block("Experiment run", "\n".join(lines))


def _audit(args: argparse.Namespace) -> str:
    """The differential audit (:mod:`repro.experiments.audit`)."""
    from repro.experiments.audit import run_audit

    title, body, export = run_audit(args)
    written = _write_metrics(args, export)
    if written:
        body += f"\nobs export of the journaled arm written to {written}"
    return format_block(title, body)


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
        if experiment in ("validate", "audit") and "FAIL" in output:
            failed = True
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("".join(chunks))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
