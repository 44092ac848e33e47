"""Served why-not benchmark: hot-batch, cold-explore and churn.

One closed-loop asyncio client drives an in-process
``repro.serve.WhyNotService`` (engine defaults: rtree backend,
``WhyNotConfig()``, one shard, tracing off).  Every run's work is a pure
function of ``--seed`` and ``--seconds``; after the timed phase every
reply is checked against a twin engine on the scan backend.  Run from
the repository root::

    python3 perfbench/run.py --workload hot-batch --seed 1 --seconds 30
    python3 perfbench/run.py --workload churn --trace 1   # per-layer run
    python3 perfbench/run.py                              # all three

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run it from a "
             "checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.config import WhyNotConfig  # noqa: E402
from repro.kernels.parallel import available_cpus  # noqa: E402
from repro.obs import environment_provenance  # noqa: E402

import layers  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: Run records, fingerprints and span dumps, inside the checkout.
STATE = ROOT / ".perfbench"

#: Always-on counters whose deltas over the measured phase fingerprint
#: the work a run did.
FINGERPRINT = (
    "index.queries", "index.node_accesses", "index.rebuilds",
    "engine.membership_tests", "plan.cache_misses",
    "dsl_cache.region_misses", "cache.scoped_considered",
    "serve.batches", "serve.coalesced",
)
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Thread CPU seconds ``workloads.host_probe`` takes on the reference
#: host (2 vCPU x86-64 VM, Python 3.11, NumPy 2.4).  A run's host speed
#: is this over its mean probe CPU time; it fixes the unit of the
#: normalised times, so comparisons on one host do not depend on it.
PROBE_REF_S = 0.004

END_TO_END = {
    "setup_s": "s", "answers_per_s": "1/s", "why_not_p50_ms": "ms",
    "why_not_p90_ms": "ms", "ok_frac": "frac", "peak_rss_mb": "MB",
}


def probe_ms() -> float:
    """Median thread CPU time of nine host probes, in ms."""
    return statistics.median(
        workloads.host_probe()[1] for _ in range(9)) * 1e3


def code_identity() -> str:
    """Hash of the program's and the benchmark's source files.  A work
    fingerprint is compared only with earlier runs of the same code,
    whether or not it is committed, since a change to the program may
    rightly change its work."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix != ".pyc":
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def provenance() -> dict:
    # Keep git's repository search inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    env = environment_provenance()
    env["available_cpus"] = available_cpus()
    return env


async def session(inputs, config, setups, scope=None, on_start=None):
    """Set up ``setups`` times (keeping the last service), then run the
    measured phase.  Returns ``(setup seconds, phase, peak RSS MB, host
    speed)``; the speed is :data:`PROBE_REF_S` over the mean CPU time of
    every host probe taken in the set-ups and the phase, no time
    includes a probe, and ``phase.busy_probes`` counts the set-ups'
    busy probes too."""
    setup_s, probes, busy = [], [], 0
    for attempt in range(setups):
        start = time.perf_counter()
        service = await workloads.start_service(inputs, config)
        try:
            client = await workloads.warm(service, inputs)
        except BaseException:
            await service.stop()
            raise
        setup_s.append(time.perf_counter() - start
                       - sum(wall for wall, _ in client.probes))
        probes += client.probes
        busy += client.busy_probes
        if attempt + 1 < setups:
            await service.stop()
    try:
        phase = await workloads.measure(
            service, inputs, scope or workloads.no_scope, on_start)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        await service.stop()
    probes += phase.probes
    phase.busy_probes += busy
    speed = PROBE_REF_S / statistics.fmean(cpu for _, cpu in probes)
    return setup_s, phase, rss_mb, speed


def counter_delta(phase, name) -> float:
    before = phase.counters_before.get(name, 0)
    after = phase.counters_after.get(name, 0)
    return after - before


def fingerprint(phase) -> dict:
    return {name: counter_delta(phase, name) for name in FINGERPRINT}


def batch_size(phase) -> float:
    batches = counter_delta(phase, "serve.batches")
    return counter_delta(phase, "serve.coalesced") / max(batches, 1) + 1


def fingerprint_diff(old: dict, new: dict) -> dict:
    return {k: (old.get(k), v) for k, v in new.items() if old.get(k) != v}


def work_checks(name, phase, key, code, fp) -> list[str]:
    """Flags for drifted work: a fingerprint differing from an earlier
    run of the same seed and code, a burst that did not coalesce to 16,
    or a host probe taken while the service was busy.  Fingerprints of
    the same seed under other code are printed, not flagged."""
    flags = []
    if name != "cold-explore":
        size = batch_size(phase)
        if size != workloads.BURST:
            flags.append(f"serve.batch_size is {size:g}, not "
                         f"{workloads.BURST}")
    if phase.busy_probes:
        flags.append(f"{phase.busy_probes} host probes ran while the "
                     f"service still had work after {workloads.IDLE_WAIT_S:g}"
                     f" s, so the host speed would count the program's work")
    path = STATE / "fingerprints.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    own = known.setdefault(key, {}).setdefault(code, fp)
    if own != fp:
        flags.append(f"work fingerprint differs from an earlier run of "
                     f"{key} code={code}: {fingerprint_diff(own, fp)}")
    for other, old in known[key].items():
        if other != code and old != fp:
            print(f"[{name}] work differs from code={other} (old, new): "
                  f"{fingerprint_diff(old, fp)}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return flags


def end_to_end(setup_s, phase, rss_mb, verified, speed) -> dict:
    """The end-to-end metrics; times are scaled by the run's host speed
    to the reference host (``speed=1`` gives the raw values)."""
    ms = np.asarray(phase.read_latencies) * 1e3 * speed
    values = {
        "setup_s": statistics.median(setup_s) * speed,
        "answers_per_s": phase.answers / (phase.wall_s * speed),
        "why_not_p50_ms": float(np.percentile(ms, 50)),
        "why_not_p90_ms": float(np.percentile(ms, 90)),
        "ok_frac": verified / len(phase.events),
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(phase, folded, overhead) -> dict:
    answers = phase.answers
    mutations = max(len(phase.mutate_latencies), 1)
    delta = lambda name: counter_delta(phase, name)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    per_answer_ms = lambda s: s * 1e3 / answers  # noqa: E731
    by_name = folded["by_name"]
    self_of = lambda name: by_name.get(name, [0, 0.0, 0.0])[1]  # noqa: E731
    incl_of = lambda name: by_name.get(name, [0, 0.0, 0.0])[2]  # noqa: E731
    sr_runs = by_name.get("core.sr_lookup", [0])[0]
    sr_builds = by_name.get("core.compute_safe_region", [0])[0]
    named = sum(folded["self"][layer] for layer in layers.LAYERS)
    ms, count, frac = "ms", "count", "frac"
    values = {
        "serve.overhead_ms": (per_answer_ms(
            incl_of("client.request") - incl_of("dispatch")), ms),
        "serve.serialize_ms": (per_answer_ms(incl_of("serve.serialize")), ms),
        "serve.batch_size": (batch_size(phase), count),
        "serve.mutate_p50_ms": (statistics.median(
            phase.mutate_latencies or [0.0]) * 1e3, ms),
        "core.explain_ms": (per_answer_ms(self_of("core.explain")), ms),
        "core.mwp_ms": (per_answer_ms(self_of("core.mwp")), ms),
        "core.mqp_ms": (per_answer_ms(self_of("core.mqp")), ms),
        "core.mwq_ms": (per_answer_ms(self_of("core.mwq")), ms),
        "core.membership_tests": (delta("engine.membership_tests") / answers,
                                  count),
        "core.safe_region_ms": (per_answer_ms(
            self_of("core.compute_safe_region")), ms),
        "core.dsl_hit_rate": (ratio(
            delta("dsl_cache.region_hits"),
            delta("dsl_cache.region_hits")
            + delta("dsl_cache.region_misses")), frac),
        "core.sr_hit_rate": (ratio(sr_runs - sr_builds, sr_runs), frac),
        "plan.plan_ms": (per_answer_ms(folded["busy"]["plan"]), ms),
        "plan.cache_hit_rate": (ratio(
            delta("plan.cache_hits"),
            delta("plan.cache_hits") + delta("plan.cache_misses")), frac),
        "plan.plans_per_answer": ((delta("plan.cache_hits")
                                   + delta("plan.cache_misses")) / answers,
                                  count),
        "index.range_ms": (per_answer_ms(folded["busy"]["index"]), ms),
        "index.queries": (delta("index.queries") / answers, count),
        "index.node_accesses": (delta("index.node_accesses") / answers,
                                count),
        "index.rebuilds": (delta("index.rebuilds") / mutations, count),
        "kernels.busy_ms": (per_answer_ms(folded["busy"]["kernels"]), ms),
        "kernels.product_chunks": (delta("kernels.product_chunks") / answers,
                                   count),
        "kernels.early_exits": (delta("kernels.early_exits") / answers,
                                count),
        "prune.classify_ms": (per_answer_ms(folded["busy"]["prune"]), ms),
        "prune.skip_rate": (ratio(
            delta("prune.pairs_skipped") + delta("prune.pairs_blocked"),
            delta("prune.pairs_total")), frac),
        "skyline.busy_ms": (per_answer_ms(folded["busy"]["skyline"]), ms),
        "geometry.busy_ms": (per_answer_ms(folded["busy"]["geometry"]), ms),
        "store.mutate_ms": (folded["busy"]["store"] * 1e3 / mutations, ms),
        "store.scoped_retain_rate": (ratio(
            delta("cache.retained_scoped"),
            delta("cache.scoped_considered")), frac),
    }
    for layer in layers.LAYERS + ("unattributed",):
        values[f"{layer}.self_ms"] = (
            per_answer_ms(folded["self"][layer]), ms)
    values["trace.coverage"] = (named / folded["request_s"], frac)
    values["trace.overhead"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def print_layers(name, metrics, folded) -> None:
    total = sum(folded["self"].values())
    print(f"[{name}] self time per layer (ms per answer, share of all "
          f"spans):")
    for layer in sorted(folded["self"], key=folded["self"].get,
                        reverse=True):
        value = metrics[f"{layer}.self_ms"]["value"]
        print(f"  {layer:<13} {value:10.3f}  {folded['self'][layer] / total:6.1%}")
    top = max(layers.LAYERS, key=lambda layer: folded["self"][layer])
    print(f"[{name}] largest self time: {top}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    STATE.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "provenance": provenance()}
    started = time.perf_counter()
    probe_before = probe_ms()
    inputs = workloads.make_inputs(name, seed, seconds)
    key = f"{name} seed={seed} seconds={seconds}"
    code = code_identity()
    flags: list[str] = []
    if not trace:
        setup_s, phase, rss_mb, speed = asyncio.run(
            session(inputs, WhyNotConfig(), SETUPS))
    else:
        _, untraced, _, untraced_speed = asyncio.run(
            session(inputs, WhyNotConfig(), 1))
        flags += work_checks(name, untraced, key, code,
                             fingerprint(untraced))
        recorder = layers.SpanRecorder()
        uninstall = layers.install(recorder)
        try:
            setup_s, phase, rss_mb, speed = asyncio.run(session(
                inputs, WhyNotConfig(trace=True), 1, recorder.request,
                recorder.spans.clear))
        finally:
            uninstall()
        if [e[3] for e in untraced.events] != [e[3] for e in phase.events]:
            flags.append("traced replies differ from untraced replies")
    fp = fingerprint(phase)
    flags += work_checks(name, phase, key, code, fp)
    probe_after = probe_ms()
    verify_start = time.perf_counter()
    verified, failures = verify.verify(inputs.products, inputs.customers,
                                       phase.events)
    verify_s = time.perf_counter() - verify_start
    diverged = [msg for kind, msg in failures if kind == "diverged"]
    if trace:
        folded = layers.fold(recorder.spans)
        metrics = per_layer(phase, folded, (phase.wall_s * speed) / (
            untraced.wall_s * untraced_speed))
        recorder.write(STATE / f"spans-{name}-seed{seed}.json")
        print_layers(name, metrics, folded)
    else:
        metrics = end_to_end(setup_s, phase, rss_mb, verified, speed)
        record["raw_metrics"] = end_to_end(setup_s, phase, rss_mb, verified,
                                           1.0)
    record.update({
        "host.probe_ms": {"before": probe_before, "after": probe_after,
                          "during": PROBE_REF_S / speed * 1e3},
        "host_speed": speed, "code": code,
        "fingerprint": fp, "setup_s_all": setup_s,
        "phase_wall_s": phase.wall_s, "verify_s": verify_s,
        "run_s": time.perf_counter() - started,
        "answers": phase.answers, "samples": len(phase.read_latencies),
        "mutations": len(phase.mutate_latencies), "flags": flags,
        "read_latencies": phase.read_latencies,
        "probe_cpu": [cpu for _, cpu in phase.probes],
        "failures": [msg for _, msg in failures][:20], "metrics": metrics,
    })
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for flag in flags:
        print(f"FLAG [{name}]: {flag}", file=sys.stderr)
    for msg in diverged[:20]:
        print(f"MISMATCH [{name}]: {msg}", file=sys.stderr)
    print(f"[{name}] seed={seed} answers={phase.answers} "
          f"samples={len(phase.read_latencies)} "
          f"mutations={len(phase.mutate_latencies)} "
          f"host.probe_ms={probe_before:.2f}/{probe_after:.2f} "
          f"host_speed={speed:.3f} phase_s={phase.wall_s:.1f} "
          f"verify_s={verify_s:.1f} run_s={record['run_s']:.1f}")
    print(f"[{name}] fingerprint {json.dumps(fp, sort_keys=True)}")
    for metric, value in metrics.items():
        print(f"  {metric:<26} {value['value']:12.4f} {value['unit']}")
    correct = not diverged and not flags
    attempted = len(phase.events)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - verified, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process; prints every (workload,
    metric) pair."""
    merged: dict = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.SPECS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            correct = False
            continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.SPECS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
