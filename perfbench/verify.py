"""The correctness gate: replay the measured phase on a twin engine.

The twin is a :class:`WhyNotEngine` on the ``scan`` backend built from
the same generated data.  It applies the client's mutations in order,
so before each read it stands at the epoch that read was served at, and
every served reply must equal the twin's ``answer_why_not`` in
``canonical_json`` form.  Refusals and errors are counted as failures,
not raised.  The events are split into contiguous chunks checked by
worker processes in parallel; each worker replays the mutations that
precede its chunk first.  A worker is this file run with ``--worker``:
it reads its pickled job on standard input and writes the pickled
result to standard output.  Every worker is waited for before
:func:`verify` returns, also when it fails.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Reads per chunk below which a chunk is not worth a worker process.
_MIN_CHUNK_READS = 64
#: Worker processes at most: the reference host's 2 vCPUs.
_WORKERS = 2


def _check_chunk(products, customers, prefix, chunk) -> tuple[int, list]:
    """``(verified, failures)`` for ``chunk``, after replaying the
    mutation events of ``prefix`` on a fresh twin.  A failure is
    ``("error", message)`` for a refused or failed request and
    ``("diverged", message)`` for a reply that differs from the twin."""
    from repro.core.batch import answer_why_not
    from repro.core.engine import WhyNotEngine
    from repro.serve import canonical_json, serialize_answer

    failures: list[tuple[str, str]] = []
    verified = 0
    with WhyNotEngine(np.array(products), customers=np.array(customers),
                      backend="scan") as twin:
        for _, op, payload, (status, _) in prefix:
            if status == "ok":
                getattr(twin, op)(**payload)
        for index, event in enumerate(chunk):
            kind, status, reply = event[0], event[3][0], event[3][1]
            if kind == "mutate":
                _, op, payload, _ = event
                if status != "ok":
                    failures.append(("error", f"mutation {index}: {reply}"))
                    continue
                got = np.asarray(getattr(twin, op)(**payload)).tolist()
                if (reply["result"], reply["epoch"]) != (
                        got, twin.dataset_epoch):
                    failures.append(("diverged", f"mutation {index} ({op})"))
                else:
                    verified += 1
                continue
            _, query, why_not, _ = event
            if status != "ok":
                failures.append(("error", f"read {index}: {reply}"))
                continue
            if reply["epoch"] != twin.dataset_epoch:
                failures.append(("diverged", (
                    f"read {index}: served at epoch {reply['epoch']}, "
                    f"twin at {twin.dataset_epoch}")))
                continue
            expected = canonical_json(serialize_answer(
                answer_why_not(twin, why_not, np.asarray(query))))
            if reply["json"] != expected:
                failures.append(("diverged", (
                    f"read {index}: customer {why_not} at query {query}")))
            else:
                verified += 1
    return verified, failures


def verify(products: np.ndarray, customers: np.ndarray,
           events: list) -> tuple[int, list]:
    """Check every event; returns ``(verified, failures)``."""
    reads = sum(1 for event in events if event[0] == "read")
    parts = max(1, min(_WORKERS, reads // _MIN_CHUNK_READS))
    bounds = [round(i * len(events) / parts) for i in range(parts + 1)]
    jobs = []
    for lo, hi in zip(bounds, bounds[1:]):
        prefix = [e for e in events[:lo] if e[0] == "mutate"]
        jobs.append((products, customers, prefix, events[lo:hi]))
    if parts == 1:
        results = [_check_chunk(*job) for job in jobs]
    else:
        results = _in_workers(jobs)
    verified = sum(ok for ok, _ in results)
    failures = [f for _, chunk_failures in results for f in chunk_failures]
    return verified, failures


def _in_workers(jobs: list) -> list:
    """``_check_chunk`` of each job, each in its own worker process."""
    procs = []
    try:
        for job in jobs:
            proc = subprocess.Popen(
                [sys.executable, __file__, "--worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            procs.append(proc)
            # A worker reads its whole job before it writes anything.
            proc.stdin.write(pickle.dumps(job))
            proc.stdin.close()
        results = []
        for proc in procs:
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(
                    f"verify worker exited with code {proc.returncode}")
            results.append(pickle.loads(out))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()


if __name__ == "__main__":
    if sys.argv[1:] != ["--worker"]:
        sys.exit("usage: verify.py --worker  (a job of perfbench/run.py)")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    job = pickle.load(sys.stdin.buffer)
    sys.stdout.buffer.write(pickle.dumps(_check_chunk(*job)))
