"""Concurrent serving layer over the why-not engine.

The paper's algorithms answer one question at a time on a frozen
dataset; this package turns them into a *service*: a stdlib-asyncio
front that answers many concurrent why-not questions against a mutating
market while preserving the engine's epoch-pinned semantics exactly.

Composition (each piece usable alone):

* :class:`~repro.serve.config.ServeConfig` — validated knobs;
* :mod:`~repro.serve.serialize` — deterministic JSON forms, shared by
  the service and the bit-identity verifiers;
* :class:`~repro.serve.admission.AdmissionController` — bounded queue,
  deadlines, 429/503 shedding;
* :class:`~repro.serve.coalesce.Coalescer` — folds concurrent same-key
  requests into one ``answer_why_not_batch`` dispatch;
* :class:`~repro.serve.service.WhyNotService` — the composition root:
  leases + thread executor + single writer task;
* :class:`~repro.serve.http.WhyNotHTTPServer` — dependency-free
  HTTP/1.1 front (``/why-not``, ``/safe-region``, ``/explain``,
  ``/mutate``, ``/metrics``, ``/healthz``).

Layering: serve sits *above* core/plan/store/obs and nothing inside
``repro`` (except the experiments CLI) may import it — enforced by
``tests/test_layering.py`` and the CI check.
"""

from repro.serve.admission import (
    AdmissionController,
    DeadlineError,
    QueueFullError,
    ShedError,
)
from repro.serve.coalesce import Coalescer
from repro.serve.config import ServeConfig
from repro.serve.http import WhyNotHTTPServer, http_json
from repro.serve.serialize import (
    canonical_json,
    serialize_answer,
    serialize_explanation,
    serialize_safe_region,
)
from repro.serve.service import MUTATION_OPS, StaleEpochError, WhyNotService

__all__ = [
    "AdmissionController",
    "Coalescer",
    "DeadlineError",
    "MUTATION_OPS",
    "QueueFullError",
    "ServeConfig",
    "ShedError",
    "StaleEpochError",
    "WhyNotHTTPServer",
    "WhyNotService",
    "canonical_json",
    "http_json",
    "serialize_answer",
    "serialize_explanation",
    "serialize_safe_region",
]
