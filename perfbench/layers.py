"""Per-layer attribution for the traced run.

The benchmark wraps each layer's public entry points in spans recorded
in memory (id, name, start, end, parent, request id) and folds them
into self times afterwards.  A span's self time is its duration minus
the part of it that its children cover; a layer's self time is the sum
over its spans.  A function imported by name is wrapped in every module
that looked it up, so the wrapper is what the caller actually calls.

Only one client request is in flight at a time, so a span opened in an
executor thread with nothing open on that thread belongs to the current
client request, and takes it as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

#: The layers the breakdown names; anything else is unattributed.
LAYERS = ("serve", "core", "plan", "index", "kernels", "prune", "skyline",
          "geometry", "store")


class SpanRecorder:
    """In-memory spans of the traced measured phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, name, start, end, parent, rid)
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._request: "tuple[int, int] | None" = None   # (rid, span id)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        request = self._request
        if stack:
            parent = stack[-1]
        else:
            parent = request[1] if request is not None else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, request[0] if request is not None else None

    def _close(self, sid, name, start, parent, rid) -> None:
        self._stack().pop()
        self.spans.append(
            (sid, name, start, time.perf_counter(), parent, rid))

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, rid = recorder._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(sid, name, start, parent, rid)

        return traced

    @contextmanager
    def request(self, name: str):
        """The span of one client request (or burst) on the loop thread."""
        rid = next(self._requests)
        sid = next(self._ids)
        self._request = (rid, sid)
        self._stack().append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._request = None
            self._close(sid, name, start, None, rid)

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            json.dump({k: [s[i] for s in self.spans]
                       for i, k in enumerate(keys)}, fh)


def _patch(owner, attr, wrapper, undo) -> None:
    undo.append((owner, attr, vars(owner).get(attr), attr in vars(owner)))
    setattr(owner, attr, wrapper)


def _wrap_attr(recorder, owner, attr, name, undo) -> None:
    _patch(owner, attr, recorder.wrap(name, getattr(owner, attr)), undo)


def _wrap_function(recorder, name, fn, undo) -> None:
    """Wrap ``fn`` in every loaded ``repro`` module that holds it."""
    wrapper = recorder.wrap(name, fn)
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                _patch(module, attr, wrapper, undo)


def install(recorder: SpanRecorder):
    """Wrap every layer's entry points; returns an undo callable."""
    from repro.core.engine import WhyNotEngine
    from repro.core.safe_region import compute_safe_region
    from repro.geometry import region_array
    from repro.index.rtree import RTree
    from repro.kernels import membership, pruned
    from repro.plan.operators import _ExactSafeRegionOp
    from repro.plan.planner import Planner
    from repro.prune.classify import classify_pairs
    from repro.serve import service
    from repro.skyline.algorithms import skyline_indices
    from repro.skyline.dynamic import dynamic_skyline_indices
    from repro.skyline.window import window_query_indices

    undo: list = []
    # serve: only the service's own lookups (the batch operator looks up
    # answer_why_not in repro.core.batch for its per-question pipeline).
    for attr in ("answer_why_not", "answer_why_not_batch"):
        _wrap_attr(recorder, service, attr, "dispatch", undo)
    _wrap_attr(recorder, service, "serialize_answer", "serve.serialize", undo)
    methods = [
        (WhyNotEngine, "explain", "core.explain"),
        (WhyNotEngine, "modify_why_not_point", "core.mwp"),
        (WhyNotEngine, "modify_query_point", "core.mqp"),
        (WhyNotEngine, "modify_both", "core.mwq"),
        (WhyNotEngine, "insert_products", "store.mutate"),
        (WhyNotEngine, "update_products", "store.mutate"),
        (WhyNotEngine, "delete_products", "store.mutate"),
        (_ExactSafeRegionOp, "run", "core.sr_lookup"),
        (Planner, "plan", "plan.plan"),
        (RTree, "range_indices", "index.range"),
        (RTree, "knn_indices", "index.range"),
    ]
    for owner, attr, name in methods:
        _wrap_attr(recorder, owner, attr, name, undo)
    functions = [compute_safe_region, classify_pairs,
                 membership.batch_window_membership,
                 membership.batch_lambda_counts,
                 membership.batch_verify_membership,
                 pruned.batch_window_membership_pruned,
                 pruned.batch_lambda_counts_pruned,
                 pruned.batch_verify_membership_pruned,
                 skyline_indices, dynamic_skyline_indices,
                 window_query_indices, region_array.pairwise_intersect,
                 region_array.simplify_arrays, region_array.clip_arrays]
    layer = {"safe_region": "core", "classify": "prune", "membership":
             "kernels", "pruned": "kernels", "algorithms": "skyline",
             "dynamic": "skyline", "window": "skyline",
             "region_array": "geometry"}
    for fn in functions:
        name = f"{layer[fn.__module__.rsplit('.', 1)[1]]}.{fn.__name__}"
        _wrap_function(recorder, name, fn, undo)

    def uninstall() -> None:
        for owner, attr, original, present in reversed(undo):
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return uninstall


def layer_of(name: str) -> "str | None":
    head = name.split(".", 1)[0]
    if head == "client":
        return "serve"
    return head if head in LAYERS else None


def fold(spans: list) -> dict:
    """Fold spans into times, in seconds.

    * ``self``: self time per layer, plus ``unattributed`` for spans of
      no named layer (the dispatched answer call's own glue);
    * ``busy``: per layer, the duration of its outermost spans (a kernel
      called by a kernel is not counted twice);
    * ``by_name``: ``name -> [count, self, inclusive]``;
    * ``request_s``: the wall time of the client requests.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    self_by_layer = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
    busy = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list] = {}
    request_s = 0.0
    for sid, name, start, end, parent, _ in spans:
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = (end - start) - covered
        layer = layer_of(name)
        self_by_layer[layer or "unattributed"] += own
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += own
        entry[2] += end - start
        if parent is None:
            request_s += end - start
        parent_layer = layer_of(by_id[parent][1]) if parent in by_id else None
        if layer is not None and parent_layer != layer:
            busy[layer] += end - start
    return {"self": self_by_layer, "busy": busy, "by_name": by_name,
            "request_s": request_s}
