"""In-memory span tracing around the program's public layer entry points.

:class:`Tracer` replaces each traced function where its callers look it up
(a class attribute for methods; every ``repro`` module that imported a
function by name) with a wrapper that records one span: name, start and end
(``perf_counter_ns``), parent span and request id.  Spans stay in memory and
are summarised, or written out, when the run ends.  Nothing under ``src/``
changes; :meth:`Tracer.restore` puts every original back.

A layer's self time is its spans' durations minus the parts covered by
their child spans; the wrapped functions are synchronous, so spans nest
strictly and a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

_ns = time.perf_counter_ns


def _size_count(args, kwargs) -> int:
    size = args[1] if len(args) > 1 else kwargs.get("size", 1)
    if isinstance(size, int):
        return size
    out = 1
    for s in size:
        out *= int(s)
    return out


def _request_id(args, kwargs):
    client, seq = kwargs.get("client"), kwargs.get("seq")
    return None if client is None or seq is None else f"{client}:{seq}"


#: (span name, "module:attribute path", draws counter, request id getter).
LAYERS = (
    ("sampling.alias_draw", "repro.sampling.alias:AliasSampler.sample", _size_count, None),
    ("sampling.alias_build", "repro.sampling.alias:AliasSampler.__init__", None, None),
    ("sampling.seed_spawn", "repro.sampling.rngutils:spawn_seed_sequences", None, None),
    ("core.driver", "repro.core.ensemble:simulate_ensemble", None, None),
    ("core.wavefront", "repro.core.wavefront:run_batch_wavefront", None, None),
    ("core.perball", "repro.core.ensemble:run_batch_ensemble", None, None),
    ("core.compiled", "repro.core.compiled:run_batch_compiled", None, None),
    ("analysis.reduce", "repro.analysis.aggregate:StreamingProfile.update", None, None),
    ("analysis.reduce", "repro.analysis.aggregate:StreamingScalar.update", None, None),
    ("runtime.executor", "repro.runtime.executor:run_ensemble_reduced", None, None),
    ("io.checkpoint", "repro.io.store:CheckpointSlot.save", None, None),
    ("io.store_put", "repro.io.store:ResultStore.put", None, None),
    ("service.allocate", "repro.service.server:AllocationService.allocate", None, _request_id),
    ("service.place", "repro.service.views:DChoicePlacer.place", None, None),
    ("p2p.hash", "repro.p2p.hashing:point_sequence", None, None),
    ("p2p.lookup", "repro.p2p.ring:ConsistentHashRing.lookup_batch", None, None),
    ("service.churn", "repro.service.server:AllocationService.apply_churn", None, _request_id),
    ("service.view_refresh", "repro.service.views:StaleLoadView.refresh", None, None),
    ("service.wal_append", "repro.service.wal:WriteAheadLog.append", None, None),
    ("service.wal_fsync", "repro.service.wal:WriteAheadLog.flush", None, None),
)


class Tracer:
    """Span recorder; :meth:`install` wraps every entry of :data:`LAYERS`."""

    def __init__(self):
        #: ``(name, start_ns, end_ns, parent index, request id)`` per span;
        #: a slot is ``None`` while its call is still running.
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._rid = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, count=None, rid=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count is not None:
                counts[name] += count(args, kwargs)
            outer_rid = tracer._rid
            if rid is not None:
                tracer._rid = rid(args, kwargs)
            t0 = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer._rid)
                tracer._rid = outer_rid

        return traced

    def install(self) -> "Tracer":
        """Wrap every layer entry point where its callers look it up."""
        for name, target, count, rid in LAYERS:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, original, count, rid))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, count, rid)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                        vars(mod).get(path) is original:
                    self._patch(mod, path, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        """Drop the recorded spans and counts (wrappers stay installed)."""
        self.spans.clear()
        self.counts.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and, for
        counted layers, ``count``."""
        out = summarise(self.spans)
        for name, count in self.counts.items():
            out.setdefault(name, {})["count"] = count
        return out

    def dump(self, path) -> None:
        """Write the spans and counts as JSON (done once, when the run ends)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def summarise(spans, rids=None) -> dict:
    """Self time, total time and call count per span name (only of spans
    whose request id is in *rids*, when given)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        if span is None or (rids is not None and span[4] not in rids):
            continue
        row = out[span[0]]
        dur = span[2] - span[1]
        row["calls"] += 1
        row["total_s"] += dur * 1e-9
        row["self_s"] += (dur - child_ns[i]) * 1e-9
    return dict(out)
