"""Spans and counts recorded from outside the program, for per-layer metrics.

:class:`Tracer` replaces public methods of the simulator's layer classes
with thin wrappers while it is installed.  Each call becomes a span
``(name, start, end, parent, request)`` kept in memory, or, for the
hottest entry points, only a count.  Nothing in ``src/`` changes: spans
sit at the boundaries the benchmark can see, so time spent in code that
is not wrapped (the heads' and workers' generator bodies, for instance)
lands in the self time of the nearest wrapped caller, usually
``SimKernel.run``.

A span's self time is its duration minus the time covered by its direct
child spans.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.api.stream import StreamHub, TokenStream
from repro.cache.prefix import PrefixCacheManager
from repro.cluster.kernel import SimKernel, _CalendarQueue
from repro.comm.mpi_sim import Endpoint, Network
from repro.engines.backend import Backend, FunctionalBackend, OracleBackend
from repro.faults.health import HealthMonitor
from repro.metrics.report import EngineReport, ServingReport
from repro.models.kv_cache import KVCache
from repro.serve.cluster import EngineCluster, Router

#: layer -> (classes, method names) recorded as spans.  A method is wrapped
#: on every listed class that defines it itself.
SPANS = {
    "engines.backend": (
        (Backend, FunctionalBackend, OracleBackend),
        ("compute_stage", "compute_stage_multi", "propose", "propose_multi",
         "finalize_logits"),
    ),
    "models.kv": (
        (KVCache,),
        ("allocate", "seq_cp", "seq_rm", "seq_keep", "seq_broadcast",
         "visible_matrix"),
    ),
    "cluster.kernel": ((SimKernel,), ("run",)),
    "serve.router": ((Router,), ("route",)),
    "cache.prefix": (
        (PrefixCacheManager,), ("match", "ops_for_materialize", "ops_for_donate"),
    ),
    "api.stream": (
        (TokenStream, StreamHub), ("push", "finish", "cancel", "open", "attach"),
    ),
    "metrics.report": (
        (EngineReport, ServingReport, EngineCluster),
        ("from_collector", "from_requests", "report"),
    ),
}

#: span name -> request id from the call's arguments, where a boundary
#: carries one (the router gets the request, a stream knows its id).
REQUEST_OF = {
    "serve.router.route": lambda args: args[1].req_id,
    "api.stream.push": lambda args: args[0].req_id,
    "api.stream.finish": lambda args: args[0].req_id,
    "api.stream.cancel": lambda args: args[0].req_id,
    "api.stream.open": lambda args: args[1],
}

#: name -> (class, method) recorded as a bare call count (hot paths where a
#: span per call would cost more than the call).  Kernel timers are
#: counted separately, as calendar pushes (see ``Tracer._count_timers``).
COUNTS = {
    "comm.sends": (Endpoint, "send"),
    "faults.health_checks": (HealthMonitor, "degraded"),
}

#: Classes whose instances are registered so their own exact counters
#: (kernel events and resumes, delivered messages) can be read at the end.
INSTANCES = (SimKernel, Network)


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request key or None)
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.instances: Dict[type, list] = defaultdict(list)
        self._stack: List[int] = []
        self._request = None
        self._saved: List[tuple] = []

    # -- installation --------------------------------------------------------

    def _patch(self, cls, attr: str, make: Callable) -> None:
        raw = cls.__dict__[attr]
        self._saved.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def _span_wrapper(self, name: str):
        spans, stack = self.spans, self._stack
        request_of = REQUEST_OF.get(name)

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    req = self._request
                    if request_of is not None:
                        req = (req, request_of(args))
                    spans[idx] = (name, t0, t1, parent, req)

            return traced

        return make

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _count_timers(self) -> None:
        """Count entries pushed onto the kernel's time-ordered calendar as
        ``cluster.kernel.timers``: ``call_at`` callbacks and process
        ``Delay`` sleeps that end at a later instant, whichever path
        schedules them.  Events due now go to the kernel's FIFO and are
        not timers.  A calendar rescale re-pushes pending entries; those
        are not new timers and are not counted."""
        counts = self.counts
        rescaling = [False]

        def make_push(fn):
            def push(queue, entry):
                if not rescaling[0]:
                    counts["cluster.kernel.timers"] += 1
                return fn(queue, entry)

            return push

        def make_rescale(fn):
            def rescale(queue, width):
                rescaling[0] = True
                try:
                    return fn(queue, width)
                finally:
                    rescaling[0] = False

            return rescale

        self._patch(_CalendarQueue, "push", make_push)
        self._patch(_CalendarQueue, "_rescale", make_rescale)

    def _instance_wrapper(self, cls):
        registry = self.instances[cls]

        def make(fn):
            def register(obj, *args, **kwargs):
                registry.append(obj)
                return fn(obj, *args, **kwargs)

            return register

        return make

    def install(self) -> None:
        for layer, (classes, methods) in SPANS.items():
            for cls in classes:
                for m in methods:
                    if m in cls.__dict__:
                        self._patch(cls, m, self._span_wrapper(f"{layer}.{m}"))
        for name, (cls, m) in COUNTS.items():
            self._patch(cls, m, self._count_wrapper(name))
        self._count_timers()
        for cls in INSTANCES:
            self._patch(cls, "__init__", self._instance_wrapper(cls))

    def uninstall(self) -> None:
        for cls, attr, raw in reversed(self._saved):
            setattr(cls, attr, raw)
        self._saved.clear()

    @contextmanager
    def request(self, key):
        """Tag spans recorded inside the block with a request key."""
        prev, self._request = self._request, key
        try:
            yield
        finally:
            self._request = prev

    # -- analysis ------------------------------------------------------------

    @cached_property
    def self_times(self) -> Dict[str, float]:
        """Span name -> summed self time (duration minus direct children).
        Read after the traced pass, once the spans are final."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, t0, t1, parent, _req in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _parent, _req) in enumerate(spans):
            out[name] += (t1 - t0) - child[i]
        return out

    @cached_property
    def calls(self) -> Counter:
        """Span name -> number of spans (read after the traced pass)."""
        return Counter(s[0] for s in self.spans)

    def layer_self(self, layer: str, methods: Optional[tuple] = None) -> float:
        prefix = layer + "."
        return sum(
            v for k, v in self.self_times.items()
            if k.startswith(prefix)
            and (methods is None or k[len(prefix):] in methods)
        )

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def dump(self, path) -> None:
        """Write the spans as gzipped Chrome trace-event JSON, one event
        per line (Perfetto and chrome://tracing open it)."""
        import gzip
        import json

        base = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write('{"traceEvents": [\n')
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                event = {
                    "name": name, "ph": "X", "pid": 0, "tid": 0,
                    "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
                    "args": {"parent": parent, "request": repr(req)},
                }
                fh.write(("," if i else "") + json.dumps(event) + "\n")
            fh.write("]}\n")
