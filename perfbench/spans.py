"""In-memory spans around the public entry points of each GRASP layer.

The traced run replaces a fixed list of functions and methods with timing
wrappers for the duration of one :meth:`Instrumentation.active` block and
restores the originals afterwards; nothing under ``src/`` is edited.  A
span records its name, start, end and the span that was open on the
same thread when it started, so the report can compute each layer's
self time (its duration minus the part of it that child spans cover).

Handles returned by the wall-clock backends are wrapped in a proxy whose
``outcome()`` is timed as the layer's *wait* span; the outcomes it returns
carry the backend's ``submitted``/``finished`` stamps and the
worker-measured compute duration, from which the round-trip and overhead
percentiles are taken.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Stack(threading.local):
    def __init__(self) -> None:
        self.open: List[int] = []


class SpanRecorder:
    """Collects spans in memory; parents come from a per-thread stack.

    Spans are kept as plain tuples while recording (``list.append`` is
    atomic, so threads need no lock) and become :class:`Span` on read.
    """

    def __init__(self) -> None:
        self._raw: List[tuple] = []
        self._ids = itertools.count(1)
        self._stack = _Stack()

    def begin(self, name: str) -> tuple:
        stack = self._stack.open
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, name, time.perf_counter()

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        self._stack.open.pop()
        sid, parent, name, start = token
        self._raw.append((sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        token = self.begin(name)
        try:
            yield token[0]
        finally:
            self.end(token)

    @property
    def spans(self) -> List[Span]:
        return [Span(*raw) for raw in self._raw]


# ------------------------------------------------------------ span arithmetic
def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Parent/child index over a list of spans."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = list(spans)
        self.by_id = {s.sid: s for s in self.spans}
        self.children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for s in self.spans:
            self.children[s.parent].append(s)

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.sid, ())
        return span.duration - covered(((k.start, k.end) for k in kids),
                                       span.start, span.end)

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent) if span.parent else None
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent) if parent.parent else None
        return False

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def outermost(self, name: str) -> List[Span]:
        """Spans called ``name`` not nested inside another ``name`` span."""
        return [s for s in self.named(name) if not self.has_ancestor(s, name)]

    def accounting(self, root: Span) -> Dict[str, float]:
        """Driver-side split of one ``grasp.run`` span.

        ``accounted = compile + calibrate + engine + executor_self + submit
        + wait``, where ``calibrate`` is the initial calibration and
        ``engine``, ``submit`` and ``wait`` are the execution phase's direct
        children (recalibrations sit inside ``engine``).  The programming
        phase (``program``, task creation) is reported beside it.
        """
        parts = {"compile": 0.0, "calibrate": 0.0, "engine": 0.0,
                 "executor_self": 0.0, "submit": 0.0, "wait": 0.0}
        program = 0.0
        for child in self.children.get(root.sid, ()):
            if child.name == "core.program":
                program += child.duration
            elif child.name == "core.compile":
                parts["compile"] += child.duration
            elif child.name == "core.calibrate":
                parts["calibrate"] += child.duration
            elif child.name == "core.execute":
                parts["executor_self"] += self.self_time(child)
                for grand in self.children.get(child.sid, ()):
                    kind = grand.name.rsplit(".", 1)[-1]
                    if grand.name == "core.engine":
                        parts["engine"] += grand.duration
                    elif kind in ("submit", "wait"):
                        parts[kind] += grand.duration
                    elif grand.name == "sim.dispatch":
                        parts["submit"] += grand.duration
        parts["accounted"] = sum(parts.values())
        parts["program"] = program
        parts["wall"] = root.duration
        return parts


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample).

    The benchmark keeps its own statistics rather than the package's
    ``utils.stats``, so a change under test cannot change how it is judged.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ------------------------------------------------------------ instrumentation
class _TimedHandle:
    """Dispatch-handle proxy: ``outcome()`` runs inside a wait span."""

    def __init__(self, inner, recorder: SpanRecorder, name: str,
                 on_outcome: Callable[[Any], None]):
        self._inner = inner
        self._recorder = recorder
        self._name = name
        self._on_outcome = on_outcome
        self._seen = False

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def outcome(self):
        token = self._recorder.begin(self._name)
        try:
            outcome = self._inner.outcome()
        finally:
            self._recorder.end(token)
        if not self._seen:
            self._seen = True
            self._on_outcome(outcome)
        return outcome


class Instrumentation:
    """The traced run's wrappers plus the counters they fill."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        #: backend name -> list of (rtt, compute, lost) per dispatch
        self.dispatches: Dict[str, List[Tuple[float, float, bool]]] = \
            defaultdict(list)
        self.calibration_samples = 0
        self.monitor_observations = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- wrappers
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner: Any, attr: str, name: str,
              after: Optional[Callable[[Any, tuple], Any]] = None) -> None:
        original = owner.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = recorder.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(token)
            return after(result, args) if after is not None else result

        self._patch(owner, attr, wrapper)

    def _wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        recorder = self.recorder

        def spanned(inner):
            with recorder.span(name):
                return (yield from inner)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return spanned(original(*args, **kwargs))

        self._patch(owner, attr, wrapper)

    def _record_outcome(self, backend: str, outcome: Any) -> None:
        # A chunk's outcome holds one outcome per task.
        parts = getattr(outcome, "outcomes", (outcome,))
        live = [o for o in parts if not o.lost]
        self.dispatches[backend].append((
            outcome.finished - outcome.submitted,
            sum(o.duration for o in live),
            len(live) < len(parts)))

    def _wrap_dispatch(self, cls: Any, attr: str, backend: str) -> None:
        recorder = self.recorder

        def timed_handle(handle, _args):
            return _TimedHandle(
                handle, recorder, f"{backend}.wait",
                functools.partial(self._record_outcome, backend))

        self._wrap(cls, attr, f"{backend}.submit", after=timed_handle)

    def _count_samples(self, report, _args):
        self.calibration_samples += len(report.observations)
        return report

    def _count_observations(self, snapshots, _args):
        self.monitor_observations += len(snapshots)
        return snapshots

    def install(self) -> None:
        import repro.backends.process as process_mod
        import repro.cluster.coordinator as coordinator_mod
        import repro.core.engine as engine_mod
        import repro.core.grasp as grasp_mod
        from repro.backends.process import ProcessBackend
        from repro.backends.simulated import SimulatedBackend
        from repro.cluster.backend import ClusterBackend
        from repro.core.engine import AdaptiveEngine
        from repro.core.plan_executor import PlanExecutor
        from repro.core.program import SkeletalProgram
        from repro.monitor.monitor import ResourceMonitor

        # core
        self._wrap(SkeletalProgram, "make_tasks", "core.program")
        self._wrap(grasp_mod, "compile_program", "core.compile")
        self._wrap(grasp_mod, "calibrate", "core.calibrate",
                   after=self._count_samples)
        self._wrap(engine_mod, "calibrate", "core.calibrate",
                   after=self._count_samples)
        for method in ("observe_window", "recalibrate", "rerank"):
            self._wrap(AdaptiveEngine, method, "core.engine")
        self._wrap_generator(PlanExecutor, "as_completed", "core.execute")
        # monitor
        self._wrap(ResourceMonitor, "poll", "monitor.observe",
                   after=self._count_observations)
        self._wrap(ResourceMonitor, "forecast_all", "monitor.observe")
        # backends and cluster
        for method in ("dispatch", "dispatch_chunk"):
            self._wrap_dispatch(ProcessBackend, method, "process")
            self._wrap_dispatch(ClusterBackend, method, "cluster")
        for method in ("dispatch", "dispatch_chain"):
            self._wrap(SimulatedBackend, method, "sim.dispatch")
        for module in (process_mod, coordinator_mod):
            self._wrap(module, "dumps_oob", "shm.dumps")
            self._wrap(module, "loads_oob", "shm.loads")
        self._wrap(coordinator_mod, "encode", "cluster.encode")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
