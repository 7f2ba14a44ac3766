"""Skeleton base classes, tasks and cost models.

The GRASP methodology relies on each skeleton exposing its *intrinsic
properties* — "which capture its essence and distinguish it from the rest" —
so the runtime can instrument and adapt it.  :class:`SkeletonProperties`
captures the properties the calibration and execution phases consume:
minimum node requirements, whether in-flight work can be redistributed,
whether item ordering must be preserved, and the skeleton's natural unit of
monitoring (task for a farm, stage-round for a pipeline).

A :class:`Task` is one schedulable unit: a payload (the user's data), a
compute cost in abstract work units, and input/output sizes in bytes for the
communication model.  :class:`TaskResult` records where and when it ran.
:func:`estimate_size` supplies those byte counts for arbitrary payloads.
"""

from __future__ import annotations

import itertools
import pickle
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, List, Optional

import numpy as np

from repro.exceptions import SkeletonError

__all__ = [
    "CostModel",
    "constant_cost",
    "callable_cost",
    "Task",
    "TaskResult",
    "SkeletonProperties",
    "Skeleton",
    "estimate_size",
]

#: A cost model maps a task payload to abstract work units.
CostModel = Callable[[Any], float]

#: Fixed per-message envelope overhead in bytes (headers, tags, pickling
#: framing).  Small but non-zero so that zero-byte payloads still cost a
#: latency-bound message.
ENVELOPE_BYTES = 64


def estimate_size(payload: Any) -> int:
    """Estimate the serialised size of ``payload`` in bytes.

    Communication cost in the simulator depends on message size.  For
    arbitrary Python payloads the size is estimated with :mod:`pickle`;
    fast paths avoid pickling large NumPy arrays just to measure them.
    """
    if payload is None:
        return ENVELOPE_BYTES
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes) + ENVELOPE_BYTES
    if isinstance(payload, memoryview):
        # len() counts elements; a multi-byte format needs nbytes.
        return payload.nbytes + ENVELOPE_BYTES
    if isinstance(payload, (bytes, bytearray)):
        return len(payload) + ENVELOPE_BYTES
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + ENVELOPE_BYTES
    if isinstance(payload, (int, float, bool, complex)):
        return sys.getsizeof(payload) + ENVELOPE_BYTES
    if isinstance(payload, (list, tuple)) and payload and all(
        isinstance(item, (int, float, bool)) for item in payload
    ):
        return 8 * len(payload) + ENVELOPE_BYTES
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) + ENVELOPE_BYTES
    except Exception:
        # Unpicklable payloads (e.g. closures over locks) still need a size;
        # fall back to a conservative flat estimate.
        return 1024 + ENVELOPE_BYTES


@dataclass(frozen=True)
class _ConstantCost:
    """Picklable cost model charging the same cost for every item."""

    cost: float

    def __call__(self, _item: Any) -> float:
        return self.cost


@dataclass(frozen=True)
class _ValidatedCost:
    """Picklable wrapper validating an arbitrary cost callable on use."""

    fn: Callable[[Any], float]

    def __call__(self, item: Any) -> float:
        value = float(self.fn(item))
        if value < 0:
            raise SkeletonError(f"cost model returned a negative cost: {value}")
        return value


def constant_cost(cost: float) -> CostModel:
    """A cost model charging the same ``cost`` for every item.

    The returned callable is picklable (the process backend ships cost
    models across worker boundaries).
    """
    if cost < 0:
        raise SkeletonError(f"cost must be >= 0, got {cost}")
    return _ConstantCost(float(cost))


def callable_cost(fn: Callable[[Any], float]) -> CostModel:
    """Wrap an arbitrary callable as a cost model with validation on use.

    Picklable whenever ``fn`` itself is.
    """
    return _ValidatedCost(fn)


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work."""

    task_id: int
    payload: Any
    cost: float = 1.0
    input_bytes: int = 0
    output_bytes: int = 0
    stage: int = 0

    def scaled(self, factor: float) -> "Task":
        """A copy of this task with its cost scaled by ``factor``."""
        if factor < 0:
            raise SkeletonError(f"scale factor must be >= 0, got {factor}")
        return replace(self, cost=self.cost * factor)


@dataclass(frozen=True)
class TaskResult:
    """Outcome of executing one task on one node."""

    task_id: int
    output: Any
    node_id: str
    submitted: float
    started: float
    finished: float
    stage: int = 0
    during_calibration: bool = False

    @property
    def duration(self) -> float:
        """Pure compute time of the task."""
        return self.finished - self.started

    @property
    def elapsed(self) -> float:
        """Submission-to-completion time (includes queueing)."""
        return self.finished - self.submitted


@dataclass(frozen=True)
class SkeletonProperties:
    """The intrinsic properties GRASP instruments.

    Attributes
    ----------
    name:
        Skeleton family name (``"taskfarm"``, ``"pipeline"``, …).
    min_nodes:
        Fewest nodes on which the skeleton can execute (1 master + workers
        for a farm; one node per stage for an unreplicated pipeline).
    redistributable:
        Whether queued work can be moved between nodes mid-run (true for a
        farm; true for a pipeline only via stage remapping).
    ordered_output:
        Whether output order must match input order.
    monitoring_unit:
        The natural granularity at which Algorithm 2 collects times:
        ``"task"`` or ``"stage_round"``.
    stateless_workers:
        Whether worker functions keep no inter-task state (a precondition
        for free task migration).
    """

    name: str
    min_nodes: int = 2
    redistributable: bool = True
    ordered_output: bool = False
    monitoring_unit: str = "task"
    stateless_workers: bool = True


class Skeleton:
    """Base class for all skeletons."""

    def __init__(self, name: str):
        if not name:
            raise SkeletonError("skeleton name must be non-empty")
        self.name = name
        self._task_counter = itertools.count()

    # -- description ----------------------------------------------------------
    @property
    def properties(self) -> SkeletonProperties:
        """The skeleton's intrinsic properties (overridden by subclasses)."""
        raise NotImplementedError

    def make_tasks(self, inputs: Iterable[Any]) -> List[Task]:
        """Turn an input collection into a list of :class:`Task` objects."""
        raise NotImplementedError

    # -- lowering --------------------------------------------------------------
    def lower(self):
        """Lower this skeleton onto the execution-plan IR.

        Every skeleton targets the same small IR
        (:mod:`repro.core.plan`): a :class:`~repro.core.plan.FanPlan`
        of independent units, a :class:`~repro.core.plan.ChainPlan` of
        streamed stages, or a fan whose unit is itself a chained
        sub-plan.  One executor
        (:class:`~repro.core.plan_executor.PlanExecutor`) then walks
        any plan adaptively on any backend.

        The default lowering covers every farm-shaped skeleton — one
        independent unit per task, executed by ``execute_task``;
        skeletons with chained or nested structure override it.
        """
        from repro.core.plan import FanPlan  # local: core layers on skeletons

        execute = getattr(self, "execute_task", None)
        if execute is None:
            raise SkeletonError(
                f"skeleton {type(self).__name__} defines neither lower() "
                "nor execute_task"
            )
        return FanPlan(body=execute, min_nodes=self.properties.min_nodes)

    # -- sequential reference --------------------------------------------------
    def run_sequential(self, inputs: Iterable[Any]) -> List[Any]:
        """Execute the skeleton's semantics sequentially (reference results).

        Used by tests and by the analysis harness to verify that every
        executor (adaptive or static, simulated or threaded) preserves the
        skeleton's meaning — the "clear and consistent meaning across
        platforms" the paper attributes to structured parallelism.
        """
        raise NotImplementedError

    # -- adaptive runs ---------------------------------------------------------
    def as_completed(self, grid, inputs: Iterable[Any], config=None,
                     backend=None, start_time: float = 0.0):
        """Run this skeleton adaptively on ``grid``, streaming results.

        Convenience front door to
        :meth:`repro.core.grasp.Grasp.as_completed`: returns a
        :class:`~repro.core.grasp.StreamingRun` yielding every
        :class:`TaskResult` as the adaptive loop collects it; after
        exhaustion its ``result`` attribute holds the full
        :class:`~repro.core.grasp.GraspResult`.

        Examples
        --------
        >>> from repro import GridBuilder, TaskFarm
        >>> grid = GridBuilder().homogeneous(nodes=4).build(seed=0)
        >>> farm = TaskFarm(worker=lambda x: x * 2)
        >>> outputs = sorted(r.output for r in
        ...                  farm.as_completed(grid, inputs=range(6)))
        >>> outputs == [x * 2 for x in range(6)]
        True
        """
        from repro.core.grasp import Grasp  # local: core layers on skeletons

        return Grasp(skeleton=self, grid=grid, config=config,
                     backend=backend).as_completed(inputs,
                                                   start_time=start_time)

    # -- helpers ---------------------------------------------------------------
    def _next_task_id(self) -> int:
        return next(self._task_counter)

    def _sizes_for(self, payload: Any, result_hint: Optional[Any] = None) -> tuple:
        input_bytes = estimate_size(payload)
        output_bytes = estimate_size(result_hint) if result_hint is not None else input_bytes
        return input_bytes, output_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
