"""The GRASP facade: orchestrating the four phases.

:class:`Grasp` is the library's main entry point.  Given a skeleton and a
grid topology, :meth:`Grasp.run` walks the methodology of Figure 1:

1. **Programming** — wrap the skeleton and its parameterisation into a
   :class:`~repro.core.program.SkeletalProgram`.
2. **Compilation** — bind it to the parallel environment (an
   :class:`~repro.backends.base.ExecutionBackend` — the virtual-time grid
   simulator or a wall-clock backend — plus the resource monitor) via
   :func:`~repro.core.compilation.compile_program`.
3. **Calibration** — Algorithm 1 selects the fittest nodes (the sample work
   counts toward the job).
4. **Execution** — Algorithm 2 runs the skeleton adaptively, feeding back to
   calibration whenever the performance threshold is breached.

The result is a :class:`GraspResult` carrying the real outputs, the virtual
makespan, the phase timeline, and every calibration/execution report, so the
experiments can measure exactly what the paper's evaluation measured.
"""

from __future__ import annotations

import dataclasses
import json
import os
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.backends import ExecutionBackend
from repro.core.calibration import CalibrationReport, calibrate
from repro.core.compilation import CompiledProgram, compile_program
from repro.core.execution import ExecutionReport
from repro.core.parameters import GraspConfig
from repro.core.phases import Phase, PhaseTimeline
from repro.core.plan import ChainPlan
from repro.core.plan_executor import PlanExecutor
from repro.core.program import SkeletalProgram
from repro.exceptions import ExecutionError, GraspError
from repro.grid.simulator import GridSimulator
from repro.grid.topology import GridTopology
from repro.skeletons.base import Skeleton, TaskResult
from repro.utils.tracing import Tracer

__all__ = ["Grasp", "GraspResult", "StreamingRun"]


@dataclass
class GraspResult:
    """Everything one GRASP run produced."""

    outputs: Any
    results: List[TaskResult]
    makespan: float
    phases: PhaseTimeline
    calibration: CalibrationReport
    execution: ExecutionReport
    compiled: CompiledProgram
    config: GraspConfig

    @property
    def recalibrations(self) -> int:
        """Feedback-edge traversals (execution → calibration)."""
        return self.execution.recalibrations

    @property
    def chosen_nodes(self) -> List[str]:
        """The node set selected by the initial calibration."""
        return list(self.calibration.chosen)

    @property
    def total_tasks(self) -> int:
        """Number of completed task results (calibration + execution)."""
        return len(self.results)

    def per_node_counts(self) -> Dict[str, int]:
        """Tasks completed per node across the whole run."""
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.node_id] = counts.get(result.node_id, 0) + 1
        return counts

    def phase_durations(self) -> Dict[str, float]:
        """Virtual time spent per phase."""
        return self.phases.as_dict()

    @property
    def trace(self) -> Tracer:
        """The run's tracer (phase transitions, adaptation events, …)."""
        return self.compiled.tracer

    @property
    def metrics(self) -> Optional[Dict[str, Any]]:
        """Final metrics snapshot of the run, or None when metrics are
        disabled (``GraspConfig(metrics=False)``).

        A fresh :meth:`~repro.metrics.MetricsRegistry.snapshot` per
        access; the underlying registry is reachable as
        ``result.compiled.metrics``.
        """
        registry = self.compiled.metrics
        return registry.snapshot() if registry is not None else None


class StreamingRun:
    """A GRASP run consumed result-by-result.

    Iterating yields every :class:`~repro.skeletons.base.TaskResult` the
    run produces — calibration samples first (their work counts toward the
    job), then execution results in the order the adaptive loop collects
    them.  On concurrent backends collection proceeds one monitoring
    window at a time (farm windows fan in by submission order, pipeline
    windows by completion time); lower ``ExecutionConfig.monitor_interval``
    for tighter streaming.  After the iterator is exhausted,
    :attr:`result` holds the complete :class:`GraspResult`.

    The run advances only as the caller iterates: an abandoned stream stops
    dispatching.  Call :meth:`close` (or exhaust the stream) to release an
    internally created backend.
    """

    def __init__(self, stream: Iterator[TaskResult],
                 cleanup: Optional[Any] = None,
                 metrics: Optional[Any] = None):
        self._stream = stream
        self._metrics = metrics
        # The backend exists before the generator first runs (compilation
        # is eager), but GC of a *never-started* generator skips its
        # finally blocks — so a dropped, never-iterated run would leak the
        # backend's workers.  A finalizer closes it on GC; backend close
        # is idempotent, so the normal exhaustion path closing first is
        # fine.  (cleanup must not reference this object, or it would
        # never become collectable.)
        self._cleanup = (weakref.finalize(self, cleanup)
                         if cleanup is not None else None)
        #: The full :class:`GraspResult`; ``None`` until the stream is
        #: exhausted.
        self.result: Optional[GraspResult] = None

    def __iter__(self) -> "StreamingRun":
        return self

    def __next__(self) -> TaskResult:
        try:
            return next(self._stream)
        except StopIteration as stop:
            if self.result is None and stop.value is not None:
                self.result = stop.value
            raise StopIteration from None

    def metrics(self) -> Optional[Dict[str, Any]]:
        """A live snapshot of the run's metrics, or None when disabled.

        Safe to call at any point of the stream — the registry snapshots
        without stopping the writers — so a consumer can watch counters
        and latency percentiles move while results are still landing.
        """
        registry = self._metrics
        return registry.snapshot() if registry is not None else None

    def close(self) -> None:
        """Abandon the run early, releasing internally created backends."""
        self._stream.close()
        # Closing a never-started generator skips its finally blocks, so
        # release the eagerly-compiled backend explicitly (close is
        # idempotent — a normally-exhausted stream already released it).
        if self._cleanup is not None:
            self._cleanup()


class Grasp:
    """Adaptive structured-parallelism runtime (the paper's contribution).

    ``backend`` selects the parallel environment: ``"simulated"`` (default,
    deterministic virtual time), ``"thread"`` (real OS threads under
    wall-clock monitoring), ``"process"`` (serial worker processes — true
    parallelism for CPU-bound, picklable payloads), ``"asyncio"`` (one
    event loop for coroutine workers), ``"cluster"`` (one localhost TCP
    worker agent per grid node — pass a
    :class:`~repro.cluster.backend.ClusterBackend` instance instead to run
    on real remote machines) or any
    :class:`~repro.backends.base.ExecutionBackend` instance, e.g. a
    :class:`~repro.backends.faults.FaultInjectingBackend` wrapping one of
    the concurrent backends.

    Examples
    --------
    >>> from repro import Grasp, TaskFarm, GridBuilder
    >>> grid = GridBuilder().heterogeneous(nodes=6, speed_spread=4.0).build(seed=1)
    >>> grasp = Grasp(skeleton=TaskFarm(worker=lambda x: x + 1), grid=grid)
    >>> result = grasp.run(inputs=range(32))
    >>> result.outputs == [x + 1 for x in range(32)]
    True

    >>> result = Grasp(skeleton=TaskFarm(worker=lambda x: x + 1), grid=grid,
    ...                backend="thread").run(inputs=range(32))
    >>> result.outputs == [x + 1 for x in range(32)]
    True
    """

    def __init__(
        self,
        skeleton: Skeleton,
        grid: GridTopology,
        config: Optional[GraspConfig] = None,
        simulator: Optional[GridSimulator] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        trace_path: Optional[str] = None,
    ):
        self.skeleton = skeleton
        self.grid = grid
        self.config = config or GraspConfig()
        if trace_path is not None:
            # Shorthand for GraspConfig(trace_path=...): every run of this
            # Grasp writes its JSONL event stream to the given path.
            self.config = dataclasses.replace(self.config,
                                              trace_path=trace_path)
        self._external_simulator = simulator
        self._backend = backend

    # ------------------------------------------------------------------ run
    def run(self, inputs: Iterable[Any], start_time: float = 0.0) -> GraspResult:
        """Run the skeleton on ``inputs`` over the grid; return the result."""
        stream = self.as_completed(inputs, start_time=start_time)
        for _ in stream:
            pass
        assert stream.result is not None
        return stream.result

    def as_completed(self, inputs: Iterable[Any],
                     start_time: float = 0.0) -> StreamingRun:
        """Run the skeleton, yielding each result as it lands.

        The streaming form of :meth:`run`: returns a :class:`StreamingRun`
        whose iteration drives the four phases and yields every completed
        :class:`~repro.skeletons.base.TaskResult` as the adaptive loop
        collects it — calibration samples first, then execution results —
        instead of blocking until the whole :class:`GraspResult` is ready.

        Examples
        --------
        >>> from repro import Grasp, TaskFarm, GridBuilder
        >>> grid = GridBuilder().homogeneous(nodes=4).build(seed=0)
        >>> run = Grasp(skeleton=TaskFarm(worker=lambda x: x + 1),
        ...             grid=grid).as_completed(inputs=range(8))
        >>> seen = [r.output for r in run]      # results as they land
        >>> sorted(seen) == list(range(1, 9)) and run.result.makespan > 0
        True
        """
        # Programming and compilation run eagerly so misconfiguration
        # (unknown backend, master outside the pool, empty inputs) raises
        # here, at the call site, not at the first next().
        timeline = PhaseTimeline()

        # ---------------------------------------------------- 1. programming
        timeline.enter(Phase.PROGRAMMING, start_time)
        program = SkeletalProgram(self.skeleton, self.config)
        tasks = program.make_tasks(inputs)
        expected = len(tasks)
        timeline.leave(start_time)

        # ---------------------------------------------------- 2. compilation
        timeline.enter(Phase.COMPILATION, start_time)
        compiled = compile_program(program, self.grid,
                                   simulator=self._external_simulator,
                                   at_time=start_time,
                                   backend=self._backend)

        def cleanup() -> None:
            if compiled.owns_backend:
                compiled.backend.close()
            # Flush and release any trace sinks even when the run is
            # abandoned before its first next() (the finalizer path).
            compiled.tracer.close()

        return StreamingRun(
            self._stream(compiled, program, tasks, expected, timeline,
                         start_time),
            cleanup=cleanup,
            metrics=compiled.metrics,
        )

    def _stream(self, compiled, program, tasks, expected, timeline,
                start_time: float) -> Iterator[TaskResult]:
        try:
            result = yield from self._stream_compiled(
                compiled, program, tasks, expected, timeline, start_time)
            return result
        finally:
            if compiled.owns_backend:
                compiled.backend.close()
            # The run is over (or abandoned): flush and close the trace
            # sinks so the JSONL file is complete the moment the stream
            # ends.  The tracer itself stays readable (result.trace).
            compiled.tracer.close()
            self._dump_metrics(compiled)

    def _dump_metrics(self, compiled) -> None:
        """Dump the final snapshot when a metrics path is configured.

        Like ``GRASP_TRACE``, the file is overwritten per run: a process
        running several skeletons leaves the last run's snapshot behind.
        """
        registry = compiled.metrics
        if registry is None:
            return
        path = self.config.metrics_path or os.environ.get("GRASP_METRICS")
        if not path:
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(registry.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def _stream_compiled(self, compiled, program, tasks, expected, timeline,
                         start_time: float) -> Iterator[TaskResult]:
        compiled.tracer.record("phase.programming", "skeletal program created",
                               tasks=expected,
                               skeleton=program.properties.name)
        timeline.leave(start_time)

        # ---------------------------------------------------- 3. calibration
        timeline.enter(Phase.CALIBRATION, start_time)
        calibration = calibrate(
            tasks=tasks,
            pool=compiled.pool,
            execute_fn=program.execute_task,
            config=self.config.calibration,
            master_node=compiled.master_node,
            min_nodes=program.min_nodes,
            at_time=start_time,
            monitor=compiled.monitor,
            consume=True,
            tracer=compiled.tracer,
            backend=compiled.backend,
        )
        timeline.leave(calibration.finished)
        # Calibration samples count toward the job; stream them first.
        yield from calibration.results

        # ------------------------------------------------------ 4. execution
        # Every skeleton lowered onto the plan IR during the programming
        # phase; one executor walks any plan shape adaptively.
        timeline.enter(Phase.EXECUTION, calibration.finished)
        if isinstance(program.plan, ChainPlan) and not tasks:
            raise ExecutionError(
                "the calibration sample consumed every pipeline item; "
                "reduce sample_per_node or supply more inputs"
            )
        executor = PlanExecutor(
            plan=program.plan,
            simulator=compiled.backend,
            config=self.config,
            master_node=compiled.master_node,
            pool=compiled.pool,
            min_nodes=program.min_nodes,
            monitor=compiled.monitor,
            tracer=compiled.tracer,
        )
        execution = yield from executor.as_completed(tasks, calibration)

        # Interleave the feedback edge (recalibrations) into the timeline so
        # the Figure-1 trace shows execution → calibration → execution cycles.
        for recal in execution.recalibration_reports:
            timeline.leave(recal.started)
            timeline.enter(Phase.CALIBRATION, recal.started)
            timeline.leave(recal.finished)
            timeline.enter(Phase.EXECUTION, recal.finished)
        timeline.leave(max(execution.finished, calibration.finished))

        # ---------------------------------------------------------- results
        all_results = list(calibration.results) + list(execution.results)
        seen = {}
        for result in all_results:
            if result.task_id in seen:
                raise GraspError(f"task {result.task_id} completed twice")
            seen[result.task_id] = result
        if len(seen) != expected:
            raise GraspError(
                f"run produced {len(seen)} results for {expected} tasks"
            )
        ordered_outputs = [seen[task_id].output for task_id in sorted(seen)]
        outputs = program.assemble(ordered_outputs)

        makespan = max(execution.finished, calibration.finished) - start_time
        compiled.backend.advance_to(execution.finished)

        return GraspResult(
            outputs=outputs,
            results=all_results,
            makespan=makespan,
            phases=timeline,
            calibration=calibration,
            execution=execution,
            compiled=compiled,
            config=self.config,
        )
