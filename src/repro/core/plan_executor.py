"""Algorithm 2 over the execution-plan IR.

One adaptive executor for every skeleton: :class:`PlanExecutor` walks any
:data:`~repro.core.plan.Plan` — a fan of independent units, a chain of
stages, or a fan whose unit is itself a chained sub-plan — through the
shared :class:`~repro.core.engine.AdaptiveEngine`.  Monitoring windows,
threshold breaches, recalibrate/re-rank, streaming ``as_completed``,
chunked dispatch and the lost-task livelock cap are uniform across all
plan shapes and all backends.

The three walks:

* **Fan** (:class:`~repro.core.plan.FanPlan`, callable body) — demand-driven
  self-scheduling of independent tasks, chunk-at-a-time, with per-task
  loss recovery and the lost-task cap.  Bit-identical to the historical
  farm executor on the virtual-time simulator.
* **Chain** (:class:`~repro.core.plan.ChainPlan`) — calibration ranking maps
  the heaviest stages to the fittest nodes (replicas over the spares
  when replication is on), items stream through the backend chain
  primitive, and the monitor judges the normalised inter-completion gap
  (the reciprocal throughput).  Bit-identical to the historical
  pipeline executor at ``chunk_size=1``; larger chunks fold k
  consecutive completions into one decision sample and widen the window
  budget exactly like fan chunking.  Items reported *lost* by the
  backend are re-enqueued under the same cap that protects fans, so a
  never-succeeding-but-available node aborts instead of livelocking.
* **Nested fan** (``FanPlan`` whose body is a ``ChainPlan``) — a farm whose
  worker is a whole pipeline: each unit is dispatched through the chain
  primitive with every stage picking the earliest-free chosen node, so
  the composition executes stage-by-stage on real grid nodes instead of
  collapsing to one opaque callable.
"""

from __future__ import annotations

import collections
import math
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.backends import (
    ChainStage,
    DispatchHandle,
    DispatchOutcome,
    ExecutionBackend,
    as_backend,
)
from repro.core.calibration import CalibrationReport
from repro.core.engine import (
    AdaptiveEngine,
    MonitoringWindow,
    ResultCursor,
    drain_stream,
)
from repro.core.execution import ExecutionReport
from repro.core.parameters import GraspConfig
from repro.core.plan import ChainPlan, FanPlan, Plan, UnitRunner
from repro.core.scheduler import DemandDrivenScheduler
from repro.exceptions import ExecutionError, GridError
from repro.grid.simulator import GridSimulator
from repro.monitor.monitor import ResourceMonitor
from repro.skeletons.base import Task, TaskResult
from repro.utils.tracing import Tracer

__all__ = [
    "PlanExecutor",
    "StageMapping",
    "build_plan_mapping",
    "lower_chain_stages",
    "resolve_auto_chunk",
]


def resolve_auto_chunk(backend: ExecutionBackend,
                       calibration: CalibrationReport,
                       n_tasks: int, n_workers: int) -> int:
    """The dispatch chunk size for ``chunk_size="auto"``.

    Batches just enough tasks per dispatch that the backend's measured
    per-dispatch overhead stays under ~10% of the chunk's compute time
    (mean task duration from the calibration sample), clamped so every
    worker still sees at least two dispatches — self-scheduling needs
    slack to balance load.  Falls back to ``1`` (pure self-scheduling)
    when the backend reports no measurable overhead (simulator, threads)
    or the sample carried no durations.
    """
    try:
        overhead = float(backend.dispatch_overhead())
    except Exception:
        overhead = 0.0
    durations = [obs.duration for obs in calibration.observations
                 if obs.duration > 0.0]
    if overhead <= 0.0 or not durations:
        return 1
    mean_duration = sum(durations) / len(durations)
    size = math.ceil(overhead / (0.1 * mean_duration))
    cap = max(1, n_tasks // (2 * max(1, n_workers)))
    return max(1, min(size, cap))


class StageMapping:
    """Assignment of chain stages to grid nodes (with optional replicas)."""

    def __init__(self, assignment: Dict[int, List[str]]):
        if not assignment:
            raise ExecutionError("stage mapping cannot be empty")
        for stage, nodes in assignment.items():
            if not nodes:
                raise ExecutionError(f"stage {stage} has no nodes assigned")
        self.assignment: Dict[int, List[str]] = {
            stage: list(nodes) for stage, nodes in assignment.items()
        }

    def nodes_for(self, stage: int) -> List[str]:
        """All nodes serving ``stage`` (one unless the stage is replicated)."""
        return list(self.assignment[stage])

    def pick_node(self, stage: int, free_at) -> str:
        """Choose the replica with the earliest availability for the next item."""
        nodes = self.assignment[stage]
        if len(nodes) == 1:
            return nodes[0]
        return min(nodes, key=lambda n: (free_at(n), n))

    def all_nodes(self) -> List[str]:
        """Every distinct node used by the mapping, in stage order."""
        seen: Dict[str, None] = {}
        for stage in sorted(self.assignment):
            for node in self.assignment[stage]:
                seen.setdefault(node, None)
        return list(seen)

    def as_dict(self) -> Dict[int, List[str]]:
        return {stage: list(nodes) for stage, nodes in self.assignment.items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StageMapping) and self.assignment == other.assignment


def build_plan_mapping(
    chain: ChainPlan,
    ranked_nodes: Sequence[str],
    sample_item: object,
    replicate: bool = False,
) -> StageMapping:
    """Map chain stages onto ranked nodes, heaviest stage to fittest node.

    ``ranked_nodes`` must contain at least ``chain.num_stages`` entries;
    extra nodes are used as replicas of the costliest replicable stages
    when ``replicate`` is enabled (otherwise they are left unused).
    """
    stages = chain.num_stages
    if len(ranked_nodes) < stages:
        raise ExecutionError(
            f"the chain needs {stages} nodes, calibration chose {len(ranked_nodes)}"
        )
    costs = [float(chain.stages[i].cost(sample_item)) for i in range(stages)]
    order = sorted(range(stages), key=lambda i: -costs[i])
    assignment: Dict[int, List[str]] = {}
    for position, stage_index in enumerate(order):
        assignment[stage_index] = [ranked_nodes[position]]

    if replicate and len(ranked_nodes) > stages:
        spares = list(ranked_nodes[stages:])
        replicable = [i for i in order if chain.stages[i].replicable]
        if replicable:
            cursor = 0
            for spare in spares:
                assignment[replicable[cursor % len(replicable)]].append(spare)
                cursor += 1
    return StageMapping(assignment)


def lower_chain_stages(chain: ChainPlan, pick_for_stage) -> List[ChainStage]:
    """Lower a chain plan onto backend chain stages.

    ``pick_for_stage(index)`` returns the node-pick callable for one
    stage (a fixed node for static mappings, replica selection for
    adaptive ones, earliest-free-of-the-chosen for nested fans); cost
    and apply come from the plan itself, so every chain construction
    shares one lowering.
    """
    return [
        ChainStage(
            pick=pick_for_stage(index),
            cost=chain.stages[index].cost,
            apply=chain.stages[index].apply,
        )
        for index in range(chain.num_stages)
    ]


class PlanExecutor:
    """Adaptive execution engine for any plan of the IR."""

    def __init__(
        self,
        plan: Plan,
        simulator: Union[GridSimulator, ExecutionBackend],
        config: GraspConfig,
        master_node: str,
        pool: Sequence[str],
        min_nodes: Optional[int] = None,
        monitor: Optional[ResourceMonitor] = None,
        tracer: Optional[Tracer] = None,
    ):
        if not isinstance(plan, (FanPlan, ChainPlan)):
            raise ExecutionError(
                f"not an execution plan: {type(plan).__name__}"
            )
        self.plan = plan
        self.backend = as_backend(simulator)
        if not self.backend.has_node(master_node):
            raise ExecutionError(f"unknown master node {master_node!r}")
        if not pool:
            raise ExecutionError("plan executor needs a non-empty node pool")
        self.simulator = getattr(self.backend, "simulator", None)
        self.config = config
        self.master_node = master_node
        self.pool = list(pool)
        if isinstance(plan, ChainPlan):
            self.min_nodes = max(plan.num_stages, min_nodes or 1)
        else:
            self.min_nodes = max(
                1, plan.min_nodes if min_nodes is None else min_nodes
            )
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.scheduler = DemandDrivenScheduler()
        self.engine = AdaptiveEngine(
            backend=self.backend, config=config, master_node=master_node,
            pool=self.pool, monitor=monitor, tracer=self.tracer,
        )

    # ------------------------------------------------------------------ run
    def run(self, tasks, calibration: CalibrationReport,
            start_time: Optional[float] = None) -> ExecutionReport:
        """Execute all pending ``tasks`` adaptively; return the report."""
        return drain_stream(self.as_completed(tasks, calibration, start_time))

    def as_completed(self, tasks, calibration: CalibrationReport,
                     start_time: Optional[float] = None,
                     ) -> Iterator[TaskResult]:
        """Execute adaptively, yielding each result as it lands.

        The streaming form of :meth:`run`: the same dispatch/monitor/
        adapt loop, but every completed
        :class:`~repro.skeletons.base.TaskResult` (including results of
        recalibration probes that consume pending tasks) is yielded as
        soon as the loop *collects* it.  On concurrent backends a
        window's dispatches are collected in fan-in order (fans) or by
        completion time (chains — the inter-arrival statistic requires
        it); lower ``ExecutionConfig.monitor_interval`` for tighter
        streaming.  The generator's return value is the final
        :class:`~repro.core.execution.ExecutionReport` (also reachable
        as ``self.engine.report`` once the stream is exhausted).
        """
        start = (calibration.finished if start_time is None
                 else float(start_time))
        if isinstance(self.plan, ChainPlan):
            return self._chain_stream(self.plan, list(tasks), calibration,
                                      start)
        # Fan walks consume (and on losses re-fill) the queue in place, so
        # a caller-supplied deque is shared; any other sequence is copied.
        if not isinstance(tasks, collections.deque):
            tasks = collections.deque(tasks)
        if self.plan.nested:
            return self._nested_stream(self.plan, tasks, calibration, start)
        return self._fan_stream(self.plan, tasks, calibration, start)

    # ---------------------------------------------------------- fan walking
    def _fan_stream(self, plan: FanPlan, tasks: Deque[Task],
                    calibration: CalibrationReport, start: float,
                    ) -> Iterator[TaskResult]:
        """Demand-driven dispatch of independent units (the farm loop)."""
        exec_cfg = self.config.execution
        engine = self.engine
        execute_fn = plan.body

        chosen = self._workers_from(calibration.chosen)
        report = engine.begin(calibration, start)
        report.chosen_history.append(list(chosen))
        cursor = ResultCursor(report)

        master_free = start
        chunk_size = self._resolve_chunk(plan.chunk_size, calibration,
                                         len(tasks), len(chosen))
        lost_task_limit = self._lost_task_limit(len(tasks))

        self.tracer.record("phase.execution.start", "fan execution started",
                           chosen=list(chosen), tasks=len(tasks),
                           chunk_size=chunk_size)

        def collect(chunk: List[Task], handle: DispatchHandle) -> int:
            """Fold one finished chunk dispatch into the window.

            Handles per-task losses (a node died while holding work —
            the fault-injection path on concurrent backends, the failure
            models on the simulator): lost tasks are re-enqueued in
            order and the dead node leaves the chosen set.  Returns the
            number of tasks that completed.
            """
            nonlocal chosen
            outcome = handle.outcome()
            survived: List[Tuple[Task, DispatchOutcome]] = []
            lost: List[Task] = []
            for task, task_outcome in zip(chunk, outcome.outcomes):
                if task_outcome.lost:
                    lost.append(task)
                else:
                    survived.append((task, task_outcome))
            if lost:
                tasks.extendleft(reversed(lost))
                self._note_lost(report, len(lost), lost_task_limit)
                chosen = [n for n in chosen if n != outcome.node_id]
                if not chosen:
                    chosen = self._recover_pool(master_free)
                report.chosen_history.append(list(chosen))
            if not survived:
                return 0
            for task, task_outcome in survived:
                report.results.append(task_outcome.to_task_result(task))
            window.record_chunk(
                outcome.node_id,
                [task_outcome for _, task_outcome in survived],
                [task.cost if task.cost > 0 else 1.0 for task, _ in survived],
            )
            return len(survived)

        while tasks:
            # The window budget is monitor units × chunk size: one round
            # still collects ~one decision sample per chosen worker, and
            # chunking cannot shrink the number of concurrent dispatches
            # (chunk_size=1 keeps the historical task-per-unit budget).
            window_size = max(1, exec_cfg.monitor_interval or len(chosen))
            window_tasks = min(window_size * chunk_size, len(tasks))
            window = MonitoringWindow(floor=start)

            dispatched = 0
            inflight: List[Tuple[List[Task], DispatchHandle]] = []
            while dispatched < window_tasks and tasks:
                take = min(chunk_size, window_tasks - dispatched, len(tasks))
                chunk = [tasks.popleft() for _ in range(max(1, take))]
                handle = self._dispatch(chunk, execute_fn, chosen, master_free)
                if handle is None:
                    # Every chosen worker is dead: force recalibration over
                    # the remaining pool (or fail if nothing is left).
                    tasks.extendleft(reversed(chunk))
                    chosen = self._recover_pool(master_free)
                    report.chosen_history.append(list(chosen))
                    continue
                master_free = handle.master_free_after
                if self.backend.eager:
                    dispatched += collect(chunk, handle)
                    yield from cursor.drain()
                else:
                    # Concurrent backend: let the window's chunks overlap
                    # across the workers and fan them in afterwards.
                    inflight.append((chunk, handle))
                    dispatched += len(chunk)
            for chunk, handle in inflight:
                collect(chunk, handle)
                yield from cursor.drain()

            if window.empty:
                continue

            # --------------------------------------------------- monitoring
            chosen_before = list(chosen)

            def on_recalibrate() -> None:
                nonlocal chosen, master_free
                recal = engine.recalibrate(
                    tasks, at_time=window.finished, execute_fn=execute_fn,
                    min_nodes=self.min_nodes, consume=True,
                )
                report.results.extend(recal.results)
                chosen = self._workers_from(recal.chosen)
                master_free = max(master_free, recal.finished)
                window.span(finished=recal.finished)
                self.tracer.record("adaptation.recalibrate", "fan recalibrated",
                                   round=engine.round_index, chosen=list(chosen))

            def on_rerank() -> None:
                nonlocal chosen
                chosen = self._workers_from(
                    engine.rerank(window, at_time=window.finished,
                                  min_nodes=self.min_nodes)
                )
                self.tracer.record("adaptation.rerank", "fan re-ranked",
                                   round=engine.round_index, chosen=list(chosen))

            engine.observe_window(
                window,
                has_pending=bool(tasks),
                nodes_before=chosen_before,
                nodes_now=lambda: list(chosen),
                on_recalibrate=on_recalibrate,
                on_rerank=on_rerank,
            )
            # Recalibration consumed pending tasks; their results stream too.
            yield from cursor.drain()

        report = engine.finish()
        self.tracer.record("phase.execution.end", "fan execution finished",
                           results=len(report.results),
                           recalibrations=report.recalibrations)
        return report

    # -------------------------------------------------------- chain walking
    def _chain_stream(self, chain: ChainPlan, items: List[Task],
                      calibration: CalibrationReport, start: float,
                      ) -> Iterator[TaskResult]:
        """Stream items through the chain stages (the pipeline loop)."""
        exec_cfg = self.config.execution
        engine = self.engine
        backend = self.backend
        if not items:
            raise ExecutionError("chain execution needs at least one item")

        replicate = (exec_cfg.replicate_stages if chain.replicate is None
                     else chain.replicate)
        chunk_size = self._resolve_chunk(chain.chunk_size, calibration,
                                         len(items),
                                         max(1, len(calibration.chosen)))

        sample_item = items[0].payload
        mapping = build_plan_mapping(chain, calibration.chosen, sample_item,
                                     replicate=replicate)
        stages = self._mapped_stages(chain, mapping)

        report = engine.begin(calibration, start)
        report.chosen_history.append(mapping.all_nodes())
        cursor = ResultCursor(report)

        # Results of calibration-phase items are produced by the caller
        # (Grasp.run) because the chain sample runs all stages per item.
        window_size = max(1, exec_cfg.monitor_interval or
                          max(len(mapping.all_nodes()), 1))

        emit_time = start  # the master releases items into the stream
        pending = collections.deque(items)
        lost_task_limit = self._lost_task_limit(len(pending))

        self.tracer.record("phase.execution.start", "chain execution started",
                           mapping=mapping.as_dict(), items=len(pending),
                           chunk_size=chunk_size)

        # The monitor node observes the stream of results it receives.  Its
        # decision statistic T is the gap between consecutive item
        # completions, normalised per work unit of the completing item —
        # i.e. the reciprocal throughput of the whole chain.  A window
        # whose *minimum* normalised gap exceeds Z (Algorithm 2's rule)
        # means even the best recent inter-arrival is too slow: the stream
        # is throttled by a degraded stage, so the skeleton adapts.  With
        # ``chunk_size=k`` the gaps of k consecutive completions fold into
        # one sample (total gap over total cost), mirroring the fan's
        # one-sample-per-chunk statistic.
        last_completion: Optional[float] = None
        group_gaps: List[float] = []
        group_costs: List[float] = []

        def flush_group() -> None:
            if not group_gaps:
                return
            window.record_unit(sum(group_gaps) / sum(group_costs))
            group_gaps.clear()
            group_costs.clear()

        def collect(task: Task, outcome) -> None:
            """Fold one streamed item into the window and the report."""
            nonlocal last_completion, mapping, stages
            if getattr(outcome, "lost", False):
                # A node failed while holding the item mid-chain: the item
                # re-enters the stream.  A node that is genuinely dead
                # leaves the mapping; one that stays "available" while
                # losing everything it is given is bounded by the cap.
                pending.appendleft(task)
                self._note_lost(report, 1, lost_task_limit)
                at = max(window.finished, getattr(outcome, "finished", 0.0))
                if any(not backend.is_available(n, at)
                       for n in mapping.all_nodes()):
                    mapping = build_plan_mapping(
                        chain,
                        engine.alive_pool(
                            at, minimum=chain.num_stages,
                            insufficient_message=(
                                "not enough live nodes to host every "
                                "chain stage"
                            ),
                        ),
                        sample_item, replicate=replicate,
                    )
                    stages = self._mapped_stages(chain, mapping)
                    report.chosen_history.append(mapping.all_nodes())
                return
            result = TaskResult(
                task_id=task.task_id, output=outcome.output,
                node_id=outcome.final_node, submitted=outcome.submitted,
                started=outcome.submitted, finished=outcome.finished,
                stage=chain.num_stages - 1,
            )
            report.results.append(result)
            window.span(result.submitted, result.finished)
            if last_completion is not None:
                gap = max(result.finished - last_completion, 0.0)
                group_gaps.append(gap)
                group_costs.append(
                    outcome.item_cost if outcome.item_cost > 0 else 1.0
                )
                if len(group_gaps) >= chunk_size:
                    flush_group()
            last_completion = result.finished
            for node_id, duration, cost, started in outcome.stage_records:
                window.record_node(
                    node_id,
                    duration / (cost if cost > 0 else 1.0),
                    backend.observe_load(node_id, started),
                )

        while pending:
            window = MonitoringWindow(floor=emit_time)
            inflight: List[Tuple[Task, DispatchHandle]] = []

            for _ in range(min(window_size * chunk_size, len(pending))):
                task = pending.popleft()
                engine.count("tasks.dispatched")
                handle = backend.dispatch_chain(
                    task, stages, master_node=self.master_node,
                    at_time=emit_time,
                )
                emit_time = handle.next_emit
                if backend.eager:
                    collect(task, handle.outcome())
                    yield from cursor.drain()
                else:
                    inflight.append((task, handle))
            # Concurrent chains may finish out of submission order; fold them
            # by completion time so the inter-arrival gap statistic (and its
            # zero clamp) keeps measuring real throughput.
            resolved = [(task, handle.outcome()) for task, handle in inflight]
            for task, outcome in sorted(resolved,
                                        key=lambda pair: pair[1].finished):
                collect(task, outcome)
                yield from cursor.drain()
            # A window's trailing partial chunk still contributes a sample.
            flush_group()

            if window.empty:
                continue

            # --------------------------------------------------- monitoring
            nodes_before = mapping.all_nodes()

            def on_recalibrate() -> None:
                nonlocal mapping, stages, emit_time
                probe_queue: collections.deque = collections.deque([pending[0]])
                # Probes are never counted (consume=False), so the simulator
                # skips the payload entirely; measurement-based backends run
                # the full stage chain to time the node on real work.
                recal = engine.recalibrate(
                    probe_queue, at_time=window.finished,
                    execute_fn=UnitRunner(chain),
                    min_nodes=chain.num_stages, consume=False,
                    min_alive=chain.num_stages,
                    insufficient_message=(
                        "not enough live nodes to host every chain stage"
                    ),
                )
                new_mapping = build_plan_mapping(
                    chain, recal.chosen, sample_item, replicate=replicate,
                )
                emit_time = self._apply_remap(mapping, new_mapping,
                                              max(window.finished,
                                                  recal.finished))
                mapping = new_mapping
                stages = self._mapped_stages(chain, mapping)
                self.tracer.record("adaptation.recalibrate", "chain remapped",
                                   round=engine.round_index,
                                   mapping=mapping.as_dict())

            def on_rerank() -> None:
                nonlocal mapping, stages, emit_time
                ranked = engine.rerank(
                    window, at_time=window.finished,
                    min_nodes=chain.num_stages,
                    min_alive=chain.num_stages,
                    insufficient_message=(
                        "not enough live nodes to host every chain stage"
                    ),
                )
                new_mapping = build_plan_mapping(
                    chain, ranked, sample_item, replicate=replicate,
                )
                emit_time = self._apply_remap(mapping, new_mapping,
                                              window.finished)
                mapping = new_mapping
                stages = self._mapped_stages(chain, mapping)
                self.tracer.record("adaptation.rerank", "chain re-ranked",
                                   round=engine.round_index,
                                   mapping=mapping.as_dict())

            engine.observe_window(
                window,
                has_pending=bool(pending),
                nodes_before=nodes_before,
                nodes_now=lambda: mapping.all_nodes(),
                on_recalibrate=on_recalibrate,
                on_rerank=on_rerank,
            )
            yield from cursor.drain()

        report = engine.finish()
        self.tracer.record("phase.execution.end", "chain execution finished",
                           results=len(report.results),
                           recalibrations=report.recalibrations)
        return report

    # --------------------------------------------------- nested fan walking
    def _nested_stream(self, plan: FanPlan, tasks: Deque[Task],
                       calibration: CalibrationReport, start: float,
                       ) -> Iterator[TaskResult]:
        """A fan whose unit is a chained sub-plan (farm of pipelines).

        Units stay independent and demand for them stays with the fan,
        but each unit executes *as a chain*: every stage picks the
        earliest-free node among the currently chosen set, so the
        inner pipeline's stages spread over the grid instead of
        collapsing onto whichever node the farm picked.  The decision
        statistic is fan-shaped (one normalised whole-unit time per
        item); per-stage node times still feed the re-ranking path.
        """
        exec_cfg = self.config.execution
        engine = self.engine
        backend = self.backend
        chain = plan.body
        assert isinstance(chain, ChainPlan)

        chosen = self._workers_from(calibration.chosen)
        report = engine.begin(calibration, start)
        report.chosen_history.append(list(chosen))
        cursor = ResultCursor(report)

        emit_time = start
        lost_task_limit = self._lost_task_limit(len(tasks))

        def pick_earliest_free(free_at):
            # Every stage shares one pick: the earliest-free live node of
            # the *current* chosen set (adaptation rebinds `chosen`).
            candidates = [n for n in chosen
                          if backend.is_available(n, free_at(n))]
            if not candidates:
                candidates = list(chosen)
            return min(candidates, key=lambda n: (free_at(n), n))

        stages = lower_chain_stages(chain, lambda _index: pick_earliest_free)

        self.tracer.record("phase.execution.start",
                           "nested fan execution started",
                           chosen=list(chosen), tasks=len(tasks),
                           stages=chain.num_stages)

        def resolve(handle: DispatchHandle):
            """A unit's outcome, with mid-chain node death folded to a loss.

            The pre-IR composition collapsed onto a farm whose per-task
            dispatches resolved as *lost* when a worker died; chain
            dispatch surfaces the same death as a ``GridError`` instead
            (the process and cluster backends raise it mid-stage).
            Converting it here preserves the fan's fault tolerance: the
            unit re-enters the queue under the lost-task cap rather
            than aborting the run.  Payload exceptions propagate as
            themselves, exactly like farm dispatch.
            """
            try:
                return handle.outcome()
            except GridError:
                return None

        def collect(task: Task, outcome) -> None:
            """Fold one finished unit (a whole chain walk) into the window."""
            nonlocal chosen
            if outcome is None or getattr(outcome, "lost", False):
                tasks.appendleft(task)
                self._note_lost(report, 1, lost_task_limit)
                at = max(window.finished, getattr(outcome, "finished", 0.0))
                alive = [n for n in chosen if backend.is_available(n, at)]
                if alive != chosen:
                    chosen = alive or self._recover_pool(at)
                    report.chosen_history.append(list(chosen))
                return
            result = TaskResult(
                task_id=task.task_id, output=outcome.output,
                node_id=outcome.final_node, submitted=outcome.submitted,
                started=outcome.submitted, finished=outcome.finished,
                stage=chain.num_stages - 1,
            )
            report.results.append(result)
            window.span(result.submitted, result.finished)
            records = outcome.stage_records
            total_cost = sum(cost if cost > 0 else 1.0
                             for _, _, cost, _ in records)
            total_duration = sum(duration for _, duration, _, _ in records)
            window.record_unit(
                total_duration / (total_cost if total_cost > 0 else 1.0)
            )
            for node_id, duration, cost, started in records:
                window.record_node(
                    node_id,
                    duration / (cost if cost > 0 else 1.0),
                    backend.observe_load(node_id, started),
                )

        while tasks:
            window_size = max(1, exec_cfg.monitor_interval or len(chosen))
            window = MonitoringWindow(floor=emit_time)
            inflight: List[Tuple[Task, DispatchHandle]] = []

            for _ in range(min(window_size, len(tasks))):
                task = tasks.popleft()
                engine.count("tasks.dispatched")
                try:
                    handle = backend.dispatch_chain(
                        task, stages, master_node=self.master_node,
                        at_time=emit_time,
                    )
                except GridError:
                    # Dead at dispatch: the unit never left the master.
                    collect(task, None)
                    continue
                emit_time = handle.next_emit
                if backend.eager:
                    collect(task, resolve(handle))
                    yield from cursor.drain()
                else:
                    inflight.append((task, handle))
            resolved = [(task, resolve(handle)) for task, handle in inflight]
            # Lost units first (they carry no completion time), then by
            # completion order.
            for task, outcome in sorted(
                    resolved,
                    key=lambda pair: (pair[1].finished if pair[1] is not None
                                      else float("-inf"))):
                collect(task, outcome)
                yield from cursor.drain()

            if window.empty:
                continue

            # --------------------------------------------------- monitoring
            chosen_before = list(chosen)

            def on_recalibrate() -> None:
                nonlocal chosen, emit_time
                recal = engine.recalibrate(
                    tasks, at_time=window.finished,
                    execute_fn=UnitRunner(chain),
                    min_nodes=self.min_nodes, consume=True,
                )
                report.results.extend(recal.results)
                chosen = self._workers_from(recal.chosen)
                emit_time = max(emit_time, recal.finished)
                window.span(finished=recal.finished)
                self.tracer.record("adaptation.recalibrate",
                                   "nested fan recalibrated",
                                   round=engine.round_index,
                                   chosen=list(chosen))

            def on_rerank() -> None:
                nonlocal chosen
                chosen = self._workers_from(
                    engine.rerank(window, at_time=window.finished,
                                  min_nodes=self.min_nodes)
                )
                self.tracer.record("adaptation.rerank", "nested fan re-ranked",
                                   round=engine.round_index,
                                   chosen=list(chosen))

            engine.observe_window(
                window,
                has_pending=bool(tasks),
                nodes_before=chosen_before,
                nodes_now=lambda: list(chosen),
                on_recalibrate=on_recalibrate,
                on_rerank=on_rerank,
            )
            yield from cursor.drain()

        report = engine.finish()
        self.tracer.record("phase.execution.end",
                           "nested fan execution finished",
                           results=len(report.results),
                           recalibrations=report.recalibrations)
        return report

    # ------------------------------------------------------------ internals
    def _resolve_chunk(self, plan_chunk: Optional[int],
                       calibration: CalibrationReport,
                       n_tasks: int, n_workers: int) -> int:
        """The effective dispatch chunk size for this walk.

        A plan-level chunk size wins over the config's; ``"auto"``
        derives one from the calibration sample and the backend's
        measured dispatch overhead (see :func:`resolve_auto_chunk`).
        """
        requested = plan_chunk or self.config.execution.chunk_size
        if requested == "auto":
            chunk = resolve_auto_chunk(self.backend, calibration,
                                       n_tasks, n_workers)
            self.tracer.record("execution.auto_chunk",
                               "chunk size derived from dispatch overhead",
                               chunk_size=chunk, tasks=n_tasks,
                               workers=n_workers)
            return chunk
        return max(1, int(requested))

    def _lost_task_limit(self, pending: int) -> int:
        """Total-loss cap turning a livelock into a clean error.

        A node that loses every task it is given (a worker that can
        never run, e.g. persistently failing to spawn) would otherwise
        be re-dispatched forever on backends whose availability query
        cannot see the breakage; cap total losses so a livelock becomes
        an error — uniformly for fans and chains.
        """
        return max(64, 8 * (pending + len(self.pool)))

    def _note_lost(self, report: ExecutionReport, count: int,
                   limit: int) -> None:
        report.lost_tasks += count
        self.engine.count("tasks.requeued", count)
        self.tracer.record("task.requeue", "lost tasks re-enqueued",
                           count=count, total_lost=report.lost_tasks,
                           limit=limit)
        if report.lost_tasks > limit:
            raise ExecutionError(
                f"{report.lost_tasks} tasks lost (limit {limit}): a node "
                "appears to lose every task it is given; aborting instead "
                "of thrashing"
            )

    def _workers_from(self, chosen: Sequence[str]) -> List[str]:
        """The worker set derived from a chosen-node list.

        The master only computes when configured to (or when it is the
        only chosen node).
        """
        workers = list(chosen)
        if not self.config.execution.master_computes and len(workers) > 1:
            workers = [n for n in workers if n != self.master_node] or workers
        if not workers:
            raise ExecutionError("calibration selected an empty worker set")
        return workers

    def _recover_pool(self, time: float) -> List[str]:
        """Rebuild the worker set from whatever pool nodes are still alive."""
        alive = self.engine.alive_pool(time)
        self.engine.count("adaptation.failovers")
        self.tracer.record("adaptation.failover",
                           "rebuilt worker set after failures",
                           alive=list(alive))
        return self._workers_from(alive)

    def _dispatch(self, chunk: Sequence[Task],
                  execute_fn: Callable[[Task], object],
                  chosen: Sequence[str],
                  master_free: float) -> Optional[DispatchHandle]:
        """Send one chunk of tasks to the earliest-free chosen worker.

        Returns ``None`` when no chosen worker is available.
        """
        backend = self.backend
        ready = {}
        for node in chosen:
            free_at = max(backend.node_free_at(node), master_free)
            if backend.is_available(node, free_at):
                ready[node] = free_at
        if not ready:
            return None
        node = self.scheduler.next_node(ready)
        self.engine.count("tasks.dispatched", len(chunk))
        return backend.dispatch_chunk(
            chunk, node, execute_fn, master_node=self.master_node,
            at_time=ready[node], check_loss=True,
        )

    def _mapped_stages(self, chain: ChainPlan,
                       mapping: StageMapping) -> List[ChainStage]:
        """Lower the current stage mapping onto backend chain stages."""
        return lower_chain_stages(
            chain,
            lambda index: (lambda free_at, _i=index, _m=mapping:
                           _m.pick_node(_i, free_at)),
        )

    def _apply_remap(self, old: StageMapping, new: StageMapping,
                     at_time: float) -> float:
        """Charge state migration for every stage whose node changed.

        Returns the time at which the stream may resume.
        """
        self.engine.count("adaptation.remaps")
        migration_bytes = self.config.execution.migration_bytes
        resume = at_time
        if migration_bytes <= 0:
            return resume
        for stage, new_nodes in new.as_dict().items():
            old_nodes = old.as_dict().get(stage, [])
            if old_nodes and new_nodes and old_nodes[0] != new_nodes[0]:
                transfer = self.backend.transfer(old_nodes[0], new_nodes[0],
                                                 migration_bytes,
                                                 at_time=at_time)
                resume = max(resume, transfer.finished)
        return resume
