"""Non-adaptive pipeline baseline.

:class:`StaticPipeline` maps each stage onto a node once, before execution,
and never reconsiders the mapping.  Two mapping rules are provided:

* ``"declaration"`` — stage *k* on the *k*-th node of the worker list (the
  naive mapping an MPI pipeline would use);
* ``"speed"`` — heaviest stage on the nominally fastest node (a
  heterogeneity-aware static mapping, the stronger comparator; it still
  cannot react to *dynamic* load, which is the gap adaptation closes in
  experiment E5).

The streaming model (per-stage serialisation, inter-stage transfers, result
return to the master) is identical to the adaptive
:class:`~repro.core.plan_executor.PlanExecutor` — both stream
through :meth:`~repro.backends.base.ExecutionBackend.dispatch_chain` — so
measured differences come from the mapping policy alone, and the baseline
runs on any backend (virtual time or real threads).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.backends import DispatchHandle, ExecutionBackend, as_backend
from repro.baselines.result import BaselineResult
from repro.exceptions import ConfigurationError, ExecutionError
from repro.grid.simulator import GridSimulator
from repro.grid.topology import GridTopology
from repro.core.plan_executor import lower_chain_stages
from repro.skeletons.base import Task, TaskResult
from repro.skeletons.pipeline import Pipeline

__all__ = ["StaticPipeline"]

_MAPPINGS = {"declaration", "speed"}


class StaticPipeline:
    """Fixed stage-to-node mapping, no monitoring, no remapping."""

    def __init__(
        self,
        pipeline: Pipeline,
        grid: GridTopology,
        mapping: str = "declaration",
        workers: Optional[Sequence[str]] = None,
        master_node: Optional[str] = None,
        simulator: Optional[Union[GridSimulator, ExecutionBackend]] = None,
    ):
        if not isinstance(pipeline, Pipeline):
            raise ConfigurationError("StaticPipeline needs a Pipeline skeleton")
        if mapping not in _MAPPINGS:
            raise ConfigurationError(
                f"unknown mapping {mapping!r}; expected one of {_MAPPINGS}"
            )
        self.pipeline = pipeline
        self.grid = grid
        self.mapping = mapping
        self.backend = as_backend(simulator if simulator is not None else grid)
        self.simulator = getattr(self.backend, "simulator", None)
        self.master_node = master_node or grid.node_ids[0]
        if self.master_node not in grid:
            raise ConfigurationError(f"unknown master node {self.master_node!r}")
        default_workers = [n for n in grid.node_ids if n != self.master_node]
        self.workers = (list(workers) if workers is not None
                        else (default_workers or [self.master_node]))
        for node in self.workers:
            if node not in grid:
                raise ConfigurationError(f"unknown worker node {node!r}")
        if len(self.workers) < pipeline.num_stages:
            raise ConfigurationError(
                f"pipeline has {pipeline.num_stages} stages but only "
                f"{len(self.workers)} workers were provided"
            )

    # --------------------------------------------------------------- mapping
    def stage_assignment(self, sample_item: Any) -> Dict[int, str]:
        """The static stage → node assignment used by this baseline."""
        stages = self.pipeline.num_stages
        if self.mapping == "declaration":
            return {i: self.workers[i] for i in range(stages)}
        # "speed": heaviest stage to nominally fastest node.
        costs = [self.pipeline.stage_cost(i, sample_item) for i in range(stages)]
        stage_order = sorted(range(stages), key=lambda i: -costs[i])
        node_order = sorted(self.workers, key=lambda n: -self.grid.node(n).speed)
        return {stage: node_order[pos] for pos, stage in enumerate(stage_order)}

    # ------------------------------------------------------------------- run
    def run(self, inputs: Iterable[Any], start_time: float = 0.0) -> BaselineResult:
        """Stream all items through the fixed mapping; return the result."""
        tasks = self.pipeline.make_tasks(inputs)
        if not tasks:
            raise ExecutionError("static pipeline needs at least one item")
        assignment = self.stage_assignment(tasks[0].payload)
        chain = lower_chain_stages(
            self.pipeline.lower(),
            lambda index: (lambda free_at, _node=assignment[index]: _node),
        )

        # The master may release the next item once the previous one's input
        # hand-off to the first stage has completed; collection happens after
        # the whole stream is issued so concurrent backends pipeline for real.
        handles: List[Tuple[Task, DispatchHandle]] = []
        emit_time = float(start_time)
        for task in tasks:
            handle = self.backend.dispatch_chain(
                task, chain, master_node=self.master_node, at_time=emit_time,
            )
            emit_time = handle.next_emit
            handles.append((task, handle))

        results: List[TaskResult] = [
            TaskResult(task_id=task.task_id, output=outcome.output,
                       node_id=outcome.final_node, submitted=outcome.submitted,
                       started=outcome.submitted, finished=outcome.finished,
                       stage=self.pipeline.num_stages - 1)
            for task, outcome in
            ((task, handle.outcome()) for task, handle in handles)
        ]

        finished = max(r.finished for r in results)
        ordered = [r.output for r in sorted(results, key=lambda r: r.task_id)]
        return BaselineResult(
            outputs=ordered, results=results, makespan=finished - start_time,
            started=float(start_time), finished=finished,
            strategy=f"static-pipeline-{self.mapping}",
            nodes=[assignment[i] for i in range(self.pipeline.num_stages)],
        )
