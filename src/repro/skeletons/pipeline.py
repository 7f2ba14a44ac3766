"""The pipeline skeleton.

A pipeline pushes a stream of items through an ordered sequence of *stages*;
different items occupy different stages simultaneously, so throughput is
bounded by the slowest stage.  It is the second GRASP skeleton (reference
[7] of the paper: "Towards fully adaptive pipeline parallelism for
heterogeneous distributed environments").

Adaptation handles the pipeline's weakness — a stage mapped onto a node that
slows down throttles the whole stream — by remapping stages onto fitter
nodes (and, when a stage is declared ``replicable``, by farming it across
several nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.exceptions import SkeletonError
from repro.skeletons.base import (
    CostModel,
    Skeleton,
    SkeletonProperties,
    Task,
    constant_cost,
    estimate_size,
)
from repro.utils.awaitables import resolve_awaitable

__all__ = ["Stage", "Pipeline"]


@dataclass
class Stage:
    """One pipeline stage.

    Parameters
    ----------
    fn:
        The stage function ``item -> item``.
    cost_model:
        Work units charged per item at this stage (default 1.0 per item).
    name:
        Label used in traces; defaults to ``stage<k>`` when added.
    replicable:
        Whether this stage may be farmed over several nodes (it must then be
        stateless across items).
    """

    fn: Callable[[Any], Any]
    cost_model: Optional[CostModel] = None
    name: str = ""
    replicable: bool = False

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise SkeletonError("stage fn must be callable")
        if self.cost_model is None:
            self.cost_model = constant_cost(1.0)

    def cost(self, item: Any) -> float:
        """Compute cost of processing ``item`` at this stage."""
        assert self.cost_model is not None
        return float(self.cost_model(item))


class Pipeline(Skeleton):
    """Ordered composition of stages applied to a stream of items.

    Examples
    --------
    >>> pipe = Pipeline([Stage(lambda x: x + 1), Stage(lambda x: x * 2)])
    >>> pipe.run_sequential([1, 2, 3])
    [4, 6, 8]
    """

    def __init__(self, stages: Sequence[Stage], ordered: bool = True,
                 name: str = "pipeline"):
        super().__init__(name=name)
        if len(stages) == 0:
            raise SkeletonError("a pipeline needs at least one stage")
        self.stages: List[Stage] = []
        for index, stage in enumerate(stages):
            if not isinstance(stage, Stage):
                raise SkeletonError(
                    f"stage {index} is not a Stage instance (got {type(stage).__name__})"
                )
            if not stage.name:
                stage.name = f"stage{index}"
            self.stages.append(stage)
        self.ordered = ordered

    @property
    def num_stages(self) -> int:
        """Number of stages."""
        return len(self.stages)

    @property
    def properties(self) -> SkeletonProperties:
        return SkeletonProperties(
            name="pipeline",
            min_nodes=self.num_stages,
            redistributable=any(stage.replicable for stage in self.stages),
            ordered_output=self.ordered,
            monitoring_unit="stage_round",
            stateless_workers=all(stage.replicable for stage in self.stages),
        )

    def make_tasks(self, inputs: Iterable[Any]) -> List[Task]:
        """One task per input item, costed at the *first* stage.

        Downstream stage costs are charged by the executor as the item
        advances, because the payload (and hence its cost) may change at
        every stage.
        """
        tasks: List[Task] = []
        first = self.stages[0]
        for item in inputs:
            input_bytes = estimate_size(item)
            tasks.append(
                Task(
                    task_id=self._next_task_id(),
                    payload=item,
                    cost=first.cost(item),
                    input_bytes=input_bytes,
                    output_bytes=input_bytes,
                    stage=0,
                )
            )
        if not tasks:
            raise SkeletonError("a pipeline needs at least one input item")
        return tasks

    def lower(self):
        """Lower onto the IR: a chain with one plan stage per stage.

        Replication and chunking hints are left unset so the run's
        :class:`~repro.core.parameters.ExecutionConfig` decides
        (``replicate_stages`` / ``chunk_size``).
        """
        from repro.core.plan import (  # local: core layers on skeletons
            ChainPlan,
            stage_from_pipeline_stage,
        )

        return ChainPlan(
            stages=tuple(stage_from_pipeline_stage(stage)
                         for stage in self.stages)
        )

    def apply_stage(self, stage_index: int, item: Any) -> Any:
        """Run one stage function on one item (real computation)."""
        if not (0 <= stage_index < self.num_stages):
            raise SkeletonError(f"stage index {stage_index} out of range")
        return resolve_awaitable(self.stages[stage_index].fn(item))

    def stage_cost(self, stage_index: int, item: Any) -> float:
        """Compute cost of ``item`` at stage ``stage_index``."""
        if not (0 <= stage_index < self.num_stages):
            raise SkeletonError(f"stage index {stage_index} out of range")
        return self.stages[stage_index].cost(item)

    def total_cost(self, item: Any) -> float:
        """Total compute cost of threading ``item`` through every stage.

        Used by the calibration phase, which samples *whole items* (an item
        cannot meaningfully leave the stream half-processed), so sample
        times must be normalised against the full per-item cost.
        """
        total = 0.0
        value = item
        for stage in self.stages:
            total += stage.cost(value)
            value = resolve_awaitable(stage.fn(value))
        return total

    def run_item(self, item: Any) -> Any:
        """Thread a single item through every stage (real computation)."""
        value = item
        for stage in self.stages:
            value = resolve_awaitable(stage.fn(value))
        return value

    def run_sequential(self, inputs: Iterable[Any]) -> List[Any]:
        """Reference semantics: thread each item through all stages in order."""
        outputs: List[Any] = []
        for item in inputs:
            value = item
            for stage in self.stages:
                value = resolve_awaitable(stage.fn(value))
            outputs.append(value)
        return outputs
