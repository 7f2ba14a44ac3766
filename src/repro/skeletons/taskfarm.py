"""The task-farm skeleton.

A task farm (master/worker) applies one *worker* function independently to
every element of an input collection.  It is the canonical embarrassingly
parallel skeleton and the first of the two skeletons GRASP provides
(reference [6] of the paper: "Self-adaptive skeletal task farm for
computational grids").

The farm's intrinsic properties — independent tasks, stateless workers, free
redistribution — are exactly what makes it maximally adaptable: any queued
task can be (re)assigned to any node at any time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.exceptions import SkeletonError
from repro.utils.awaitables import resolve_awaitable
from repro.skeletons.base import (
    CostModel,
    Skeleton,
    SkeletonProperties,
    Task,
    constant_cost,
    estimate_size,
)

__all__ = ["TaskFarm"]


class TaskFarm(Skeleton):
    """Master/worker skeleton applying ``worker`` to every input item.

    Parameters
    ----------
    worker:
        The sequential function applied to each item.  It must be free of
        inter-item state (the farm's contract).
    cost_model:
        Maps an item to its compute cost in abstract work units; defaults to
        a constant cost of 1.0 per item.  The cost drives the virtual-time
        simulation — the worker is *also* executed for real so results are
        genuine.
    output_size:
        Optional fixed size (bytes) of each result for the communication
        model; when omitted the result size is estimated from the input.
    ordered:
        When ``True`` the executor must emit results in input order.
    name:
        Label used in traces and reports.

    Examples
    --------
    >>> farm = TaskFarm(worker=lambda x: x * x)
    >>> [t.cost for t in farm.make_tasks([1, 2, 3])]
    [1.0, 1.0, 1.0]
    >>> farm.run_sequential([1, 2, 3])
    [1, 4, 9]
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        cost_model: Optional[CostModel] = None,
        output_size: Optional[int] = None,
        input_size_model: Optional[Callable[[Any], int]] = None,
        output_size_model: Optional[Callable[[Any], int]] = None,
        ordered: bool = False,
        name: str = "taskfarm",
    ):
        super().__init__(name=name)
        if not callable(worker):
            raise SkeletonError("worker must be callable")
        self.worker = worker
        self.cost_model: CostModel = cost_model or constant_cost(1.0)
        self.output_size = output_size
        self.input_size_model = input_size_model
        self.output_size_model = output_size_model
        self.ordered = ordered

    @property
    def properties(self) -> SkeletonProperties:
        return SkeletonProperties(
            name="taskfarm",
            min_nodes=1,
            redistributable=True,
            ordered_output=self.ordered,
            monitoring_unit="task",
            stateless_workers=True,
        )

    def make_tasks(self, inputs: Iterable[Any]) -> List[Task]:
        """Wrap each input item in a :class:`Task` with its modelled cost."""
        tasks: List[Task] = []
        for item in inputs:
            cost = float(self.cost_model(item))
            if self.input_size_model is not None:
                input_bytes = int(self.input_size_model(item))
            else:
                input_bytes = estimate_size(item)
            if self.output_size_model is not None:
                output_bytes = int(self.output_size_model(item))
            elif self.output_size is not None:
                output_bytes = self.output_size
            else:
                output_bytes = input_bytes
            tasks.append(
                Task(
                    task_id=self._next_task_id(),
                    payload=item,
                    cost=cost,
                    input_bytes=input_bytes,
                    output_bytes=int(output_bytes),
                )
            )
        if not tasks:
            raise SkeletonError("a task farm needs at least one input item")
        return tasks

    def lower(self):
        """Lower onto the IR: a leaf fan of independent worker units."""
        from repro.core.plan import FanPlan  # local: core layers on skeletons

        return FanPlan(body=self.execute_task,
                       min_nodes=self.properties.min_nodes)

    def execute_task(self, task: Task) -> Any:
        """Run the worker on one task's payload (real computation)."""
        return self.worker(task.payload)

    def run_sequential(self, inputs: Iterable[Any]) -> List[Any]:
        """Reference semantics: map the worker over the inputs in order."""
        return [resolve_awaitable(self.worker(item)) for item in inputs]
