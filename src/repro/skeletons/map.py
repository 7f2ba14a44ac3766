"""The map skeleton (data-parallel decomposition).

``MapSkeleton`` partitions a single large data structure into blocks, applies
a function to each block and reassembles the results.  It differs from the
task farm in that the decomposition is chosen by the skeleton (block count =
node count by default) rather than given by the input stream, which is the
distinction the structured-parallelism literature draws between *data
parallel* and *task parallel* farms.

It is provided as an extension skeleton: the paper's GRASP prototype covers
farm and pipeline only, but the methodology explicitly targets "commonly-used
patterns", and map lowers naturally onto the same calibration/execution
machinery (each block is a task).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.exceptions import SkeletonError
from repro.skeletons.base import (
    CostModel,
    Skeleton,
    SkeletonProperties,
    Task,
    estimate_size,
)

__all__ = ["MapSkeleton"]


class MapSkeleton(Skeleton):
    """Partition → apply → reassemble skeleton.

    Parameters
    ----------
    fn:
        Function applied to each *block* (a list of consecutive items, or a
        NumPy array slice when the input is an array).
    combine:
        How to reassemble block results; default concatenation.
    blocks:
        Number of blocks to create; defaults to the executor's worker count
        at execution time (0 means "decide at execution time").
    cost_model:
        Cost per *block*; defaults to ``len(block)`` work units.

    Examples
    --------
    >>> sk = MapSkeleton(fn=lambda block: [x * 10 for x in block], blocks=2)
    >>> sk.run_sequential([1, 2, 3, 4])
    [10, 20, 30, 40]
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        combine: Optional[Callable[[List[Any]], Any]] = None,
        blocks: int = 0,
        cost_model: Optional[CostModel] = None,
        name: str = "map",
    ):
        super().__init__(name=name)
        if not callable(fn):
            raise SkeletonError("fn must be callable")
        if blocks < 0:
            raise SkeletonError(f"blocks must be >= 0, got {blocks}")
        self.fn = fn
        self.combine = combine or self._default_combine
        self.blocks = blocks
        self.cost_model = cost_model

    @staticmethod
    def _default_combine(results: List[Any]) -> List[Any]:
        combined: List[Any] = []
        for result in results:
            if isinstance(result, (list, tuple)):
                combined.extend(result)
            elif isinstance(result, np.ndarray):
                combined.extend(result.tolist())
            else:
                combined.append(result)
        return combined

    @property
    def properties(self) -> SkeletonProperties:
        return SkeletonProperties(
            name="map",
            min_nodes=1,
            redistributable=True,
            ordered_output=True,
            monitoring_unit="task",
            stateless_workers=True,
        )

    # ------------------------------------------------------------ partitioning
    def partition(self, data: Sequence[Any], blocks: Optional[int] = None) -> List[Any]:
        """Split ``data`` into roughly equal consecutive blocks."""
        data_list = list(data)
        if len(data_list) == 0:
            raise SkeletonError("map skeleton needs a non-empty input")
        count = blocks if blocks is not None else (self.blocks or 1)
        count = max(1, min(count, len(data_list)))
        boundaries = np.linspace(0, len(data_list), count + 1).astype(int)
        return [
            data_list[boundaries[i]:boundaries[i + 1]]
            for i in range(count)
            if boundaries[i] < boundaries[i + 1]
        ]

    def make_tasks(self, inputs: Iterable[Any]) -> List[Task]:
        """One task per block (the block is the payload)."""
        blocks = self.partition(list(inputs), self.blocks if self.blocks else None)
        tasks: List[Task] = []
        for block in blocks:
            cost = (
                float(self.cost_model(block)) if self.cost_model is not None else float(len(block))
            )
            size = estimate_size(block)
            tasks.append(
                Task(task_id=self._next_task_id(), payload=block, cost=cost,
                     input_bytes=size, output_bytes=size)
            )
        return tasks

    def lower(self):
        """Lower onto the IR: a leaf fan with one unit per block."""
        from repro.core.plan import FanPlan  # local: core layers on skeletons

        return FanPlan(body=self.execute_task,
                       min_nodes=self.properties.min_nodes)

    def execute_task(self, task: Task) -> Any:
        """Apply the block function to one block (real computation)."""
        return self.fn(task.payload)

    def run_sequential(self, inputs: Iterable[Any]) -> Any:
        """Reference semantics: partition, apply, combine in order."""
        blocks = self.partition(list(inputs), self.blocks if self.blocks else 1)
        return self.combine([self.fn(block) for block in blocks])
