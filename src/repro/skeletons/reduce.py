"""The reduce skeleton (parallel reduction).

``ReduceSkeleton`` combines a collection into a single value with an
associative binary operator.  Parallel execution reduces blocks locally and
then combines the partial results, so the operator must be associative; the
skeleton verifies commutativity is *not* required by always combining
partials in block order.

Provided as an extension skeleton (see :mod:`repro.skeletons.map` for the
rationale).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, List, Optional

from repro.exceptions import SkeletonError
from repro.skeletons.base import Skeleton, SkeletonProperties, Task, estimate_size

__all__ = ["ReduceSkeleton"]


class ReduceSkeleton(Skeleton):
    """Parallel reduction with an associative binary operator.

    Parameters
    ----------
    op:
        Associative binary operator ``(a, b) -> c``.
    identity:
        Optional identity element; required when the input may be empty.
    blocks:
        Number of blocks for the parallel phase (0 = decide at execution).
    cost_per_element:
        Work units charged per element combined (default 1.0).

    Examples
    --------
    >>> sk = ReduceSkeleton(op=lambda a, b: a + b, identity=0, blocks=4)
    >>> sk.run_sequential(range(10))
    45
    """

    def __init__(
        self,
        op: Callable[[Any, Any], Any],
        identity: Optional[Any] = None,
        blocks: int = 0,
        cost_per_element: float = 1.0,
        name: str = "reduce",
    ):
        super().__init__(name=name)
        if not callable(op):
            raise SkeletonError("op must be callable")
        if blocks < 0:
            raise SkeletonError(f"blocks must be >= 0, got {blocks}")
        if cost_per_element < 0:
            raise SkeletonError("cost_per_element must be >= 0")
        self.op = op
        self.identity = identity
        self.blocks = blocks
        self.cost_per_element = float(cost_per_element)

    @property
    def properties(self) -> SkeletonProperties:
        return SkeletonProperties(
            name="reduce",
            min_nodes=1,
            redistributable=True,
            ordered_output=True,
            monitoring_unit="task",
            stateless_workers=True,
        )

    def _partition(self, data: List[Any], blocks: Optional[int]) -> List[List[Any]]:
        count = blocks if blocks else (self.blocks or 1)
        count = max(1, min(count, len(data))) if data else 1
        if not data:
            return []
        size = (len(data) + count - 1) // count
        return [data[i:i + size] for i in range(0, len(data), size)]

    def make_tasks(self, inputs: Iterable[Any]) -> List[Task]:
        """One task per block; the payload is the block to reduce locally."""
        data = list(inputs)
        if not data and self.identity is None:
            raise SkeletonError("cannot reduce an empty input without an identity")
        tasks: List[Task] = []
        for block in self._partition(data, self.blocks if self.blocks else None):
            size = estimate_size(block)
            tasks.append(
                Task(task_id=self._next_task_id(), payload=block,
                     cost=self.cost_per_element * len(block),
                     input_bytes=size, output_bytes=max(1, size // max(1, len(block)))),
            )
        return tasks

    def lower(self):
        """Lower onto the IR: a leaf fan with one unit per reduced block."""
        from repro.core.plan import FanPlan  # local: core layers on skeletons

        return FanPlan(body=self.execute_task,
                       min_nodes=self.properties.min_nodes)

    def execute_task(self, task: Task) -> Any:
        """Reduce one block locally (real computation)."""
        return self.reduce_block(task.payload)

    def reduce_block(self, block: List[Any]) -> Any:
        """Sequential reduction of one block."""
        if not block:
            if self.identity is None:
                raise SkeletonError("cannot reduce an empty block without an identity")
            return self.identity
        return functools.reduce(self.op, block)

    def combine_partials(self, partials: List[Any]) -> Any:
        """Combine per-block partial results, in block order."""
        if not partials:
            if self.identity is None:
                raise SkeletonError("cannot combine zero partials without an identity")
            return self.identity
        return functools.reduce(self.op, partials)

    def run_sequential(self, inputs: Iterable[Any]) -> Any:
        """Reference semantics: sequential fold over the whole input."""
        data = list(inputs)
        if not data:
            if self.identity is None:
                raise SkeletonError("cannot reduce an empty input without an identity")
            return self.identity
        if self.identity is not None:
            return functools.reduce(self.op, data, self.identity)
        return functools.reduce(self.op, data)
