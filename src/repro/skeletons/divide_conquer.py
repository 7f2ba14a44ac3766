"""The divide-and-conquer skeleton.

``DivideAndConquer`` recursively splits a problem until a triviality test
succeeds, solves the base cases and combines sub-solutions on the way back
up.  For execution on the grid the recursion is unrolled breadth-first down
to a configurable depth, producing independent sub-problems that are then
farmed — which is precisely how skeletal libraries of the era lowered D&C
onto a task farm.

Provided as an extension skeleton (the paper's prototype covers farm and
pipeline; D&C is the most commonly requested third pattern).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.exceptions import SkeletonError
from repro.skeletons.base import (
    CostModel,
    Skeleton,
    SkeletonProperties,
    Task,
    estimate_size,
)

__all__ = ["DivideAndConquer"]


class DivideAndConquer(Skeleton):
    """Recursive divide / conquer / combine skeleton.

    Parameters
    ----------
    divide:
        ``problem -> [subproblem, ...]``.
    combine:
        ``(problem, [subsolution, ...]) -> solution``.
    solve:
        ``problem -> solution`` applied at the base case.
    is_trivial:
        ``problem -> bool``; when true, ``solve`` is applied directly.
    parallel_depth:
        How many levels of recursion to unroll into farmable tasks.
    cost_model:
        Cost of *solving* a (sub-)problem sequentially; defaults to 1.0.

    Examples
    --------
    Summing a list by halving::

        dc = DivideAndConquer(
            divide=lambda xs: [xs[:len(xs)//2], xs[len(xs)//2:]],
            combine=lambda _p, subs: subs[0] + subs[1],
            solve=lambda xs: sum(xs),
            is_trivial=lambda xs: len(xs) <= 4,
        )
        assert dc.run_sequential([list(range(10))]) == [45]
    """

    def __init__(
        self,
        divide: Callable[[Any], Sequence[Any]],
        combine: Callable[[Any, List[Any]], Any],
        solve: Callable[[Any], Any],
        is_trivial: Callable[[Any], bool],
        parallel_depth: int = 2,
        cost_model: Optional[CostModel] = None,
        name: str = "divide_and_conquer",
    ):
        super().__init__(name=name)
        for label, fn in (("divide", divide), ("combine", combine),
                          ("solve", solve), ("is_trivial", is_trivial)):
            if not callable(fn):
                raise SkeletonError(f"{label} must be callable")
        if parallel_depth < 0:
            raise SkeletonError(f"parallel_depth must be >= 0, got {parallel_depth}")
        self.divide = divide
        self.combine = combine
        self.solve = solve
        self.is_trivial = is_trivial
        self.parallel_depth = parallel_depth
        self.cost_model = cost_model

    @property
    def properties(self) -> SkeletonProperties:
        return SkeletonProperties(
            name="divide_and_conquer",
            min_nodes=1,
            redistributable=True,
            ordered_output=True,
            monitoring_unit="task",
            stateless_workers=True,
        )

    # -------------------------------------------------------------- unrolling
    def unroll(self, problem: Any, depth: Optional[int] = None) -> tuple:
        """Unroll the recursion to ``depth`` levels.

        Returns ``(leaves, plan)`` where ``leaves`` is the list of
        sub-problems to be solved as independent tasks and ``plan`` is the
        nested structure needed by :meth:`recombine` (either an integer leaf
        index or ``(problem, [child_plan, ...])``).
        """
        depth = self.parallel_depth if depth is None else depth
        leaves: List[Any] = []

        def go(p: Any, d: int):
            if d == 0 or self.is_trivial(p):
                leaves.append(p)
                return len(leaves) - 1
            children = list(self.divide(p))
            if not children:
                raise SkeletonError("divide returned no subproblems")
            return (p, [go(child, d - 1) for child in children])

        plan = go(problem, depth)
        return leaves, plan

    def recombine(self, plan: Any, solutions: List[Any]) -> Any:
        """Recombine leaf solutions according to an :meth:`unroll` plan."""
        if isinstance(plan, int):
            return solutions[plan]
        problem, child_plans = plan
        return self.combine(problem, [self.recombine(c, solutions) for c in child_plans])

    # ----------------------------------------------------------------- tasks
    def make_tasks(self, inputs: Iterable[Any]) -> List[Task]:
        """Unroll every input problem and emit one task per leaf.

        The unroll plans are stored on the instance (keyed by input order)
        for the executor to recombine results; calling ``make_tasks`` again
        replaces them.
        """
        problems = list(inputs)
        if not problems:
            raise SkeletonError("divide-and-conquer needs at least one problem")
        self._plans: List[Any] = []
        self._leaf_counts: List[int] = []
        tasks: List[Task] = []
        for problem in problems:
            leaves, plan = self.unroll(problem)
            self._plans.append(plan)
            self._leaf_counts.append(len(leaves))
            for leaf in leaves:
                cost = float(self.cost_model(leaf)) if self.cost_model else 1.0
                size = estimate_size(leaf)
                tasks.append(
                    Task(task_id=self._next_task_id(), payload=leaf, cost=cost,
                         input_bytes=size, output_bytes=size)
                )
        return tasks

    def lower(self):
        """Lower onto the IR: a leaf fan with one unit per unrolled leaf."""
        from repro.core.plan import FanPlan  # local: core layers on skeletons

        return FanPlan(body=self.execute_task,
                       min_nodes=self.properties.min_nodes)

    def execute_task(self, task: Task) -> Any:
        """Solve one leaf sequentially (recursing below the unroll depth)."""
        return self.solve_recursive(task.payload)

    def solve_recursive(self, problem: Any) -> Any:
        """Full sequential divide-and-conquer of ``problem``."""
        if self.is_trivial(problem):
            return self.solve(problem)
        children = list(self.divide(problem))
        if not children:
            raise SkeletonError("divide returned no subproblems")
        return self.combine(problem, [self.solve_recursive(c) for c in children])

    def recombine_all(self, leaf_solutions: List[Any]) -> List[Any]:
        """Recombine executor-produced leaf solutions for every input problem."""
        if not hasattr(self, "_plans"):
            raise SkeletonError("make_tasks must be called before recombine_all")
        results: List[Any] = []
        offset = 0
        for plan, count in zip(self._plans, self._leaf_counts):
            chunk = leaf_solutions[offset:offset + count]
            offset += count
            results.append(self.recombine(plan, chunk))
        return results

    def run_sequential(self, inputs: Iterable[Any]) -> List[Any]:
        """Reference semantics: solve each problem fully recursively."""
        return [self.solve_recursive(problem) for problem in inputs]
