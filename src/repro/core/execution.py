"""Shared execution-phase data structures (Algorithm 2).

The plan executor (:mod:`repro.core.plan_executor`) follows the paper's
Algorithm 2 for every skeleton: execute over the chosen nodes, collect
execution times per monitoring round, and adapt when ``min(T) > Z``.  This
module holds the structures every plan shape shares — the per-round
monitoring record and the overall execution report — plus the report-level
metrics the analysis harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.calibration import CalibrationReport
from repro.core.parameters import AdaptationAction
from repro.exceptions import ExecutionError
from repro.skeletons.base import TaskResult

__all__ = ["MonitoringRound", "ExecutionReport"]


@dataclass(frozen=True)
class MonitoringRound:
    """One monitoring round of Algorithm 2.

    Attributes
    ----------
    index:
        Round number, starting at 0.
    started, finished:
        Virtual-time extent of the work monitored in this round.
    unit_times:
        Normalised (per work unit) execution times collected by the monitor.
    threshold:
        The value of *Z* the round was judged against.
    breached:
        Whether ``min(unit_times) > Z``.
    action:
        The adaptation action taken as a consequence (``None`` when no
        breach, or when the adaptation budget is exhausted).
    chosen_before, chosen_after:
        The chosen node set before and after any adaptation.
    """

    index: int
    started: float
    finished: float
    unit_times: List[float]
    threshold: float
    breached: bool
    action: Optional[AdaptationAction]
    chosen_before: List[str]
    chosen_after: List[str]

    @property
    def min_time(self) -> float:
        """The monitor's decision statistic: the round's minimum unit time."""
        if not self.unit_times:
            return float("nan")
        return min(self.unit_times)

    @property
    def adapted(self) -> bool:
        """Whether this round changed the chosen node set."""
        return self.chosen_before != self.chosen_after


@dataclass
class ExecutionReport:
    """Everything the execution phase produced."""

    started: float
    finished: float
    results: List[TaskResult] = field(default_factory=list)
    rounds: List[MonitoringRound] = field(default_factory=list)
    recalibrations: int = 0
    chosen_history: List[List[str]] = field(default_factory=list)
    recalibration_reports: List[CalibrationReport] = field(default_factory=list)
    lost_tasks: int = 0

    @property
    def duration(self) -> float:
        """Virtual time spent in the execution phase."""
        return self.finished - self.started

    @property
    def breaches(self) -> int:
        """Number of monitoring rounds that breached the threshold."""
        return sum(1 for r in self.rounds if r.breached)

    def outputs(self, ordered: bool = True) -> List[object]:
        """Task outputs, by task id (``ordered=True``) or completion order."""
        results = self.results
        if ordered:
            results = sorted(results, key=lambda r: r.task_id)
        return [r.output for r in results]

    def per_node_counts(self) -> Dict[str, int]:
        """Number of tasks each node completed."""
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.node_id] = counts.get(result.node_id, 0) + 1
        return counts

    def validate(self, expected_tasks: int) -> None:
        """Check that exactly ``expected_tasks`` distinct tasks completed."""
        task_ids = {r.task_id for r in self.results}
        if len(task_ids) != expected_tasks:
            raise ExecutionError(
                f"expected {expected_tasks} completed tasks, got {len(task_ids)}"
            )
        if len(self.results) != len(task_ids):
            raise ExecutionError("duplicate task results detected")
