"""The grid execution engine.

:class:`GridSimulator` turns abstract task costs and message sizes into
virtual-time durations against a :class:`repro.grid.topology.GridTopology`.
It is the single authority on time in the system: the backends, the
plan executor and the monitoring sensors all consult it.

Semantics
---------
* Each node core is a serial resource; a task placed on a busy core starts
  when the core frees up.  Placement uses the least-loaded core of the node.
* Task duration is ``cost / effective_speed(start_time)``, i.e. external load
  is sampled at the instant the task starts.  This zero-order-hold model
  matches the observation granularity of the monitoring layer and keeps the
  simulator deterministic and fast; it is documented as a deliberate
  simplification in DESIGN.md.
* Transfers are charged on the link returned by the topology's most-specific
  link resolution and do not occupy node cores.
* A node that is unavailable per the failure model rejects work; executors
  handle the resulting :class:`~repro.exceptions.GridError` by rescheduling
  (that is precisely the adaptation path experiment E11 exercises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.exceptions import GridError
from repro.grid.topology import GridTopology
from repro.utils.tracing import Tracer

__all__ = ["TaskExecution", "Transfer", "GridSimulator"]


@dataclass(frozen=True)
class TaskExecution:
    """Record of one task executed on a node."""

    node_id: str
    core: int
    cost: float
    submitted: float
    started: float
    finished: float

    @property
    def duration(self) -> float:
        """Pure compute time (excluding queueing)."""
        return self.finished - self.started

    @property
    def elapsed(self) -> float:
        """Wall time from submission to completion (including queueing)."""
        return self.finished - self.submitted


@dataclass(frozen=True)
class Transfer:
    """Record of one message transfer between nodes."""

    src: str
    dst: str
    nbytes: float
    started: float
    finished: float

    @property
    def duration(self) -> float:
        return self.finished - self.started


class GridSimulator:
    """Virtual-time execution engine over a grid topology."""

    def __init__(self, topology: GridTopology, tracer: Optional[Tracer] = None,
                 start_time: float = 0.0):
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self._now = float(start_time)
        # busy-until time per (node, core)
        self._core_free_at: Dict[str, List[float]] = {
            node.node_id: [self._now] * node.cores for node in topology.nodes
        }
        self._executions: List[TaskExecution] = []
        self._transfers: List[Transfer] = []
        self.tracer.bind_clock(lambda: self._now)

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` (never backwards)."""
        if time > self._now:
            self._now = float(time)

    # ------------------------------------------------------------------ tasks
    def run_task(self, node_id: str, cost: float,
                 at_time: Optional[float] = None) -> TaskExecution:
        """Execute a task of ``cost`` work units on ``node_id``.

        The task is submitted at ``at_time`` (default: the current clock) and
        starts on the earliest-free core of the node.  Returns the execution
        record; the simulator clock is *not* advanced (callers decide how to
        interleave work across nodes), but per-core busy times are updated.
        """
        submitted = self._now if at_time is None else float(at_time)
        node = self.topology.node(node_id)
        if not self.topology.failure_model.available(node_id, submitted):
            raise GridError(f"node {node_id} is unavailable at time {submitted}")
        if cost < 0:
            raise GridError(f"task cost must be >= 0, got {cost}")

        cores = self._core_free_at[node_id]
        core = min(range(len(cores)), key=lambda idx: cores[idx])
        started = max(submitted, cores[core])
        duration = node.execution_time(cost, started)
        finished = started + duration
        cores[core] = finished

        record = TaskExecution(
            node_id=node_id, core=core, cost=float(cost),
            submitted=submitted, started=started, finished=finished,
        )
        self._executions.append(record)
        self.tracer.record(
            "simulator.task", f"task on {node_id}",
            node=node_id, cost=cost, started=started, finished=finished,
        )
        return record

    def node_free_at(self, node_id: str) -> float:
        """Earliest time at which some core of ``node_id`` is free."""
        if node_id not in self._core_free_at:
            raise GridError(f"unknown node {node_id!r}")
        return min(self._core_free_at[node_id])

    def reset_queues(self, time: Optional[float] = None) -> None:
        """Clear per-core backlogs (used between GRASP rounds/experiments)."""
        base = self._now if time is None else float(time)
        for node_id, cores in self._core_free_at.items():
            self._core_free_at[node_id] = [base] * len(cores)

    # -------------------------------------------------------------- transfers
    def transfer(
        self, src: str, dst: str, nbytes: float, at_time: Optional[float] = None
    ) -> Transfer:
        """Move ``nbytes`` bytes from ``src`` to ``dst`` starting at ``at_time``."""
        started = self._now if at_time is None else float(at_time)
        if nbytes < 0:
            raise GridError(f"nbytes must be >= 0, got {nbytes}")
        link = self.topology.link_between(src, dst)
        finished = started + link.transfer_time(nbytes, started)
        record = Transfer(src=src, dst=dst, nbytes=float(nbytes),
                          started=started, finished=finished)
        self._transfers.append(record)
        self.tracer.record(
            "simulator.transfer", f"{src} -> {dst}",
            src=src, dst=dst, nbytes=nbytes, started=started, finished=finished,
        )
        return record

    # ------------------------------------------------------------ observation
    def observe_load(self, node_id: str, time: Optional[float] = None) -> float:
        """External CPU utilisation of ``node_id`` at ``time`` (default now)."""
        t = self._now if time is None else float(time)
        return self.topology.node(node_id).utilisation(t)

    def observe_bandwidth(self, src: str, dst: str, time: Optional[float] = None) -> float:
        """Effective bandwidth (bytes/s) between ``src`` and ``dst`` at ``time``."""
        t = self._now if time is None else float(time)
        return self.topology.link_between(src, dst).effective_bandwidth(t)

    def is_available(self, node_id: str, time: Optional[float] = None) -> bool:
        """Whether ``node_id`` is usable at ``time`` per the failure model."""
        t = self._now if time is None else float(time)
        if node_id not in self._core_free_at:
            raise GridError(f"unknown node {node_id!r}")
        return self.topology.failure_model.available(node_id, t)

    # --------------------------------------------------------------- history
    @property
    def executions(self) -> List[TaskExecution]:
        """All task executions so far, in submission order."""
        return list(self._executions)

    @property
    def transfers(self) -> List[Transfer]:
        """All transfers so far, in submission order."""
        return list(self._transfers)

    def total_work(self) -> float:
        """Total work units executed so far."""
        return sum(e.cost for e in self._executions)

    def busy_time(self, node_id: str) -> float:
        """Total compute time accumulated on ``node_id``."""
        return sum(e.duration for e in self._executions if e.node_id == node_id)

    def makespan(self) -> float:
        """Finish time of the latest execution or transfer (0 when idle)."""
        latest = 0.0
        if self._executions:
            latest = max(latest, max(e.finished for e in self._executions))
        if self._transfers:
            latest = max(latest, max(t.finished for t in self._transfers))
        return latest
