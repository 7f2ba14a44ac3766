"""The GRASP methodology (the paper's primary contribution).

GRASP instruments a structured parallel program with the intrinsic
properties of its skeleton so that it can adapt to dynamic grid conditions.
The package mirrors the paper's four phases:

* **Programming** — :class:`repro.core.program.SkeletalProgram` binds a
  skeleton to its inputs and parameters.
* **Compilation** — :class:`repro.core.compilation.CompiledProgram` links
  the program with the parallel environment (an
  :class:`~repro.backends.base.ExecutionBackend`: the virtual-time grid
  simulator, real threads, processes, an asyncio loop or a cluster) and
  the resource-monitoring library.
* **Calibration** — :func:`repro.core.calibration.calibrate` implements
  Algorithm 1: execute a sample on every allocated node, rank nodes
  (time-only or statistically) and select the fittest.
* **Execution** — :class:`repro.core.engine.AdaptiveEngine` implements
  Algorithm 2 once for every skeleton: run on the chosen nodes, monitor
  execution times against the performance threshold *Z* and adapt
  (recalibrate / reschedule) when it is breached.  Every skeleton lowers
  onto the execution-plan IR (:mod:`repro.core.plan`) and one
  :class:`repro.core.plan_executor.PlanExecutor` drives the engine
  through the backend interface for any plan shape.

The :class:`repro.core.grasp.Grasp` facade orchestrates all four phases and
is the main entry point of the library.
"""

from __future__ import annotations

from repro.core.phases import Phase, PhaseRecord, PhaseTimeline
from repro.core.parameters import (
    AdaptationAction,
    CalibrationConfig,
    ExecutionConfig,
    GraspConfig,
    SelectionPolicy,
)
from repro.core.ranking import NodeScore, RankingMode, rank_nodes
from repro.core.calibration import CalibrationObservation, CalibrationReport, calibrate
from repro.core.execution import ExecutionReport, MonitoringRound
from repro.core.engine import AdaptiveEngine, MonitoringWindow
from repro.core.plan import ChainPlan, FanPlan, Plan, PlanStage, walk_sequential
from repro.core.plan_executor import PlanExecutor, StageMapping
from repro.core.program import SkeletalProgram
from repro.core.compilation import CompiledProgram, compile_program
from repro.core.grasp import Grasp, GraspResult, StreamingRun

__all__ = [
    "Phase",
    "PhaseRecord",
    "PhaseTimeline",
    "GraspConfig",
    "CalibrationConfig",
    "ExecutionConfig",
    "SelectionPolicy",
    "AdaptationAction",
    "RankingMode",
    "NodeScore",
    "rank_nodes",
    "CalibrationObservation",
    "CalibrationReport",
    "calibrate",
    "ExecutionReport",
    "MonitoringRound",
    "AdaptiveEngine",
    "MonitoringWindow",
    "Plan",
    "PlanStage",
    "FanPlan",
    "ChainPlan",
    "walk_sequential",
    "PlanExecutor",
    "StageMapping",
    "SkeletalProgram",
    "CompiledProgram",
    "compile_program",
    "Grasp",
    "GraspResult",
    "StreamingRun",
]
