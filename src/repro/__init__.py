"""GRASP: Grid-Adaptive Structured Parallelism.

A Python reproduction of *"Adaptive Structured Parallelism for Computational
Grids"* (González-Vélez & Cole, PPoPP 2007).  The package provides:

* :mod:`repro.grid` — a deterministic discrete-event simulator of a
  heterogeneous, non-dedicated computational grid (nodes, links, sites,
  background-load models, failures).
* :mod:`repro.monitor` — resource sensors and short-term forecasters in the
  spirit of the Network Weather Service.
* :mod:`repro.skeletons` — algorithmic skeletons: task farm, pipeline and
  extensions (map, reduce, divide-and-conquer, composition).
* :mod:`repro.backends` — execution backends: the
  :class:`~repro.backends.base.ExecutionBackend` interface plus the
  virtual-time :class:`~repro.backends.simulated.SimulatedBackend`, the
  wall-clock :class:`~repro.backends.threaded.ThreadBackend` (real OS
  threads), the GIL-escaping
  :class:`~repro.backends.process.ProcessBackend` (one serial worker
  process per node), the coroutine-native
  :class:`~repro.backends.async_.AsyncBackend` (one asyncio event loop,
  I/O waits overlapped across per-node queues) and the
  :class:`~repro.backends.faults.FaultInjectingBackend` decorator that
  drives node-loss/slowdown schedules against any of them.
* :mod:`repro.cluster` — the distributed layer: TCP worker agents
  (``python -m repro.cluster.worker``), a coordinator, and the
  :class:`~repro.cluster.backend.ClusterBackend` that runs the adaptive
  loop on a real multi-host grid (``backend="cluster"`` spawns a
  localhost :class:`~repro.cluster.local.LocalCluster`).
* :mod:`repro.core` — the GRASP methodology itself: the four phases
  (programming, compilation, calibration, execution), Algorithm 1
  (calibration / fittest-node selection) and Algorithm 2 (threshold-driven
  adaptive execution, shared by all skeletons through
  :class:`~repro.core.engine.AdaptiveEngine`).
* :mod:`repro.baselines` — non-adaptive comparators.
* :mod:`repro.workloads` — synthetic and kernel workloads used by the
  experiments.
* :mod:`repro.analysis` — metrics and the experiment harness that
  regenerates the tables/series reported in ``EXPERIMENTS.md``.

Quickstart
----------

>>> from repro import Grasp, TaskFarm, GridBuilder
>>> grid = GridBuilder().heterogeneous(nodes=8, speed_spread=4.0).build(seed=1)
>>> farm = TaskFarm(worker=lambda x: x * x)
>>> grasp = Grasp(skeleton=farm, grid=grid)
>>> result = grasp.run(inputs=range(64))
>>> sorted(result.outputs)[:4]
[0, 1, 4, 9]
"""

from __future__ import annotations

from repro._version import __version__
from repro.exceptions import (
    GraspError,
    CalibrationError,
    ClusterError,
    CompilationError,
    ConfigurationError,
    ExecutionError,
    GridError,
    ProtocolError,
    SchedulingError,
    SkeletonError,
)
from repro.grid import GridBuilder, GridNode, GridTopology, NetworkLink, Site
from repro.grid.simulator import GridSimulator
from repro.backends import (
    AsyncBackend,
    ExecutionBackend,
    FaultInjectingBackend,
    ProcessBackend,
    SimulatedBackend,
    ThreadBackend,
)
from repro.skeletons import (
    DivideAndConquer,
    FarmOfPipelines,
    MapSkeleton,
    Pipeline,
    PipelineOfFarms,
    ReduceSkeleton,
    Stage,
    TaskFarm,
)
from repro.core import (
    CalibrationConfig,
    CalibrationReport,
    ChainPlan,
    ExecutionConfig,
    ExecutionReport,
    FanPlan,
    Grasp,
    GraspConfig,
    GraspResult,
    Phase,
    PlanExecutor,
    PlanStage,
    RankingMode,
    StreamingRun,
)
from repro.cluster import ClusterBackend, ClusterCoordinator, LocalCluster
from repro.baselines import StaticFarm, StaticPipeline
from repro.monitor import ResourceMonitor

__all__ = [
    "__version__",
    # exceptions
    "GraspError",
    "CalibrationError",
    "ClusterError",
    "CompilationError",
    "ConfigurationError",
    "ExecutionError",
    "GridError",
    "ProtocolError",
    "SchedulingError",
    "SkeletonError",
    # grid
    "GridBuilder",
    "GridNode",
    "GridTopology",
    "NetworkLink",
    "Site",
    "GridSimulator",
    # backends
    "ExecutionBackend",
    "SimulatedBackend",
    "ThreadBackend",
    "ProcessBackend",
    "AsyncBackend",
    "FaultInjectingBackend",
    # cluster
    "ClusterBackend",
    "ClusterCoordinator",
    "LocalCluster",
    # skeletons
    "TaskFarm",
    "Pipeline",
    "Stage",
    "MapSkeleton",
    "ReduceSkeleton",
    "DivideAndConquer",
    "FarmOfPipelines",
    "PipelineOfFarms",
    # core
    "Grasp",
    "GraspConfig",
    "GraspResult",
    "StreamingRun",
    "Phase",
    "RankingMode",
    "CalibrationConfig",
    "CalibrationReport",
    "ExecutionConfig",
    "ExecutionReport",
    "PlanStage",
    "FanPlan",
    "ChainPlan",
    "PlanExecutor",
    # baselines
    "StaticFarm",
    "StaticPipeline",
    # monitor
    "ResourceMonitor",
]
