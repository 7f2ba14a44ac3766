"""The compilation phase: binding a program to the parallel environment.

"Then, the structured parallelism program is compiled and linked with the
GRASP code, the parallel environment, and, if any, the resource monitoring
library.  This parallel environment handles the underlying
metacomputer/computational grid, including the node initialisation, grid
resource co-allocation, inter-domain scheduling, and other infrastructure
matters."

:func:`compile_program` performs the Python equivalent of that link step: it
binds the program to an :class:`~repro.backends.base.ExecutionBackend` over
the topology, co-allocates the node pool, designates the master/monitor
node, builds the resource monitor, and returns a :class:`CompiledProgram`
ready for the calibration phase.

The ``backend`` parameter is the rebinding point of the whole methodology:
the same :class:`~repro.core.program.SkeletalProgram` compiles against the
virtual-time grid simulator (``backend="simulated"``, the default), against
real OS threads (``backend="thread"``), against worker processes
(``backend="process"``), against an asyncio event loop for coroutine
payloads (``backend="asyncio"``), against a grid of TCP worker agents
(``backend="cluster"`` — localhost agents; pass a ready
:class:`~repro.cluster.backend.ClusterBackend` for real multi-host grids),
or against any :class:`ExecutionBackend` instance
— including a :class:`~repro.backends.faults.FaultInjectingBackend`
wrapping one of the above — without touching the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.backends import (
    BACKEND_NAMES,
    AsyncBackend,
    ExecutionBackend,
    ProcessBackend,
    SimulatedBackend,
    ThreadBackend,
    as_backend,
)
from repro.core.program import SkeletalProgram
from repro.exceptions import CompilationError
from repro.grid.simulator import GridSimulator
from repro.grid.topology import GridTopology
from repro.metrics import MetricsRegistry
from repro.monitor.monitor import ResourceMonitor
from repro.utils.tracing import DEFAULT_MAX_EVENTS, JsonlTraceSink, Tracer

__all__ = ["CompiledProgram", "compile_program"]


@dataclass
class CompiledProgram:
    """A skeletal program linked with its environment and monitor."""

    program: SkeletalProgram
    topology: GridTopology
    simulator: Optional[GridSimulator]
    monitor: ResourceMonitor
    master_node: str
    pool: List[str]
    tracer: Tracer
    backend: Optional[ExecutionBackend] = None
    owns_backend: bool = field(default=False, repr=False)
    metrics: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        if self.backend is None:
            raise CompilationError(
                "CompiledProgram requires an ExecutionBackend; "
                "use compile_program() to construct one"
            )

    @property
    def config(self):
        """The program's GRASP configuration."""
        return self.program.config


def _resolve_backend(
    backend: Union[None, str, ExecutionBackend],
    topology: GridTopology,
    simulator: Optional[GridSimulator],
    tracer: Tracer,
) -> tuple:
    """The (backend, owns_backend) pair for a compilation request."""
    if backend is None or backend == "simulated":
        simulator = simulator or GridSimulator(topology, tracer=tracer)
        return SimulatedBackend(simulator), False
    if (simulator is not None and backend is not simulator
            and getattr(backend, "simulator", None) is not simulator):
        # A pre-configured simulator (failure schedules, load traces, seeded
        # queues) cannot be honoured by a non-simulated backend; dropping it
        # silently would misreport the experiment.
        raise CompilationError(
            "simulator= conflicts with backend=: pass the simulator alone "
            "(or backend=\"simulated\") to run on it"
        )
    if isinstance(backend, str):
        if backend == "thread":
            return ThreadBackend(topology=topology, tracer=tracer), True
        if backend == "process":
            return ProcessBackend(topology=topology, tracer=tracer), True
        if backend == "asyncio":
            return AsyncBackend(topology=topology, tracer=tracer), True
        if backend == "cluster":
            # Imported here, not at module top: the cluster subsystem
            # layers on top of core/backends, and this registry branch is
            # the only place either layer reaches up into it.
            from repro.cluster.backend import ClusterBackend
            return ClusterBackend.local(topology=topology, tracer=tracer), True
        # Fail loudly for names registered elsewhere but not routed here.
        raise CompilationError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKEND_NAMES)}"
        )
    if isinstance(backend, (ExecutionBackend, GridSimulator)):
        return as_backend(backend), False
    raise CompilationError(
        f"backend must be a name or an ExecutionBackend, got {type(backend).__name__}"
    )


def compile_program(
    program: SkeletalProgram,
    topology: GridTopology,
    simulator: Optional[GridSimulator] = None,
    tracer: Optional[Tracer] = None,
    at_time: float = 0.0,
    backend: Union[None, str, ExecutionBackend] = None,
) -> CompiledProgram:
    """Bind ``program`` to ``topology`` and co-allocate its node pool.

    Parameters
    ----------
    backend:
        The parallel environment to link against: ``"simulated"`` (default),
        ``"thread"``, ``"process"``, ``"asyncio"``, ``"cluster"`` (spawns
        one localhost worker agent per grid node), or a ready
        :class:`ExecutionBackend` instance.  The legacy ``simulator=``
        parameter remains supported and implies the simulated backend.  A
        backend created here (string names) is owned by the returned
        program and is closed by the caller — or by this function itself
        when compilation fails partway.

    Raises
    ------
    CompilationError
        When the environment cannot host the skeleton (too few nodes
        available), the configured master node does not exist, or the
        configured master is not part of the co-allocated pool.
    """
    owns_tracer = tracer is None
    if tracer is None:
        tracer = _make_tracer(program.config)
    env, owns_backend = _resolve_backend(backend, topology, simulator, tracer)
    try:
        return _link(program, topology, env, owns_backend, tracer, at_time)
    except BaseException:
        # A backend created here (backend="thread"/"process") holds real
        # worker threads/processes; a failed link step must not leak them.
        # A trace sink opened here must not leak its file handle either.
        if owns_backend:
            env.close()
        if owns_tracer:
            tracer.close()
        raise


def _make_tracer(config) -> Tracer:
    """The run tracer for one compilation, with any configured JSONL sink.

    ``config.trace_path`` (or, failing that, the ``GRASP_TRACE``
    environment variable) attaches a line-buffered
    :class:`~repro.utils.tracing.JsonlTraceSink`; the sink's lifetime is
    tied to the run — :class:`~repro.core.grasp.Grasp` closes it when
    the stream finishes (or is abandoned).
    """
    max_events = (config.trace_max_events
                  if config.trace_max_events is not None
                  else DEFAULT_MAX_EVENTS)
    tracer = Tracer(enabled=config.trace, max_events=max_events)
    trace_path = config.trace_path or os.environ.get("GRASP_TRACE") or None
    if trace_path and config.trace:
        tracer.attach(JsonlTraceSink(trace_path))
    return tracer


def _make_metrics(config) -> Optional[MetricsRegistry]:
    """The run's metrics registry, or None when metrics are disabled."""
    if not config.metrics:
        return None
    return MetricsRegistry()


def _link(
    program: SkeletalProgram,
    topology: GridTopology,
    env: ExecutionBackend,
    owns_backend: bool,
    tracer: Tracer,
    at_time: float,
) -> CompiledProgram:
    """The fallible part of compilation (see :func:`compile_program`)."""
    tracer.bind_clock(lambda: env.now)
    # A backend *instance* handed in by the caller (cluster.backend(), a
    # fault-injection wrapper, ...) was constructed before this run's
    # tracer existed; adopt it so dispatch/cluster events reach the same
    # event stream as the engine's.  A tracer the caller already wired in
    # is respected.
    if getattr(env, "tracer", None) is None:
        try:
            env.tracer = tracer
        except AttributeError:  # read-only backend attribute
            pass
    # The metrics registry is adopted the same way: a caller-wired
    # registry (a long-lived backend shared across runs) is respected,
    # otherwise the run's own registry becomes the backend's sink.
    metrics = _make_metrics(program.config)
    if metrics is not None:
        metrics.bind_clock(lambda: env.now)
        if getattr(env, "metrics", None) is None:
            try:
                env.metrics = metrics
            except AttributeError:  # read-only backend attribute
                pass
        else:
            metrics = env.metrics
    # The shared-memory data-plane threshold follows the same adoption
    # pattern: an explicit config value lands on every backend exposing
    # the knob (the process backend today); ``None`` keeps the backend's
    # own default.
    shm_threshold = program.config.execution.shm_threshold
    if shm_threshold is not None and hasattr(env, "shm_threshold"):
        env.shm_threshold = shm_threshold

    pool = env.available_nodes(at_time)
    if not pool:
        raise CompilationError("no grid node is available at compilation time")
    if len(pool) < program.min_nodes:
        raise CompilationError(
            f"the skeleton needs at least {program.min_nodes} nodes, "
            f"but only {len(pool)} are available"
        )

    master = program.config.master_node
    if master is None:
        master = pool[0]
    elif not env.has_node(master):
        raise CompilationError(f"configured master node {master!r} does not exist")
    elif master not in pool:
        # The master hosts the root/monitor process; a co-allocation that
        # silently drops it would leave the job without a coordinator.
        raise CompilationError(
            f"configured master node {master!r} is not available for "
            f"co-allocation at time {at_time}"
        )

    monitor = ResourceMonitor(env, pool, master_node=master)

    tracer.record("phase.compilation", "program linked with grid environment",
                  pool=list(pool), master=master,
                  skeleton=program.properties.name,
                  backend=env.name)
    return CompiledProgram(
        program=program,
        topology=topology,
        simulator=getattr(env, "simulator", None),
        monitor=monitor,
        master_node=master,
        pool=list(pool),
        tracer=tracer,
        backend=env,
        owns_backend=owns_backend,
        metrics=metrics,
    )
