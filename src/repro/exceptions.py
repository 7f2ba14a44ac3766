"""Exception hierarchy for the GRASP reproduction.

All library exceptions derive from :class:`GraspError` so callers can catch
library failures with a single ``except`` clause.  Each GRASP phase and each
substrate has its own subclass, mirroring the phase structure of the
methodology (programming, compilation, calibration, execution) plus the
substrates (grid, cluster, scheduling).
"""

from __future__ import annotations


class GraspError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class ConfigurationError(GraspError):
    """Raised when a configuration object is internally inconsistent.

    Examples include a negative performance threshold, a calibration sample
    larger than the input set, or a grid description with zero nodes.
    """


class GridError(GraspError):
    """Raised by the grid simulator substrate.

    Covers malformed topologies (missing links, duplicate node identifiers),
    references to unknown nodes and attempts to use a failed node.
    """


class ClusterError(GridError):
    """Raised by the distributed cluster substrate (:mod:`repro.cluster`).

    Covers coordinator lifecycle problems (listening socket failures,
    registration timeouts), dispatches to nodes with no live worker agent
    and worker connections lost mid-task.  Subclasses :class:`GridError`
    because a cluster of TCP worker agents is one concrete parallel
    environment, exactly like the simulated grid.
    """


class ProtocolError(ClusterError):
    """Raised by the cluster wire protocol (:mod:`repro.cluster.protocol`).

    Covers malformed frames (bad magic, unsupported protocol version,
    oversized lengths), truncated frames at end-of-stream and payloads that
    do not decode to a known message type.
    """


class SkeletonError(GraspError):
    """Raised when a skeleton is constructed or invoked incorrectly.

    Examples include a pipeline with no stages, a farm without a worker
    function, or nesting that exceeds the supported composition depth.
    """


class CompilationError(GraspError):
    """Raised by the GRASP compilation (binding) phase.

    The compilation phase links a skeletal program with the grid environment
    and the monitoring library; failures here indicate the program cannot be
    deployed (e.g. more pipeline stages than available nodes and replication
    disabled).
    """


class CalibrationError(GraspError):
    """Raised by the calibration phase (Algorithm 1).

    Covers empty calibration samples, ranking failures (e.g. singular
    regression systems with no fallback) and selections that violate the
    skeleton's minimum node requirements.
    """


class ExecutionError(GraspError):
    """Raised by the execution phase (Algorithm 2).

    Covers worker function failures that exhaust retry policies, exhausted
    node pools after failures, and monitor inconsistencies.
    """


class SchedulingError(GraspError):
    """Raised by task-to-node schedulers.

    Covers attempts to schedule on an empty node set and policies asked to
    dispatch tasks that no longer exist.
    """


class LockOrderError(GraspError):
    """Raised by the lock-order sanitizer (:mod:`repro.sanitizers.locks`).

    Signals that two threads have been observed acquiring the same pair of
    instrumented locks in opposite orders — a potential deadlock, even if
    this particular run never interleaved into one.
    """


class LintError(GraspError):
    """Raised by the static-analysis engine (:mod:`repro.lint`).

    Covers unknown rule identifiers, unreadable target paths and source
    files that fail to parse.
    """


class WorkloadError(GraspError):
    """Raised by workload generators when parameters are invalid."""


class AnalysisError(GraspError):
    """Raised by the analysis/experiment harness for malformed results."""
