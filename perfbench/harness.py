"""Workloads, run loop, correctness gates and metrics of the GRASP benchmark.

Every workload runs the same four jobs through the public ``Grasp(...).run``
API, one after the other, round after round, until the run's time is up:

* ``farm@process`` and ``farm@cluster`` -- a ``TaskFarm`` with the default
  ``GraspConfig`` (``chunk_size=1``) over a 2-node grid, on a
  ``ProcessBackend`` and on a ``ClusterBackend`` over a 2-agent
  ``LocalCluster``.  Both backends are booted once per setup and reused by
  every round, so boot cost shows only in ``setup_s``;
* ``sweep@sim`` -- a ``ParameterSweep`` farm on ``backend="simulated"``
  over a 32-node heterogeneous grid whose 8 fittest nodes (the ones
  ``SelectionPolicy.COUNT`` keeps) take a ``StepLoad`` spike mid-run;
* ``pipeline@sim`` -- an ``ImagingWorkload`` pipeline on the same grid,
  arriving shortly before the spike.

What differs between workloads is the farm payload and the job sizes,
which decide the layer that does the work (see README.md).  Every
workload reports every end-to-end metric, so each job runs on each
workload; the jobs a workload is not built to stress run small.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    CalibrationConfig,
    ClusterBackend,
    Grasp,
    GraspConfig,
    LocalCluster,
    ProcessBackend,
    RankingMode,
    TaskFarm,
)
from repro.core.parameters import SelectionPolicy
from repro.grid.load import ConstantLoad, StepLoad
from repro.grid.node import GridNode
from repro.grid.topology import GridBuilder, GridTopology
from repro.workloads.imaging import ImagingWorkload
from repro.workloads.parameter_sweep import ParameterSweep

import payloads
from spans import Instrumentation, SpanTree, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Setups per run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds run even when the time is up, so every job has samples.
MIN_ROUNDS = 3

#: The simulated grid: node speeds span 1..8 geometrically; the fittest
#: ``SIM_FITTEST`` are kept by calibration and lose 80% of their capacity
#: at the spike.
SIM_NODES = 32
SIM_FITTEST = 8
SPIKE_LEVEL = 0.8
#: The spike hits after this share of the sweep's spike-free makespan.
SPIKE_SHARE = 0.25
#: Each node's speed is drawn within this share of its rung on the ladder.
SPEED_JITTER = 0.005
SWEEP_BETA_VALUES = 10
PIPELINE_IMAGE_SIDE = 32

#: Bulk arrays: float64 elements per task argument (8 MiB).
BULK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class WorkloadSpec:
    farm: str               # "fine" or "bulk"
    farm_tasks: int
    sweep_points: int       # a multiple of 2 * SWEEP_BETA_VALUES
    pipeline_items: int     # more than SIM_NODES: calibration takes one each


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "farm-fine": WorkloadSpec(farm="fine", farm_tasks=300, sweep_points=1000,
                              pipeline_items=50),
    "farm-bulk": WorkloadSpec(farm="bulk", farm_tasks=16, sweep_points=1000,
                              pipeline_items=50),
    "grid-sim": WorkloadSpec(farm="fine", farm_tasks=300, sweep_points=2500,
                             pipeline_items=100),
}


# ------------------------------------------------------------------- jobs
@dataclass
class Job:
    name: str                       # farm@process, farm@cluster, sweep@sim, ...
    backend: str                    # process, cluster or simulated
    make_skeleton: Callable[[], Any]
    inputs: List[Any]
    expected: List[Any]             # fingerprints of the reference outputs
    fingerprint: Callable[[Any], Any]
    grid: GridTopology
    config: GraspConfig
    payload_bytes: int              # argument plus result bytes, pickled
    start_time: float = 0.0

    @property
    def units(self) -> int:
        return len(self.inputs)


def _identity(value: Any) -> Any:
    return value


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(memoryview(np.ascontiguousarray(array)),
                           digest_size=16).hexdigest()


def _pickled_size(value: Any) -> int:
    return len(pickle.dumps(value, protocol=5))


def real_grid() -> GridTopology:
    """The 2-node grid of the wall-clock jobs: one worker per node."""
    return GridBuilder().homogeneous(nodes=2).named("bench-real").build(seed=0)


def sim_speeds(rng: random.Random) -> List[float]:
    """A geometric ladder from 1 to 8; each rung is jittered by the seed."""
    return [float(s) * (1.0 + rng.uniform(-SPEED_JITTER, SPEED_JITTER))
            for s in np.geomspace(1.0, 8.0, SIM_NODES)]


def sim_grid(speeds: List[float], spike_at: float) -> GridTopology:
    """32 heterogeneous nodes; the fittest 8 take a load spike at ``spike_at``."""
    nodes = []
    for index, speed in enumerate(speeds):
        spiked = index >= SIM_NODES - SIM_FITTEST
        load = (StepLoad(steps=[(spike_at, SPIKE_LEVEL)]) if spiked
                else ConstantLoad())
        nodes.append(GridNode(node_id=f"grid/n{index:02d}", speed=speed,
                              load_model=load, site="grid"))
    return GridTopology(nodes=nodes, name="bench-sim")


def sim_config() -> GraspConfig:
    """Keep the fittest 8, ranked on time, load and bandwidth."""
    return GraspConfig(calibration=CalibrationConfig(
        ranking=RankingMode.MULTIVARIATE,
        selection=SelectionPolicy.COUNT, select_count=SIM_FITTEST))


def farm_jobs(spec: WorkloadSpec, rng: random.Random,
              grid: GridTopology) -> List[Job]:
    if spec.farm == "fine":
        inputs: List[Any] = [rng.randrange(1 << 20)
                             for _ in range(spec.farm_tasks)]
        worker, fingerprint = payloads.fine_task, _identity
    else:
        generator = np.random.default_rng(rng.randrange(1 << 32))
        inputs = [generator.random(BULK_ELEMENTS)
                  for _ in range(spec.farm_tasks)]
        worker, fingerprint = payloads.bulk_task, _digest
    reference = TaskFarm(worker=worker)
    expected, payload_bytes = [], 0
    for item in inputs:
        output = reference.run_sequential([item])[0]
        expected.append(fingerprint(output))
        payload_bytes += _pickled_size(item) + _pickled_size(output)
    return [
        Job(name=f"farm@{backend}", backend=backend,
            make_skeleton=lambda: TaskFarm(worker=worker),
            inputs=inputs, expected=expected, fingerprint=fingerprint,
            grid=grid, config=GraspConfig(), payload_bytes=payload_bytes)
        for backend in ("process", "cluster")
    ]


def sim_jobs(spec: WorkloadSpec, rng: random.Random, seed: int) -> List[Job]:
    n_alpha = spec.sweep_points // (2 * SWEEP_BETA_VALUES)
    sweep = ParameterSweep(
        axes={"resolution": [0, 1],
              "alpha": [rng.uniform(0.0, 10.0) for _ in range(n_alpha)],
              "beta": [rng.uniform(0.0, 10.0)
                       for _ in range(SWEEP_BETA_VALUES)]},
        cost_fn=payloads.sweep_cost)
    speeds = sim_speeds(rng)
    spike_at = (SPIKE_SHARE * sweep.total_cost()
                / sum(sorted(speeds)[-SIM_FITTEST:]))
    grid = sim_grid(speeds, spike_at)
    imaging = ImagingWorkload(images=spec.pipeline_items,
                              image_side=PIPELINE_IMAGE_SIDE, seed=seed)
    return [
        Job(name="sweep@sim", backend="simulated", make_skeleton=sweep.farm,
            inputs=sweep.items(), expected=sweep.expected_outputs(),
            fingerprint=_identity, grid=grid, config=sim_config(),
            payload_bytes=0),
        Job(name="pipeline@sim", backend="simulated",
            make_skeleton=imaging.pipeline, inputs=imaging.items(),
            expected=imaging.expected_outputs(), fingerprint=_identity,
            grid=grid, config=sim_config(), payload_bytes=0,
            # Arrives as the spike hits: calibration must see the loaded
            # nodes and map the stages around them.
            start_time=spike_at),
    ]


def make_jobs(workload: str, seed: int, spec: WorkloadSpec) -> List[Job]:
    rng = random.Random(f"{workload}/{seed}")
    return farm_jobs(spec, rng, real_grid()) + sim_jobs(spec, rng, seed)


# ------------------------------------------------------------ job running
@dataclass
class JobRun:
    """What one ``Grasp.run`` left behind (the result itself is dropped,
    so memory does not grow with the number of rounds)."""

    job: Job
    wall: float
    traced: bool
    failed: int
    errors: List[str]
    ok: bool = False                # the run returned a result
    makespan: float = 0.0
    recalibrations: int = 0
    monitor_rounds: int = 0
    trace_events: int = 0
    metrics: Optional[Dict[str, Any]] = None   # snapshot, traced runs only
    root: Optional[int] = None      # sid of the grasp.run span when traced


def _counter_total(snapshot: Dict[str, Any], name: str,
                   **labels: str) -> float:
    total = 0.0
    for series in snapshot["series"]:
        if series["name"] != name:
            continue
        if any(series["labels"].get(k) != v for k, v in labels.items()):
            continue
        total += series["value"]
    return total


def run_job(job: Job, backend: Any, instr: Optional[Instrumentation]) -> JobRun:
    """One ``Grasp.run`` of ``job``, its wall time and its gate checks."""
    if backend is not None:
        # A reused backend adopts the registry and tracer of the first run
        # that links it; clearing both lets every run adopt its own.
        backend.metrics = None
        backend.tracer = None
    grasp = Grasp(skeleton=job.make_skeleton(), grid=job.grid,
                  config=job.config, backend=backend or job.backend)
    errors: List[str] = []
    root = None
    started = time.perf_counter()
    try:
        span = instr.recorder.span("grasp.run") if instr else nullcontext()
        with span as root:
            result = grasp.run(job.inputs, start_time=job.start_time)
    except Exception as exc:  # a failed run fails the benchmark
        wall = time.perf_counter() - started
        return JobRun(job, wall, instr is not None, job.units,
                      [f"{job.name}: {type(exc).__name__}: {exc}"])
    wall = time.perf_counter() - started

    got = [job.fingerprint(o) for o in result.outputs]
    failed = sum(1 for a, b in zip(got, job.expected) if a != b)
    failed += abs(len(got) - len(job.expected))
    if failed:
        errors.append(f"{job.name}: {failed} outputs differ from the "
                      "sequential reference")
    snapshot = result.metrics
    issued = _counter_total(snapshot, "dispatch.issued")
    resolved = _counter_total(snapshot, "dispatch.resolved")
    lost = _counter_total(snapshot, "dispatch.lost")
    if issued != resolved + lost:
        errors.append(f"{job.name}: dispatch.issued {issued} != resolved "
                      f"{resolved} + lost {lost}")
    return JobRun(
        job, wall, instr is not None, failed, errors, ok=True,
        makespan=result.makespan, recalibrations=result.recalibrations,
        monitor_rounds=len(result.execution.rounds),
        trace_events=len(result.trace) + result.trace.dropped_events,
        metrics=snapshot if instr is not None else None, root=root)


# --------------------------------------------------------------- backends
@dataclass
class Backends:
    process: Any = None
    cluster: Any = None
    process_boot: List[float] = field(default_factory=list)
    cluster_boot: List[float] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    close_s: float = 0.0

    def for_job(self, job: Job) -> Any:
        return {"process": self.process, "cluster": self.cluster}.get(job.backend)

    def close(self) -> None:
        if self.process is not None:
            self.process.close()
            self.process = None
        if self.cluster is not None:
            started = time.perf_counter()
            self.cluster.close()
            self.close_s = time.perf_counter() - started
            self.cluster = None


def _warm(backend: Any, job: Job) -> None:
    """A 2-task run: workers forked, payload modules imported, paths used."""
    Grasp(skeleton=job.make_skeleton(), grid=job.grid,
          backend=backend).run(job.inputs[:2])
    backend.metrics = None
    backend.tracer = None


def boot(backends: Backends, jobs: List[Job]) -> None:
    """Boot both wall-clock backends and warm them, ``SETUPS`` times."""
    grid = jobs[0].grid
    for _ in range(SETUPS):
        backends.close()
        started = time.perf_counter()
        backends.process = ProcessBackend(topology=grid)
        _warm(backends.process, jobs[0])
        booted = time.perf_counter()
        backends.cluster = ClusterBackend(
            cluster=LocalCluster(workers=grid.node_ids), topology=grid,
            owns_cluster=True)
        _warm(backends.cluster, jobs[1])
        ended = time.perf_counter()
        backends.process_boot.append(booted - started)
        backends.cluster_boot.append(ended - booted)
        backends.setup.append(ended - started)


# ------------------------------------------------------------- leak checks
def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("grasp-")}
    except OSError:
        return set()


def _proc_table() -> Dict[int, Tuple[int, str]]:
    """pid -> (parent pid, state) for every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(pid: int) -> set:
    if not os.path.isdir("/proc"):
        return set()
    table = _proc_table()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {p for p, (ppid, _) in table.items()
                    if ppid in frontier and p not in found}
        found |= frontier
    return found


def alive(pids: set) -> set:
    table = _proc_table() if os.path.isdir("/proc") else {}
    return {p for p in pids if p in table and table[p][1] != "Z"}


def stop_helpers() -> None:
    """Stop the forkserver and resource tracker that multiprocessing started."""
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        helper._stop()


# ------------------------------------------------------------ host record
def _lscpu() -> Dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _git_revision() -> Optional[str]:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    """Digest of the ``src/`` tree, for checkouts without git metadata."""
    digest = hashlib.blake2b(digest_size=12)
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def run_record(workload: str, spec: WorkloadSpec, seed: int, seconds: float,
               jobs: List[Job]) -> Dict[str, Any]:
    cpu = _lscpu()
    bulk_bytes = BULK_ELEMENTS * 8
    record: Dict[str, Any] = {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu.get("Model name", platform.processor()),
            "l2_cache": cpu.get("L2 cache"),
            "l3_cache": cpu.get("L3 cache"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_revision": _git_revision(),
            "source_digest": _source_digest(),
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "jobs": {job.name: {"units": job.units,
                            "payload_bytes_per_run": job.payload_bytes,
                            "nodes": len(job.grid),
                            "start_time": job.start_time}
                 for job in jobs},
    }
    if spec.farm == "bulk":
        record["bulk"] = {
            "array_bytes": bulk_bytes,
            "arrays_per_run": jobs[0].units,
            "bytes_each_way_per_run": bulk_bytes * jobs[0].units,
            "vs_cache": f"array {bulk_bytes >> 20} MiB vs L2 "
                        f"{cpu.get('L2 cache')} and L3 {cpu.get('L3 cache')}; "
                        "payload throughput, not memory bandwidth",
        }
    return record


# ---------------------------------------------------------------- metrics
def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runs: List[JobRun], backends: Backends) -> Dict[str, Tuple[float, str]]:
    by_job: Dict[str, List[JobRun]] = {}
    for run in runs:
        by_job.setdefault(run.job.name, []).append(run)

    def rate(name: str, per_unit: Callable[[Job], float]) -> float:
        # Work over time summed across rounds: the host's speed switches
        # between two levels from second to second, and a median of
        # bimodal samples jumps between them where a sum moves smoothly.
        runs_of = by_job.get(name, [])
        return (sum(per_unit(r.job) for r in runs_of)
                / max(1e-12, sum(r.wall for r in runs_of)))

    def makespan(name: str) -> float:
        return _median([r.makespan for r in by_job.get(name, []) if r.ok])

    metrics = {"setup_s": (_median(backends.setup), "s")}
    for backend in ("process", "cluster"):
        job = f"farm@{backend}"
        metrics[f"tasks_per_s.{backend}"] = (rate(job, lambda j: j.units), "1/s")
        metrics[f"mb_per_s.{backend}"] = (
            rate(job, lambda j: j.payload_bytes / 1e6), "MB/s")
    metrics["tasks_per_s.sim"] = (rate("sweep@sim", lambda j: j.units), "1/s")
    metrics["items_per_s.sim"] = (rate("pipeline@sim", lambda j: j.units), "1/s")
    metrics["makespan_virtual_s.farm"] = (makespan("sweep@sim"), "s")
    metrics["makespan_virtual_s.pipeline"] = (makespan("pipeline@sim"), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    return metrics


def per_layer(instr: Instrumentation, runs: List[JobRun], traced_rounds: int,
              backends: Backends, leaked_segments: int,
              ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics; additive ones are per traced round."""
    tree = SpanTree(instr.recorder.spans)
    traced = [r for r in runs if r.traced and r.ok]
    rounds = max(traced_rounds, 1)

    def total(name: str) -> float:
        return sum(s.duration for s in tree.outermost(name)) / rounds

    def us(name: str) -> List[float]:
        return [s.duration * 1e6 for s in tree.named(name)]

    def counter(name: str, backend: str) -> float:
        return sum(_counter_total(r.metrics, name, backend=backend)
                   for r in traced) / rounds

    metrics: Dict[str, Tuple[float, str]] = {
        "core.compile_s": (total("core.compile"), "s"),
        "core.calibrate_s": (sum(
            s.duration for s in tree.named("core.calibrate")
            if not tree.has_ancestor(s, "core.engine")) / rounds, "s"),
        "core.calibrate.samples": (instr.calibration_samples / rounds, "count"),
        "core.engine_s": (total("core.engine"), "s"),
        "core.rounds": (sum(r.monitor_rounds for r in traced) / rounds,
                        "count"),
        "core.recalibrations": (sum(r.recalibrations for r in traced) / rounds,
                                "count"),
        "core.executor_self_s": (sum(
            tree.self_time(s) for s in tree.named("core.execute")) / rounds, "s"),
    }
    for backend in ("process", "cluster"):
        samples = instr.dispatches.get(backend, [])
        rtt = [s[0] * 1e6 for s in samples]
        compute = [s[1] * 1e6 for s in samples]
        overhead = [(s[0] - s[1]) * 1e6 for s in samples]
        submit = us(f"{backend}.submit")
        boot_times = (backends.process_boot if backend == "process"
                      else backends.cluster_boot)
        metrics.update({
            f"{backend}.boot_s": (_median(boot_times), "s"),
            f"{backend}.submit_us.p50": (percentile(submit, 50), "us"),
            f"{backend}.submit_us.p99": (percentile(submit, 99), "us"),
            f"{backend}.wait_s": (total(f"{backend}.wait"), "s"),
            f"{backend}.rtt_us.p50": (percentile(rtt, 50), "us"),
            f"{backend}.rtt_us.p99": (percentile(rtt, 99), "us"),
            f"{backend}.compute_us.p50": (percentile(compute, 50), "us"),
            f"{backend}.overhead_us.p50": (percentile(overhead, 50), "us"),
            f"{backend}.overhead_us.p99": (percentile(overhead, 99), "us"),
            f"{backend}.dispatches": (len(submit) / rounds, "count"),
            f"{backend}.lost": (sum(1 for s in samples if s[2]) / rounds, "count"),
            f"{backend}.bytes_inline": (
                counter("transport.bytes_inline", backend), "B"),
            f"{backend}.bytes_shm": (counter("transport.bytes_shm", backend), "B"),
        })
    metrics["cluster.close_s"] = (backends.close_s, "s")
    metrics["cluster.encode_us.p50"] = (percentile(us("cluster.encode"), 50), "us")
    metrics["shm.dumps_s"] = (total("shm.dumps"), "s")
    metrics["shm.loads_s"] = (total("shm.loads"), "s")
    metrics["shm.segments_after_close"] = (float(leaked_segments), "count")
    metrics["sim.dispatch_s"] = (total("sim.dispatch"), "s")
    metrics["monitor.observe_s"] = (total("monitor.observe"), "s")
    metrics["monitor.observations"] = (instr.monitor_observations / rounds, "count")
    events = sum(r.trace_events for r in traced)
    metrics["trace.events_per_task"] = (
        events / max(1, sum(r.job.units for r in traced)), "events/task")
    metrics["metrics.series"] = (
        _median([len(r.metrics["series"]) for r in traced]), "count")
    metrics["bench.span_overhead"] = (span_overhead(runs), "ratio")
    return metrics


def _walls(runs: List[JobRun], traced: bool) -> Dict[str, float]:
    """Summed ``Grasp.run`` wall time per job, traced or untraced rounds."""
    walls: Dict[str, float] = {}
    for run in runs:
        if run.traced == traced:
            walls[run.job.name] = walls.get(run.job.name, 0.0) + run.wall
    return walls


def span_overhead(runs: List[JobRun]) -> float:
    """Traced over untraced wall time, over as many rounds of each."""
    return sum(_walls(runs, True).values()) / max(
        1e-12, sum(_walls(runs, False).values()))


def trace_report(instr: Instrumentation, runs: List[JobRun]) -> Tuple[List[str], Dict[str, float]]:
    """Per-span totals, self times and percentiles, plus the accounting."""
    tree = SpanTree(instr.recorder.spans)
    lines = ["span                 n     total_s    self_s   p50_us    p99_us"]
    for name in sorted({s.name for s in tree.spans}):
        spans = tree.named(name)
        durations = [s.duration * 1e6 for s in spans]
        lines.append(
            f"{name:<18} {len(spans):>6} {sum(s.duration for s in spans):>10.4f} "
            f"{sum(tree.self_time(s) for s in spans):>9.4f} "
            f"{percentile(durations, 50):>8.1f} {percentile(durations, 99):>9.1f}")
    ratios: Dict[str, float] = {}
    by_job: Dict[str, List[Dict[str, float]]] = {}
    for run in runs:
        if run.traced and run.root is not None:
            by_job.setdefault(run.job.name, []).append(
                tree.accounting(tree.by_id[run.root]))
    lines.append("accounting: ratio = (compile + calibrate + engine + "
                 "executor_self + submit + wait) / grasp.run wall")
    for name, parts in sorted(by_job.items()):
        summed = {k: sum(p[k] for p in parts) for k in parts[0]}
        ratios[name] = summed["accounted"] / summed["wall"]
        detail = " ".join(f"{k}={summed[k]:.4f}" for k in
                          ("program", "compile", "calibrate", "engine",
                           "executor_self", "submit", "wait", "wall"))
        lines.append(f"{name:<14} runs={len(parts)} ratio={ratios[name]:.3f} "
                     f"{detail}")
    traced, untraced = _walls(runs, True), _walls(runs, False)
    lines.append("span overhead: traced / untraced grasp.run wall, per job")
    for name in sorted(traced):
        lines.append(f"{name:<14} {traced[name] / untraced[name]:.3f}")
    return lines, ratios


# ---------------------------------------------------------------- the run
@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    errors: List[str]
    report: List[str]
    record: Dict[str, Any]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: Optional[WorkloadSpec] = None) -> Outcome:
    spec = spec or WORKLOADS[workload]
    jobs = make_jobs(workload, seed, spec)
    record = run_record(workload, spec, seed, seconds, jobs)
    segments_before = shm_segments()
    backends = Backends()
    instr = Instrumentation() if trace else None
    runs: List[JobRun] = []
    rounds = 0
    workers: set = set()
    try:
        boot(backends, jobs)
        deadline = time.perf_counter() + seconds
        # The traced run alternates untraced and traced rounds, so the
        # span overhead compares like with like; it ends on a traced round.
        while (rounds < MIN_ROUNDS or time.perf_counter() < deadline
               or (trace and rounds % 2)):
            traced = trace and rounds % 2 == 1
            with instr.active() if traced else nullcontext():
                for job in jobs:
                    runs.append(run_job(job, backends.for_job(job),
                                        instr if traced else None))
                    # Free the run's result (bulk outputs included) before
                    # the next job, so no job pays for another's garbage.
                    gc.collect()
            rounds += 1
        workers = descendants(os.getpid())
    finally:
        backends.close()
        stop_helpers()
    errors = [e for r in runs for e in r.errors]
    leaked = shm_segments() - segments_before
    if leaked:
        errors.append(f"{len(leaked)} grasp-* segments left in /dev/shm")
    survivors = alive(workers)
    if survivors:
        errors.append(f"worker processes still running: {sorted(survivors)}")

    if workload == "grid-sim" and any(
            r.ok and r.recalibrations < 1 for r in runs
            if r.job.name == "sweep@sim"):
        errors.append("grid-sim sweep made no recalibration")
    for name in ("sweep@sim", "pipeline@sim"):
        spans = {r.makespan for r in runs if r.job.name == name and r.ok}
        if len(spans) > 1:
            errors.append(f"{name}: virtual makespan differs between runs "
                          f"{sorted(spans)}")

    report: List[str] = []
    if trace:
        report, ratios = trace_report(instr, runs)
        if workload in ("farm-fine", "farm-bulk"):
            for name in ("farm@process", "farm@cluster"):
                ratio = ratios.get(name, 0.0)
                if not 0.9 <= ratio <= 1.1:
                    errors.append(f"{name}: driver-side layer times cover "
                                  f"{ratio:.3f} of the grasp.run wall time")
        metrics = per_layer(instr, runs, rounds // 2, backends, len(leaked))
    else:
        metrics = end_to_end(runs, backends)

    attempted = sum(r.job.units for r in runs)
    failed = sum(r.failed for r in runs)
    record["rounds"] = rounds
    return Outcome(correct=not errors and failed == 0, attempted=attempted,
                   failed=failed, metrics=metrics, errors=errors,
                   report=report, record=record)


def result_line(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    })
