"""The streaming result API: ``as_completed()`` at every layer.

``Grasp.run`` is now the draining form of ``Grasp.as_completed``; these
tests pin the streaming contract:

* streaming and blocking runs are *the same run* — bit-identical reports
  on the simulated backend, identical outputs everywhere;
* every completed task (calibration samples, window results,
  recalibration-probe results) is yielded exactly once, in collection
  order;
* the stream is lazy — abandoning it stops dispatching and releases
  internally created backends;
* the executor-level generators return the final ``ExecutionReport`` and
  the ``Skeleton.as_completed`` front door round-trips through ``Grasp``.
"""

from __future__ import annotations

import threading

import pytest

from repro import (
    Grasp,
    GraspConfig,
    Pipeline,
    Stage,
    StreamingRun,
    TaskFarm,
)
from repro.grid.load import ConstantLoad, StepLoad
from repro.grid.node import GridNode
from repro.grid.topology import GridBuilder, GridTopology


def hetero_grid() -> GridTopology:
    return (GridBuilder().heterogeneous(nodes=8, speed_spread=4.0)
            .named("hetero").build(seed=1))


def spike_grid() -> GridTopology:
    nodes = [
        GridNode(node_id=f"s/n{i}", speed=speed,
                 load_model=ConstantLoad(0.0), site="s")
        for i, speed in enumerate([1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    ]
    nodes[-1] = nodes[-1].with_load(StepLoad(steps=[(5.0, 0.9)], initial=0.0))
    nodes[-2] = nodes[-2].with_load(StepLoad(steps=[(5.0, 0.9)], initial=0.0))
    return GridTopology(nodes=nodes, name="spike")


def square_farm() -> TaskFarm:
    return TaskFarm(worker=lambda x: x * x, cost_model=lambda _: 3.0)


class TestGraspStreaming:
    def test_stream_is_bit_identical_to_run(self):
        blocking = Grasp(skeleton=square_farm(), grid=hetero_grid(),
                         config=GraspConfig.adaptive()).run(inputs=range(40))
        run = Grasp(skeleton=square_farm(), grid=hetero_grid(),
                    config=GraspConfig.adaptive()).as_completed(inputs=range(40))
        streamed = list(run)
        assert isinstance(run, StreamingRun)
        assert run.result is not None
        assert run.result.makespan == blocking.makespan
        assert run.result.outputs == blocking.outputs
        # Streamed results are exactly the run's results, in the same
        # collection order (calibration first, then execution).
        assert [(r.task_id, r.node_id, r.finished) for r in streamed] == \
            [(r.task_id, r.node_id, r.finished) for r in blocking.results]

    def test_result_is_none_until_exhausted(self):
        run = Grasp(skeleton=square_farm(),
                    grid=hetero_grid()).as_completed(inputs=range(12))
        first = next(run)
        assert first.during_calibration
        assert run.result is None
        remaining = list(run)
        assert run.result is not None
        assert len([first] + remaining) == 12

    def test_recalibration_results_are_streamed(self):
        # threshold 0.3 on the spike grid forces repeated recalibrations
        # whose consumed probe tasks must stream like any other result.
        farm = TaskFarm(worker=lambda x: x + 7, cost_model=lambda _: 5.0)
        run = Grasp(skeleton=farm, grid=spike_grid(),
                    config=GraspConfig.adaptive(threshold_factor=0.3),
                    ).as_completed(inputs=range(60))
        streamed = list(run)
        assert run.result.recalibrations > 0
        assert sorted(r.task_id for r in streamed) == list(range(60))
        assert any(r.during_calibration for r in streamed)

    def test_pipeline_stream(self):
        pipeline = Pipeline(stages=[
            Stage(fn=lambda x: x + 1, cost_model=lambda _: 2.0),
            Stage(fn=lambda x: x * 3, cost_model=lambda _: 4.0),
            Stage(fn=lambda x: x - 5, cost_model=lambda _: 1.0),
        ])
        run = Grasp(skeleton=pipeline, grid=hetero_grid(),
                    config=GraspConfig.adaptive()).as_completed(inputs=range(30))
        streamed = list(run)
        assert run.result.outputs == [(x + 1) * 3 - 5 for x in range(30)]
        assert sorted(r.task_id for r in streamed) == list(range(30))

    @pytest.mark.parametrize("backend", ["thread", "asyncio"])
    def test_stream_on_concurrent_backends(self, backend):
        run = Grasp(skeleton=TaskFarm(worker=lambda x: x * 2),
                    grid=hetero_grid(),
                    backend=backend).as_completed(inputs=range(32))
        streamed = list(run)
        assert sorted(r.output for r in streamed) == \
            [x * 2 for x in range(32)]
        assert run.result.outputs == [x * 2 for x in range(32)]

    def test_abandoned_stream_releases_owned_backend(self):
        run = Grasp(skeleton=TaskFarm(worker=lambda x: x), grid=hetero_grid(),
                    backend="thread").as_completed(inputs=range(40))
        next(run)
        run.close()
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("grasp-") and t.is_alive()]
        assert leaked == []

    def test_misconfiguration_raises_at_call_site(self):
        # Compilation runs eagerly: a bogus backend or missing master must
        # raise from as_completed() itself, not from the first next().
        from repro.exceptions import CompilationError

        with pytest.raises(CompilationError, match="unknown backend"):
            Grasp(skeleton=square_farm(), grid=hetero_grid(),
                  backend="bogus").as_completed(inputs=range(4))

        config = GraspConfig()
        config.master_node = "ghost"
        with pytest.raises(CompilationError, match="does not exist"):
            Grasp(skeleton=square_farm(), grid=hetero_grid(),
                  config=config).as_completed(inputs=range(4))

    def test_never_iterated_stream_close_releases_backend(self):
        # Closing an unstarted generator skips its finally blocks; the
        # StreamingRun must still release the eagerly-created backend.
        # The asyncio backend starts its loop thread in __init__, so a
        # leak here is observable without ever iterating.
        run = Grasp(skeleton=square_farm(), grid=hetero_grid(),
                    backend="asyncio").as_completed(inputs=range(8))
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("grasp-") and t.is_alive()]
        assert leaked, "compilation should have started the loop thread"
        run.close()
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("grasp-") and t.is_alive()]
        assert leaked == []

    def test_dropped_never_iterated_stream_is_finalized(self):
        # Dropping the run without next() or close() GCs a never-started
        # generator whose finally blocks never run; the finalizer must
        # close the eagerly-created backend anyway.
        import gc

        run = Grasp(skeleton=square_farm(), grid=hetero_grid(),
                    backend="asyncio").as_completed(inputs=range(8))
        del run
        gc.collect()
        leaked = [t for t in threading.enumerate()
                  if t.name.startswith("grasp-") and t.is_alive()]
        assert leaked == []

    def test_abandoned_stream_stops_dispatching(self):
        dispatched = []

        def worker(x):
            dispatched.append(x)
            return x

        run = Grasp(skeleton=TaskFarm(worker=worker),
                    grid=hetero_grid()).as_completed(inputs=range(64))
        next(run)
        count_at_abandon = len(dispatched)
        run.close()
        assert len(dispatched) == count_at_abandon < 64


class TestSkeletonFrontDoor:
    def test_skeleton_as_completed(self):
        grid = hetero_grid()
        farm = TaskFarm(worker=lambda x: x * 5)
        run = farm.as_completed(grid, inputs=range(16))
        outputs = sorted(r.output for r in run)
        assert outputs == [x * 5 for x in range(16)]
        assert run.result.total_tasks == 16

    def test_skeleton_as_completed_passes_config_and_backend(self):
        grid = hetero_grid()
        config = GraspConfig.non_adaptive()
        config.execution.master_computes = True
        run = TaskFarm(worker=lambda x: -x).as_completed(
            grid, inputs=range(8), config=config, backend="thread")
        assert sorted(r.output for r in run) == [-x for x in range(7, -1, -1)]
        assert run.result.config is config


class TestExecutorStreams:
    def test_farm_executor_as_completed_returns_report(self):
        import collections

        from repro.core.calibration import calibrate
        from repro.core.compilation import compile_program
        from repro.core.plan import FanPlan
        from repro.core.plan_executor import PlanExecutor
        from repro.core.program import SkeletalProgram

        config = GraspConfig.adaptive()
        program = SkeletalProgram(square_farm(), config)
        tasks = collections.deque(program.make_tasks(range(20)))
        compiled = compile_program(program, hetero_grid())
        calibration = calibrate(
            tasks=tasks, pool=compiled.pool, execute_fn=program.execute_task,
            config=config.calibration, master_node=compiled.master_node,
            min_nodes=program.min_nodes, at_time=0.0, consume=True,
            backend=compiled.backend,
        )
        executor = PlanExecutor(
            plan=FanPlan(body=program.execute_task, min_nodes=1),
            simulator=compiled.backend, config=config,
            master_node=compiled.master_node, pool=compiled.pool,
            min_nodes=1,
        )
        stream = executor.as_completed(tasks, calibration)
        yielded = []
        report = None
        while True:
            try:
                yielded.append(next(stream))
            except StopIteration as stop:
                report = stop.value
                break
        assert report is executor.engine.report
        assert [r.task_id for r in yielded] == \
            [r.task_id for r in report.results]
