"""Tests for Algorithm 2 on a task farm: the plan executor over a fan plan."""

from __future__ import annotations

import collections

import pytest

from repro.core.calibration import calibrate
from repro.core.parameters import (
    AdaptationAction,
    CalibrationConfig,
    ExecutionConfig,
    GraspConfig,
)
from repro.exceptions import ExecutionError
from repro.grid.failures import PermanentFailure
from repro.grid.load import StepLoad
from repro.grid.node import GridNode
from repro.grid.simulator import GridSimulator
from repro.core.plan import FanPlan
from repro.core.plan_executor import PlanExecutor
from repro.grid.topology import GridTopology
from repro.skeletons.taskfarm import TaskFarm


def run_farm(grid, farm, n_tasks, config=None):
    """Calibrate then execute a farm over ``grid``; return (report, calibration)."""
    config = config or GraspConfig()
    sim = GridSimulator(grid)
    tasks = collections.deque(farm.make_tasks(range(n_tasks)))
    master = grid.node_ids[0]
    calibration = calibrate(tasks, grid.node_ids, farm.execute_task, sim,
                            config.calibration, master, min_nodes=2, at_time=0.0)
    executor = PlanExecutor(plan=FanPlan(body=farm.execute_task, min_nodes=2),
                            simulator=sim, config=config, master_node=master,
                            pool=grid.node_ids, min_nodes=2)
    report = executor.run(tasks, calibration)
    return report, calibration


class TestBasicExecution:
    def test_all_tasks_complete_with_correct_outputs(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x * 3)
        report, calibration = run_farm(hetero_grid, farm, 60)
        all_ids = {r.task_id for r in report.results} | {
            r.task_id for r in calibration.results
        }
        assert all_ids == set(range(60))
        for result in report.results:
            assert result.output == result.task_id * 3

    def test_no_duplicate_results(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x)
        report, calibration = run_farm(hetero_grid, farm, 40)
        ids = [r.task_id for r in report.results] + [r.task_id for r in calibration.results]
        assert len(ids) == len(set(ids))

    def test_report_time_bounds(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x)
        report, calibration = run_farm(hetero_grid, farm, 30)
        assert report.started == pytest.approx(calibration.finished)
        assert report.finished >= report.started
        assert all(r.finished <= report.finished + 1e-9 for r in report.results)

    def test_monitoring_rounds_recorded(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x)
        report, _ = run_farm(hetero_grid, farm, 50)
        assert len(report.rounds) >= 1
        for rnd in report.rounds:
            assert rnd.unit_times
            assert rnd.finished >= rnd.started
            assert rnd.min_time == min(rnd.unit_times)

    def test_faster_nodes_do_more_work_on_dedicated_grid(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 5.0)
        report, calibration = run_farm(hetero_grid, farm, 120)
        counts = report.per_node_counts()
        speeds = hetero_grid.speeds()
        fastest = max(speeds, key=speeds.get)
        slowest_workers = [n for n in counts if n != fastest]
        if fastest in counts and slowest_workers:
            assert counts[fastest] >= max(counts[n] for n in slowest_workers) * 0.8

    def test_master_excluded_by_default(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x)
        report, _ = run_farm(hetero_grid, farm, 40)
        master = hetero_grid.node_ids[0]
        assert master not in report.per_node_counts()

    def test_master_computes_when_configured(self, hetero_grid):
        config = GraspConfig(execution=ExecutionConfig(master_computes=True))
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 20.0)
        report, calibration = run_farm(hetero_grid, farm, 80, config=config)
        master = hetero_grid.node_ids[0]
        all_nodes = set(report.per_node_counts()) | set(
            r.node_id for r in calibration.results
        )
        assert master in all_nodes


class TestAdaptation:
    def make_spike_grid(self):
        """Fastest two nodes become heavily loaded at t=5."""
        nodes = [
            GridNode(node_id="n0", speed=1.0),
            GridNode(node_id="n1", speed=1.0),
            GridNode(node_id="n2", speed=2.0),
            GridNode(node_id="n3", speed=8.0,
                     load_model=StepLoad(steps=[(5.0, 0.95)], initial=0.0)),
            GridNode(node_id="n4", speed=8.0,
                     load_model=StepLoad(steps=[(5.0, 0.95)], initial=0.0)),
        ]
        return GridTopology(nodes=nodes, wan_latency=1e-4, wan_bandwidth=1e8)

    def test_load_spike_triggers_recalibration(self):
        grid = self.make_spike_grid()
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 4.0)
        config = GraspConfig(
            calibration=CalibrationConfig(),
            execution=ExecutionConfig(threshold_factor=1.5,
                                      adaptation=AdaptationAction.RECALIBRATE),
        )
        report, _ = run_farm(grid, farm, 150, config=config)
        assert report.breaches >= 1
        assert report.recalibrations >= 1
        assert len(report.recalibration_reports) == report.recalibrations
        assert len(report.chosen_history) >= 2

    def test_adaptation_disabled_records_breaches_without_acting(self):
        grid = self.make_spike_grid()
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 4.0)
        config = GraspConfig(
            execution=ExecutionConfig(adaptation=AdaptationAction.NONE,
                                      threshold_factor=1.5),
        )
        report, _ = run_farm(grid, farm, 150, config=config)
        assert report.recalibrations == 0
        assert report.breaches >= 1

    def test_adaptive_beats_non_adaptive_under_spike(self):
        farm_factory = lambda: TaskFarm(worker=lambda x: x, cost_model=lambda item: 4.0)
        adaptive_report, _ = run_farm(self.make_spike_grid(), farm_factory(), 150,
                                      config=GraspConfig.adaptive())
        frozen_report, _ = run_farm(self.make_spike_grid(), farm_factory(), 150,
                                    config=GraspConfig.non_adaptive())
        assert adaptive_report.finished < frozen_report.finished

    def test_rerank_adaptation_mode(self):
        grid = self.make_spike_grid()
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 4.0)
        config = GraspConfig(
            execution=ExecutionConfig(adaptation=AdaptationAction.RERANK,
                                      threshold_factor=1.5),
        )
        report, _ = run_farm(grid, farm, 150, config=config)
        assert report.recalibrations >= 1
        # RERANK does not run fresh calibration probes.
        assert report.recalibration_reports == []

    def test_max_recalibrations_respected(self):
        grid = self.make_spike_grid()
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 4.0)
        config = GraspConfig(
            execution=ExecutionConfig(threshold_factor=1.05, max_recalibrations=1),
        )
        report, _ = run_farm(grid, farm, 200, config=config)
        assert report.recalibrations <= 1


class TestFailures:
    def test_node_failure_mid_run_recovers(self):
        nodes = [GridNode(node_id=f"n{i}", speed=2.0) for i in range(5)]
        grid = GridTopology(
            nodes=nodes,
            failure_model=PermanentFailure(failures={"n4": 6.0}),
            wan_latency=1e-4, wan_bandwidth=1e8,
        )
        farm = TaskFarm(worker=lambda x: x + 1, cost_model=lambda item: 3.0)
        report, calibration = run_farm(grid, farm, 80)
        all_ids = {r.task_id for r in report.results} | {
            r.task_id for r in calibration.results
        }
        assert all_ids == set(range(80))
        # The dead node stops receiving work after its failure time.
        for result in report.results:
            if result.node_id == "n4":
                assert result.started < 6.0 + 1e-6

    def test_all_workers_dead_raises(self):
        nodes = [GridNode(node_id="n0", speed=1.0), GridNode(node_id="n1", speed=1.0)]
        grid = GridTopology(
            nodes=nodes,
            failure_model=PermanentFailure(failures={"n0": 2.0, "n1": 2.0}),
        )
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: 10.0)
        with pytest.raises(ExecutionError):
            run_farm(grid, farm, 50)


class TestValidation:
    def test_unknown_master_rejected(self, hetero_grid):
        sim = GridSimulator(hetero_grid)
        with pytest.raises(ExecutionError):
            PlanExecutor(plan=FanPlan(body=lambda t: None, min_nodes=1),
                         simulator=sim, config=GraspConfig(),
                         master_node="ghost", pool=hetero_grid.node_ids,
                         min_nodes=1)

    def test_empty_pool_rejected(self, hetero_grid):
        sim = GridSimulator(hetero_grid)
        with pytest.raises(ExecutionError):
            PlanExecutor(plan=FanPlan(body=lambda t: None, min_nodes=1),
                         simulator=sim, config=GraspConfig(),
                         master_node=hetero_grid.node_ids[0], pool=[],
                         min_nodes=1)

    def test_report_validate_detects_missing_tasks(self, hetero_grid):
        farm = TaskFarm(worker=lambda x: x)
        report, calibration = run_farm(hetero_grid, farm, 30)
        with pytest.raises(ExecutionError):
            report.validate(expected_tasks=500)
        # Execution results alone exclude the calibration sample.
        report.validate(expected_tasks=30 - calibration.consumed_tasks)
