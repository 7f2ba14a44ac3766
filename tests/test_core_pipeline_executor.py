"""Tests for Algorithm 2 on a pipeline: the plan executor over a chain plan."""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.core.calibration import calibrate
from repro.core.parameters import (
    AdaptationAction,
    CalibrationConfig,
    ExecutionConfig,
    GraspConfig,
)
from repro.core.plan_executor import (
    PlanExecutor,
    StageMapping,
    build_plan_mapping,
)
from repro.exceptions import ExecutionError
from repro.grid.load import StepLoad
from repro.grid.node import GridNode
from repro.grid.simulator import GridSimulator
from repro.grid.topology import GridTopology
from repro.skeletons.pipeline import Pipeline, Stage


def weighted_pipeline() -> Pipeline:
    """Three stages with 1:4:1 cost weights and checkable arithmetic."""
    return Pipeline([
        Stage(lambda x: x + 1, cost_model=lambda i: 1.0, name="light-a"),
        Stage(lambda x: x * 2, cost_model=lambda i: 4.0, name="heavy", replicable=True),
        Stage(lambda x: x - 3, cost_model=lambda i: 1.0, name="light-b"),
    ])


def run_pipeline(grid, pipeline, n_items, config=None):
    config = config or GraspConfig()
    sim = GridSimulator(grid)
    master = grid.node_ids[0]
    tasks = [
        dataclasses.replace(t, cost=pipeline.total_cost(t.payload))
        for t in pipeline.make_tasks(range(n_items))
    ]
    queue = collections.deque(tasks)
    calibration = calibrate(queue, grid.node_ids,
                            lambda t: pipeline.run_item(t.payload), sim,
                            config.calibration, master,
                            min_nodes=pipeline.num_stages, at_time=0.0)
    executor = PlanExecutor(plan=pipeline.lower(), simulator=sim, config=config,
                            master_node=master, pool=grid.node_ids)
    report = executor.run(list(queue), calibration)
    return report, calibration


class TestStageMapping:
    def test_heaviest_stage_gets_fittest_node(self):
        pipe = weighted_pipeline()
        mapping = build_plan_mapping(pipe.lower(), ["best", "mid", "worst"], sample_item=1)
        assert mapping.nodes_for(1) == ["best"]     # heavy stage
        assert set(mapping.nodes_for(0) + mapping.nodes_for(2)) == {"mid", "worst"}

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ExecutionError):
            build_plan_mapping(weighted_pipeline().lower(), ["only", "two"], sample_item=1)

    def test_replication_uses_spare_nodes(self):
        pipe = weighted_pipeline()
        mapping = build_plan_mapping(pipe.lower(), ["a", "b", "c", "d", "e"],
                                     sample_item=1, replicate=True)
        assert len(mapping.nodes_for(1)) >= 2  # heavy replicable stage replicated
        assert set(mapping.all_nodes()) == {"a", "b", "c", "d", "e"}

    def test_no_replication_leaves_spares_unused(self):
        pipe = weighted_pipeline()
        mapping = build_plan_mapping(pipe.lower(), ["a", "b", "c", "d"],
                                     sample_item=1, replicate=False)
        assert len(mapping.all_nodes()) == 3

    def test_pick_node_prefers_earliest_free_replica(self):
        mapping = StageMapping({0: ["x", "y"]})
        free_at = {"x": 10.0, "y": 2.0}
        assert mapping.pick_node(0, lambda n: free_at[n]) == "y"

    def test_empty_mapping_rejected(self):
        with pytest.raises(ExecutionError):
            StageMapping({})
        with pytest.raises(ExecutionError):
            StageMapping({0: []})

    def test_equality_and_dict(self):
        a = StageMapping({0: ["x"], 1: ["y"]})
        b = StageMapping({0: ["x"], 1: ["y"]})
        assert a == b
        assert a.as_dict() == {0: ["x"], 1: ["y"]}


class TestPipelineExecution:
    def test_outputs_preserve_semantics(self, hetero_grid):
        pipe = weighted_pipeline()
        report, calibration = run_pipeline(hetero_grid, pipe, 30)
        expected = {i: ((i + 1) * 2) - 3 for i in range(30)}
        for result in list(report.results) + list(calibration.results):
            assert result.output == expected[result.task_id]
        all_ids = {r.task_id for r in report.results} | {
            r.task_id for r in calibration.results
        }
        assert all_ids == set(range(30))

    def test_pipelining_overlaps_items(self, dedicated_grid):
        """With S stages of equal cost, streaming N items must take far less
        than N × (S × stage_time): steady-state throughput is one item per
        stage time."""
        pipe = Pipeline([Stage(lambda x: x, cost_model=lambda i: 10.0,
                               name=f"s{k}") for k in range(3)])
        report, _ = run_pipeline(dedicated_grid, pipe, 20)
        stage_time = 10.0 / 2.0  # cost 10 on speed-2 nodes
        sequential_estimate = 20 * 3 * stage_time
        assert report.finished < 0.6 * sequential_estimate

    def test_monitoring_rounds_recorded(self, hetero_grid):
        report, _ = run_pipeline(hetero_grid, weighted_pipeline(), 40)
        assert report.rounds
        assert all(r.unit_times for r in report.rounds)

    def test_empty_items_rejected(self, hetero_grid):
        pipe = weighted_pipeline()
        sim = GridSimulator(hetero_grid)
        master = hetero_grid.node_ids[0]
        queue = collections.deque(pipe.make_tasks(range(5)))
        calibration = calibrate(queue, hetero_grid.node_ids,
                                lambda t: pipe.run_item(t.payload), sim,
                                CalibrationConfig(), master,
                                min_nodes=pipe.num_stages, at_time=0.0)
        executor = PlanExecutor(plan=pipe.lower(), simulator=sim,
                                config=GraspConfig(), master_node=master,
                                pool=hetero_grid.node_ids)
        with pytest.raises(ExecutionError):
            executor.run([], calibration)

    def test_unknown_master_rejected(self, hetero_grid):
        sim = GridSimulator(hetero_grid)
        with pytest.raises(ExecutionError):
            PlanExecutor(plan=weighted_pipeline().lower(), simulator=sim,
                         config=GraspConfig(), master_node="ghost",
                         pool=hetero_grid.node_ids)


class TestPipelineAdaptation:
    def make_spike_grid(self):
        """The node that will host the heavy stage degrades at t=20."""
        nodes = [
            GridNode(node_id="big", speed=8.0,
                     load_model=StepLoad(steps=[(20.0, 0.95)], initial=0.0)),
            GridNode(node_id="mid1", speed=4.0),
            GridNode(node_id="mid2", speed=4.0),
            GridNode(node_id="small1", speed=2.0),
            GridNode(node_id="small2", speed=2.0),
        ]
        return GridTopology(nodes=nodes, wan_latency=1e-4, wan_bandwidth=1e8)

    def test_stage_load_spike_triggers_remap(self):
        grid = self.make_spike_grid()
        pipe = weighted_pipeline()
        config = GraspConfig(
            execution=ExecutionConfig(threshold_factor=1.5,
                                      adaptation=AdaptationAction.RECALIBRATE),
        )
        report, _ = run_pipeline(grid, pipe, 120, config=config)
        assert report.breaches >= 1
        assert report.recalibrations >= 1
        assert len(report.chosen_history) >= 2
        # After remapping, the degraded node should no longer host the heavy stage.
        final_nodes = report.chosen_history[-1]
        assert "big" not in final_nodes[:1] or report.recalibrations == 0

    def test_adaptive_beats_frozen_mapping_under_spike(self):
        pipe_factory = weighted_pipeline
        adaptive, _ = run_pipeline(self.make_spike_grid(), pipe_factory(), 120,
                                   config=GraspConfig.adaptive())
        frozen, _ = run_pipeline(self.make_spike_grid(), pipe_factory(), 120,
                                 config=GraspConfig.non_adaptive())
        assert adaptive.finished < frozen.finished

    def test_migration_cost_charged_on_remap(self):
        grid = self.make_spike_grid()
        pipe = weighted_pipeline()
        config = GraspConfig(
            execution=ExecutionConfig(threshold_factor=1.5, migration_bytes=10_000_000),
        )
        with_migration, _ = run_pipeline(grid, pipe, 120, config=config)
        cheap_config = GraspConfig(execution=ExecutionConfig(threshold_factor=1.5))
        without_migration, _ = run_pipeline(self.make_spike_grid(), weighted_pipeline(),
                                            120, config=cheap_config)
        if with_migration.recalibrations and without_migration.recalibrations:
            assert with_migration.finished >= without_migration.finished

    def test_replication_improves_throughput_for_heavy_stage(self, dedicated_grid):
        pipe_factory = weighted_pipeline
        replicated_cfg = GraspConfig(
            calibration=CalibrationConfig(select_fraction=1.0),
            execution=ExecutionConfig(replicate_stages=True),
        )
        plain, _ = run_pipeline(dedicated_grid, pipe_factory(), 60,
                                config=GraspConfig.non_adaptive())
        replicated, _ = run_pipeline(dedicated_grid, pipe_factory(), 60,
                                     config=replicated_cfg)
        # Replicating the dominant stage over spare nodes must not be slower.
        assert replicated.finished <= plain.finished * 1.05
