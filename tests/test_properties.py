"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.calibration import select_fittest
from repro.core.parameters import CalibrationConfig, SelectionPolicy
from repro.core.ranking import NodeScore, RankingMode, rank_nodes
from repro.core.scheduler import (StaticBlockScheduler, StaticCyclicScheduler,
                                  WeightedBlockScheduler)
from repro.grid.load import BurstyLoad, RandomWalkLoad, SinusoidalLoad
from repro.grid.node import GridNode
from repro.grid.simulator import GridSimulator
from repro.grid.topology import GridTopology
from repro.monitor.thresholds import RelativeThreshold
from repro.skeletons.base import Task
from repro.utils.stats import normalise, summarise, univariate_linear_regression
from repro.utils.rng import derive_seed

finite_floats = st.floats(min_value=0.001, max_value=1e6, allow_nan=False,
                          allow_infinity=False)


class TestStatsProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_summary_bounds(self, values):
        s = summarise(values)
        assert s.minimum <= s.mean <= s.maximum
        assert s.minimum <= s.median <= s.maximum
        assert s.count == len(values)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_normalise_range(self, values):
        out = normalise(values)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-10, max_value=10),
           st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=30,
                    unique=True))
    def test_regression_recovers_noiseless_line(self, intercept, slope, xs):
        ys = [intercept + slope * x for x in xs]
        fit = univariate_linear_regression(xs, ys)
        for x, y in zip(xs, ys):
            assert fit.predict(x) == pytest.approx(y, abs=1e-6 + 1e-6 * abs(y))


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=0, max_size=20))
    def test_derive_seed_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2 ** 63


class TestLoadModelProperties:
    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.0, max_value=5000.0, allow_nan=False))
    def test_randomwalk_bounded_and_deterministic(self, seed, time):
        a = RandomWalkLoad(seed=seed, name="p")
        b = RandomWalkLoad(seed=seed, name="p")
        u = a.utilisation(time)
        assert 0.0 <= u <= 0.98
        assert u == b.utilisation(time)

    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.0, max_value=5000.0, allow_nan=False))
    def test_bursty_two_levels(self, seed, time):
        model = BurstyLoad(seed=seed, quiet_level=0.1, busy_level=0.8)
        assert model.utilisation(time) in (pytest.approx(0.1), pytest.approx(0.8))

    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_sinusoidal_bounded(self, time):
        model = SinusoidalLoad(base=0.5, amplitude=0.6, period=37.0)
        assert 0.0 <= model.utilisation(time) <= 0.98


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20),
           st.floats(min_value=0.5, max_value=8.0))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_serial_node_durations_sum(self, costs, speed):
        """Tasks on a single-core node execute back to back: the completion
        time of the last task equals the sum of the durations."""
        topo = GridTopology(nodes=[GridNode(node_id="n", speed=speed)])
        sim = GridSimulator(topo)
        records = [sim.run_task("n", c, at_time=0.0) for c in costs]
        assert records[-1].finished == pytest.approx(sum(c / speed for c in costs))
        for earlier, later in zip(records, records[1:]):
            assert later.started == pytest.approx(earlier.finished)


class TestSchedulerProperties:
    tasks_strategy = st.integers(min_value=1, max_value=200)
    nodes_strategy = st.integers(min_value=1, max_value=12)

    @given(tasks_strategy, nodes_strategy)
    def test_block_assignment_partitions_tasks(self, n_tasks, n_nodes):
        tasks = [Task(task_id=i, payload=i) for i in range(n_tasks)]
        nodes = [f"n{i}" for i in range(n_nodes)]
        assignment = StaticBlockScheduler().assign(tasks, nodes)
        ids = sorted(t.task_id for ts in assignment.values() for t in ts)
        assert ids == list(range(n_tasks))

    @given(tasks_strategy, nodes_strategy)
    def test_cyclic_assignment_partitions_tasks(self, n_tasks, n_nodes):
        tasks = [Task(task_id=i, payload=i) for i in range(n_tasks)]
        nodes = [f"n{i}" for i in range(n_nodes)]
        assignment = StaticCyclicScheduler().assign(tasks, nodes)
        ids = sorted(t.task_id for ts in assignment.values() for t in ts)
        assert ids == list(range(n_tasks))
        counts = [len(assignment[n]) for n in nodes]
        assert max(counts) - min(counts) <= 1

    @given(tasks_strategy, st.lists(st.floats(min_value=0.1, max_value=10.0),
                                    min_size=1, max_size=8))
    def test_weighted_assignment_partitions_tasks(self, n_tasks, weights):
        tasks = [Task(task_id=i, payload=i) for i in range(n_tasks)]
        nodes = [f"n{i}" for i in range(len(weights))]
        scheduler = WeightedBlockScheduler(weights=dict(zip(nodes, weights)))
        assignment = scheduler.assign(tasks, nodes)
        ids = sorted(t.task_id for ts in assignment.values() for t in ts)
        assert ids == list(range(n_tasks))


class TestRankingProperties:
    @given(st.dictionaries(
        keys=st.text(alphabet="abcdefgh", min_size=1, max_size=3),
        values=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=5),
        min_size=1, max_size=8,
    ))
    def test_time_only_ranking_sorted_and_complete(self, times):
        ranked = rank_nodes(times, mode=RankingMode.TIME_ONLY)
        assert {s.node_id for s in ranked} == set(times)
        scores = [s.score for s in ranked]
        assert scores == sorted(scores)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=12))
    def test_selection_respects_floor_and_pool(self, scores, floor):
        score_objs = [NodeScore(node_id=f"n{i}", score=s, mean_time=s, mean_load=0,
                                mean_bandwidth=0, observations=1)
                      for i, s in enumerate(scores)]
        config = CalibrationConfig(selection=SelectionPolicy.CUTOFF, cutoff_ratio=2.0)
        chosen = select_fittest(score_objs, config, min_nodes=floor)
        assert 1 <= len(chosen) <= len(scores)
        assert len(chosen) >= min(floor, len(scores))
        assert len(set(chosen)) == len(chosen)


class TestThresholdProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=20),
           st.floats(min_value=1.0, max_value=5.0))
    def test_scaled_round_breaches_iff_above_factor(self, sample, factor):
        threshold = RelativeThreshold(factor=factor)
        threshold.calibrate(sample)
        reference = float(np.median(sample))
        round_times = [reference * factor * 1.5] * 3
        assert threshold.breached(round_times)
        ok_times = [reference * factor * 0.5] * 3
        assert not threshold.breached(ok_times)
