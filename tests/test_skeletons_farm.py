"""Tests for the task-farm skeleton and shared skeleton base classes."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import SkeletonError
from repro.skeletons.base import (
    ENVELOPE_BYTES,
    Skeleton,
    Task,
    TaskResult,
    callable_cost,
    constant_cost,
    estimate_size,
)
from repro.skeletons.taskfarm import TaskFarm


class TestCostModels:
    def test_constant_cost(self):
        model = constant_cost(3.0)
        assert model("anything") == 3.0

    def test_constant_cost_negative_rejected(self):
        with pytest.raises(SkeletonError):
            constant_cost(-1.0)

    def test_callable_cost(self):
        model = callable_cost(lambda item: item * 2.0)
        assert model(3) == 6.0

    def test_callable_cost_negative_result_rejected(self):
        model = callable_cost(lambda item: -1.0)
        with pytest.raises(SkeletonError):
            model("x")


class TestEstimateSize:
    def test_none_is_envelope_only(self):
        assert estimate_size(None) == ENVELOPE_BYTES

    # A memoryview's len() counts elements, not bytes.
    @pytest.mark.parametrize("wrap", [np.asarray, memoryview],
                             ids=["ndarray", "memoryview"])
    def test_numpy_array_uses_nbytes(self, wrap):
        arr = np.zeros(1000, dtype=np.float64)
        assert estimate_size(wrap(arr)) == arr.nbytes + ENVELOPE_BYTES

    def test_bytes_and_str(self):
        assert estimate_size(b"abcd") == 4 + ENVELOPE_BYTES
        assert estimate_size("abcd") == 4 + ENVELOPE_BYTES

    def test_numeric_list_fast_path(self):
        assert estimate_size([1, 2, 3, 4]) == 32 + ENVELOPE_BYTES

    def test_scalar(self):
        assert estimate_size(3.14) > 0

    def test_arbitrary_object_via_pickle(self):
        size = estimate_size({"a": list(range(100))})
        assert size > ENVELOPE_BYTES

    def test_unpicklable_object_falls_back(self):
        lock = threading.Lock()
        assert estimate_size(lock) >= ENVELOPE_BYTES

    def test_larger_payload_larger_estimate(self):
        small = estimate_size(np.zeros(10))
        large = estimate_size(np.zeros(10_000))
        assert large > small


class TestTask:
    def test_scaled(self):
        task = Task(task_id=0, payload="p", cost=2.0)
        assert task.scaled(3.0).cost == pytest.approx(6.0)
        assert task.cost == 2.0  # original unchanged

    def test_scaled_negative_rejected(self):
        with pytest.raises(SkeletonError):
            Task(task_id=0, payload="p").scaled(-1.0)


class TestTaskResult:
    def test_durations(self):
        result = TaskResult(task_id=0, output=None, node_id="n",
                            submitted=1.0, started=2.0, finished=5.0)
        assert result.duration == pytest.approx(3.0)
        assert result.elapsed == pytest.approx(4.0)


class TestTaskFarm:
    def test_requires_callable_worker(self):
        with pytest.raises(SkeletonError):
            TaskFarm(worker="not-callable")

    def test_properties(self):
        farm = TaskFarm(worker=lambda x: x)
        props = farm.properties
        assert props.name == "taskfarm"
        assert props.redistributable
        assert props.stateless_workers
        assert props.min_nodes == 1
        assert props.monitoring_unit == "task"

    def test_ordered_flag_propagates(self):
        assert TaskFarm(worker=lambda x: x, ordered=True).properties.ordered_output

    def test_make_tasks_assigns_sequential_ids(self):
        farm = TaskFarm(worker=lambda x: x)
        tasks = farm.make_tasks([10, 20, 30])
        assert [t.task_id for t in tasks] == [0, 1, 2]
        assert [t.payload for t in tasks] == [10, 20, 30]

    def test_make_tasks_ids_continue_across_calls(self):
        farm = TaskFarm(worker=lambda x: x)
        farm.make_tasks([1])
        tasks = farm.make_tasks([2])
        assert tasks[0].task_id == 1

    def test_make_tasks_empty_rejected(self):
        with pytest.raises(SkeletonError):
            TaskFarm(worker=lambda x: x).make_tasks([])

    def test_default_cost_is_one(self):
        tasks = TaskFarm(worker=lambda x: x).make_tasks([1, 2])
        assert all(t.cost == 1.0 for t in tasks)

    def test_cost_model_applied(self):
        farm = TaskFarm(worker=lambda x: x, cost_model=lambda item: item * 2.0)
        tasks = farm.make_tasks([1, 5])
        assert [t.cost for t in tasks] == [2.0, 10.0]

    def test_size_models_applied(self):
        farm = TaskFarm(worker=lambda x: x,
                        input_size_model=lambda item: 1000,
                        output_size_model=lambda item: 10)
        task = farm.make_tasks([1])[0]
        assert task.input_bytes == 1000
        assert task.output_bytes == 10

    def test_output_size_fixed(self):
        farm = TaskFarm(worker=lambda x: x, output_size=77)
        assert farm.make_tasks([1])[0].output_bytes == 77

    def test_execute_task_runs_worker(self):
        farm = TaskFarm(worker=lambda x: x * x)
        task = farm.make_tasks([9])[0]
        assert farm.execute_task(task) == 81

    def test_run_sequential_reference(self):
        farm = TaskFarm(worker=lambda x: x + 1)
        assert farm.run_sequential([1, 2, 3]) == [2, 3, 4]

    def test_base_skeleton_is_abstract(self):
        skeleton = Skeleton(name="abstract")
        with pytest.raises(NotImplementedError):
            skeleton.make_tasks([1])
        with pytest.raises(NotImplementedError):
            skeleton.run_sequential([1])
        with pytest.raises(NotImplementedError):
            _ = skeleton.properties

    def test_empty_name_rejected(self):
        with pytest.raises(SkeletonError):
            TaskFarm(worker=lambda x: x, name="")
