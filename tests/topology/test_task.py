"""Tests for the Task value object."""

import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.topology.task import Task, task_label, task_sort_key


class TestTask:
    def test_ordering_by_fields(self):
        a = Task("t", "bolt", 0, 1)
        b = Task("t", "bolt", 1, 2)
        assert a < b

    def test_equality_and_hash(self):
        a = Task("t", "bolt", 0, 1)
        assert a == Task("t", "bolt", 0, 1)
        assert len({a, Task("t", "bolt", 0, 1)}) == 1

    def test_str(self):
        assert str(Task("topo", "bolt", 2, 7)) == "topo/bolt[2]"

    def test_task_label_is_stable_and_unique_per_topology(self):
        a = Task("topo", "bolt", 0, 7)
        b = Task("topo", "spout", 0, 8)
        assert task_label(a) == "topo:7"
        assert task_label(a) != task_label(b)

    def test_frozen(self):
        task = Task("t", "bolt", 0, 1)
        try:
            task.task_id = 99
            raised = False
        except AttributeError:
            raised = True
        assert raised


def _shuffled_tasks():
    tasks = [
        Task(topology, component, instance, task_id)
        for topology in ("a", "b", "a:b")
        for component in ("bolt", "sink", "spout")
        for instance in range(3)
        for task_id in (instance + 1, 10 - instance)
    ]
    random.Random(7).shuffle(tasks)
    return tasks


def _fields(task):
    return (task.topology_id, task.component, task.instance, task.task_id)


class TestOrdering:
    def test_sorted_matches_field_tuple_order(self):
        tasks = _shuffled_tasks()
        want = sorted(tasks, key=_fields)
        assert sorted(tasks) == want
        assert sorted(tasks, key=task_sort_key) == want

    def test_comparisons_agree_with_field_tuples(self):
        tasks = _shuffled_tasks()[:12]
        for a in tasks:
            for b in tasks:
                fa, fb = _fields(a), _fields(b)
                assert (a < b, a <= b, a > b, a >= b) == (
                    fa < fb, fa <= fb, fa > fb, fa >= fb
                )

    def test_hash_is_the_field_tuple_hash(self):
        for task in _shuffled_tasks():
            assert hash(task) == hash(_fields(task))

    @pytest.mark.parametrize(
        "other", [1, "a", ("t", "bolt", 0, 1), None],
        ids=["int", "str", "field-tuple", "none"],
    )
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_comparing_with_a_non_task_raises(self, op, other):
        task = Task("t", "bolt", 0, 1)
        compare = {
            "<": operator.lt, "<=": operator.le,
            ">": operator.gt, ">=": operator.ge,
        }[op]
        with pytest.raises(TypeError):
            compare(task, other)
        with pytest.raises(TypeError):
            compare(other, task)

    def test_unpickled_tasks_compare_hash_and_sort_as_originals(self):
        tasks = _shuffled_tasks()
        loaded = pickle.loads(pickle.dumps(tasks))
        for task, copy in zip(tasks, loaded):
            assert copy == task and hash(copy) == hash(task)
            assert not copy < task and not task < copy
            assert copy <= task <= copy
        assert sorted(loaded) == sorted(tasks)
        assert sorted(loaded + tasks) == [
            t for t in sorted(tasks) for _ in range(2)
        ]


# Schedules the same topology in every process and either pickles the
# assignments to argv[2] ("write") or compares them with the pickle
# there ("read").  String hashes are salted per process, so the reader
# runs under another PYTHONHASHSEED than the writer.
_CROSS_PROCESS_SCRIPT = """
import pickle, sys
from repro.cluster import emulab_testbed
from repro.scheduler.rstorm import RStormScheduler
from repro.workloads.micro import micro_topology
topology = micro_topology("diamond", "compute")
fresh = RStormScheduler().schedule([topology], emulab_testbed())
if sys.argv[1] == "write":
    with open(sys.argv[2], "wb") as handle:
        pickle.dump(fresh, handle, protocol=4)
else:
    with open(sys.argv[2], "rb") as handle:
        cached = pickle.load(handle)
    assignment = cached[topology.topology_id]
    print(all(assignment.has(task) for task in topology.tasks), cached == fresh)
"""


class TestPickle:
    def test_round_trip_rebuilds_hash_and_label(self):
        task = Task("topo", "bolt", 2, 7)
        loaded = pickle.loads(pickle.dumps(task))
        assert loaded == task
        assert hash(loaded) == hash(task)
        assert task_label(loaded) == "topo:7"
        assert {task: 1}[loaded] == 1

    def test_pickle_loads_under_another_hash_seed(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        path = str(tmp_path / "assignments.pkl")
        outputs = []
        for mode, hash_seed in (("write", "1"), ("read", "2")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _CROSS_PROCESS_SCRIPT, mode, path],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(result.stdout.split())
        assert outputs == [[], ["True", "True"]]
