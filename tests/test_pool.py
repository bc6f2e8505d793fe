"""The process pool's one contract: pool.run(work) yields map(fn, tasks),
whose results come in task order; on forked workers a map hands its tasks
out when it is called, in this process it runs as it is taken; work() is the
call's work inside it and None after it, and a dead worker is WorkerLost."""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from lopstokes import pool
from lopstokes.errors import WorkerLost

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pool forks its workers")


def _late_square(task):
    # the earlier the task, the later it finishes
    i, n = task
    time.sleep(0.01 * (n - i))
    return i * i


def _slow_start(_):
    start = time.monotonic()
    time.sleep(0.3)
    return start, os.getpid()


def _quick_end(_):
    time.sleep(0.05)
    return time.monotonic()


def _taken(task):
    pool.work().append(task)
    return task


def _die(_):
    os._exit(1)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_results_come_in_task_order(monkeypatch, workers):
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    n = 6
    with pool.run(None) as run:
        assert list(run(_late_square, [(i, n) for i in range(n)])) == [i * i for i in range(n)]
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_map_starts_when_called(monkeypatch):
    # map A is called first and taken last: its one task still starts before
    # map B's tasks are done, on the other worker
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    with pool.run(None) as run:
        first = run(_slow_start, [0])
        ends = list(run(_quick_end, range(6)))
        (start, pid), = first
    assert pid != os.getpid()
    assert start < max(ends)


def test_in_process_a_map_runs_as_it_is_taken(monkeypatch):
    monkeypatch.setattr(pool, "_workers", lambda: 1)
    taken = []
    with pool.run(taken) as run:
        results = run(_taken, range(3))
        assert taken == []
        assert next(results) == 0 and taken == [0]
        assert list(results) == [1, 2] and taken == [0, 1, 2]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_work_is_none_after_a_call(monkeypatch, workers):
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    with pool.run("work") as run:
        assert pool.work() == "work"
        assert list(run(len, ["ab"])) == [2]
    assert pool.work() is None
    with pytest.raises(TypeError):
        with pool.run("work") as run:
            list(run(len, [1]))
    assert pool.work() is None


@needs_fork
def test_a_dead_worker_raises_worker_lost(monkeypatch):
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    with pytest.raises(WorkerLost, match="a pool worker process died") as info:
        with pool.run(None) as run:
            list(run(_die, [0]))
    assert isinstance(info.value, BrokenProcessPool)
    assert pool.work() is None
    assert multiprocessing.active_children() == []
