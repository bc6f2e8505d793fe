"""One process pool per call, shared by the multiplier classes and the
determinant scan.

run(work, side) is the one pool: one forked worker per usable core (the
CPU affinity set of the process) when there are two or more, the platform
can fork and the process runs no other thread; otherwise the same tasks run
in the calling process.  The workers inherit work, read by the task
functions through work(), so only task arguments and results cross between
processes.  multiprocessing and concurrent.futures are imported inside the
call, so importing this module loads neither.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable

from .errors import WorkerLost

__all__ = ["run", "work"]

# The work of the running call and its side task; set by run for the
# duration of one call, and inherited by its forked workers.
_WORK = None
_SIDE: Callable | None = None


def work():
    """The work given to the running call, in the caller and in a worker."""
    return _WORK


def _side():
    return _SIDE()


def _workers() -> int:
    """Usable cores: the size of this process's CPU affinity set."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def run(work, side=None):
    """(map, side_result): map(fn, tasks) yields fn(task) of every task,
    sent one task per message, in task order, with work as the state work()
    returns, and side_result() returns side(), run first as one more task
    when side is given (None if not).

    map yields each result as it is taken, so the caller holds only the
    results that have finished but were not yet taken.  One forked worker
    per usable core runs the tasks when there are two or more, the platform
    can fork and this process runs no other thread (a lock another thread
    holds at the fork stays held in the worker); otherwise they run in this
    process, side first.  A call that raises cancels the tasks not yet
    handed to a worker.  A worker that dies (a signal, the OOM killer)
    raises WorkerLost here instead of leaving the call waiting for it; the
    error is also the pool's own BrokenProcessPool.
    """
    global _WORK, _SIDE
    _WORK, _SIDE = work, side
    try:
        workers = _workers()
        if workers > 1:
            import multiprocessing
            import threading
            if ("fork" in multiprocessing.get_all_start_methods()
                    and threading.active_count() == 1):
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool

                def lost(exc):
                    kind = type("WorkerLost", (WorkerLost, BrokenProcessPool), {})
                    return kind(f"a pool worker process died: {exc}")

                def results(fn, tasks):
                    try:
                        yield from pool.map(fn, tasks)
                    except BrokenProcessPool as exc:
                        raise lost(exc) from exc

                def side_result():
                    try:
                        return None if pending is None else pending.result()
                    except BrokenProcessPool as exc:
                        raise lost(exc) from exc

                with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                    pending = None if side is None else pool.submit(_side)
                    try:
                        yield results, side_result
                    except BaseException:
                        pool.shutdown(wait=True, cancel_futures=True)
                        raise
                    return
        value = None if side is None else side()
        yield map, lambda: value
    finally:
        _WORK = _SIDE = None
