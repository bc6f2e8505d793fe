"""One process pool per call, shared by the multiplier classes, the
determinant scan and the `verify` fuzz.

run(work) is the one pool and yields one thing, map(fn, tasks): one forked
worker per usable core (the CPU affinity set of the process) when there are
two or more, the platform can fork and the process runs no other thread;
otherwise the same tasks run in the calling process.  The workers inherit
work, read by the task functions through work(), so only task arguments and
results cross between processes.  multiprocessing and concurrent.futures
are imported inside the call, so importing this module loads neither.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import WorkerLost

__all__ = ["run", "work"]

# The work of the running call; set by run for the duration of one call,
# and inherited by its forked workers.
_WORK = None


def work():
    """The work given to the running call, in the caller and in a worker."""
    return _WORK


def _workers() -> int:
    """Usable cores: the size of this process's CPU affinity set."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def run(work):
    """map: map(fn, tasks) yields fn(task) of every task, sent one task per
    message, in task order, with work as the state work() returns.

    One forked worker per usable core runs the tasks when there are two or
    more, the platform can fork and this process runs no other thread (a
    lock another thread holds at the fork stays held in the worker).  There
    a map hands all its tasks to the workers when it is called, so a map
    called first runs first, and yields each result as it is taken, so the
    caller holds only the results that have finished but were not yet
    taken.  Otherwise each map runs in this process as it is taken.  A call
    that raises cancels the tasks not yet handed to a worker.  A worker that
    dies (a signal, the OOM killer) raises WorkerLost here instead of
    leaving the call waiting for it; the error is also the pool's own
    BrokenProcessPool.
    """
    global _WORK
    _WORK = work
    try:
        workers = _workers()
        if workers > 1:
            import multiprocessing
            import threading
            if ("fork" in multiprocessing.get_all_start_methods()
                    and threading.active_count() == 1):
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool

                with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
                    try:
                        yield pool.map
                    except BaseException as exc:
                        pool.shutdown(wait=True, cancel_futures=True)
                        if isinstance(exc, BrokenProcessPool):
                            kind = type("WorkerLost", (WorkerLost, BrokenProcessPool), {})
                            raise kind(f"a pool worker process died: {exc}") from exc
                        raise
                    return
        yield map
    finally:
        _WORK = None
