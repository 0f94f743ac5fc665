"""Supervised process pools: detect dead workers, retry with backoff.

Every parallel layer of the repository (Session trials and the Study
work queue) used to submit work to a bare
``ProcessPoolExecutor``: one OOM-killed or segfaulted worker poisoned the
pool and the whole run died with ``BrokenProcessPool``; a *hung* worker
was even worse — ``future.result()`` blocked forever.

:class:`PoolSupervisor` wraps the executor with a retry loop:

* a broken pool (dead worker) or a missed deadline kills and rebuilds the
  pool, then resubmits exactly the unfinished tasks;
* retries back off exponentially (capped), and give up with
  :class:`WorkerPoolError` after ``max_retries`` rounds;
* ordinary exceptions raised *by the task function* still propagate
  immediately — the supervisor only retries infrastructure failures.

Because every task in this repository is a pure function of its arguments
(work units re-derive their RNG streams from seeds), a retried task
returns byte-identical results, so supervision never perturbs outputs.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class WorkerPoolError(RuntimeError):
    """A task kept losing its worker after the configured retries."""


class PoolSupervisor:
    """A retrying wrapper around one :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    max_workers:
        Pool size.
    max_retries:
        How many recovery rounds a single task may survive before the
        supervisor gives up.
    backoff_s / backoff_cap_s:
        Capped exponential delay between recovery rounds
        (``min(backoff_s * 2**(round-1), backoff_cap_s)``).
    timeout_s:
        Optional *progress* deadline: if no task completes for this many
        seconds the outstanding workers are presumed hung, killed, and the
        unfinished tasks retried.  ``None`` disables the deadline.
    sleep:
        Injection point for tests (defaults to :func:`time.sleep`).
    """

    def __init__(
        self,
        max_workers: int,
        *,
        max_retries: int = 3,
        backoff_s: float = 0.25,
        backoff_cap_s: float = 4.0,
        timeout_s: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.max_workers = int(max_workers)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.timeout_s = timeout_s
        self._sleep = sleep
        self._pool: Optional[ProcessPoolExecutor] = None
        self._recoveries = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def recoveries(self) -> int:
        """Number of recovery rounds (pool rebuilds) performed so far."""
        return self._recoveries

    def __enter__(self) -> "PoolSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Shut the pool down (if one is alive)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting, terminating live workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # ``_processes`` is CPython-internal; guard with getattr so an
        # implementation without it degrades to plain shutdown.
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            if process.is_alive():
                process.terminate()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, fn: Callable, tasks: Sequence[Tuple]) -> List[object]:
        """Run ``fn(*task)`` for every task; results in task order."""
        results: Dict[int, object] = {}
        for index, result in self.run_unordered(fn, tasks):
            results[index] = result
        return [results[index] for index in range(len(results))]

    def run_unordered(
        self, fn: Callable, tasks: Sequence[Tuple]
    ) -> Iterator[Tuple[int, object]]:
        """Yield ``(task_index, result)`` as tasks complete, surviving
        worker deaths and (when ``timeout_s`` is set) hangs."""
        pending: Dict[int, Tuple] = {
            index: tuple(task) for index, task in enumerate(tasks)
        }
        attempts: Dict[int, int] = {index: 0 for index in pending}
        while pending:
            pool = self._ensure_pool()
            future_map = {
                pool.submit(fn, *pending[index]): index
                for index in sorted(pending)
            }
            broken = False
            outstanding = set(future_map)
            while outstanding:
                done, outstanding = wait(
                    outstanding, timeout=self.timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Progress deadline missed: the remaining workers are
                    # presumed hung.  Fall into the recovery path.
                    broken = True
                    break
                for future in done:
                    index = future_map[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    pending.pop(index)
                    yield index, result
                if broken:
                    break
            if broken and pending:
                self._recover(pending, attempts)
            elif broken:
                # Every task actually finished; just replace the dead pool.
                self._kill_pool()

    def _recover(self, pending: Dict[int, Tuple], attempts: Dict[int, int]) -> None:
        """Kill the pool, account a retry round, back off (or give up)."""
        self._kill_pool()
        round_number = 0
        for index in pending:
            attempts[index] += 1
            round_number = max(round_number, attempts[index])
        exhausted = sorted(
            index for index in pending if attempts[index] > self.max_retries
        )
        if exhausted:
            raise WorkerPoolError(
                f"task(s) {exhausted} lost their worker "
                f"{self.max_retries + 1} times; giving up"
            )
        self._recoveries += 1
        delay = min(self.backoff_s * (2.0 ** (round_number - 1)), self.backoff_cap_s)
        if delay > 0:
            self._sleep(delay)
