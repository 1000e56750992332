"""Process-pool execution fabric for experiment cells.

The sweeps in :mod:`repro.bench` are embarrassingly parallel: each cell is
a closed simulation determined entirely by its :class:`CellSpec`, so cells
can run on any core, in any order, and the merged sweep is byte-identical
to a serial run.  This is the shard-and-merge shape the paper itself
exploits at the systems level (QPipe saturates every core in Figure 10
while a serial harness uses exactly one).

Guarantees:

* **Determinism** -- results are merged *by cell key in submission order*,
  and every cell derives its own RNG streams from its spec (see
  :mod:`repro.parallel.cells`), so ``jobs=N`` output equals ``jobs=1``
  output byte for byte.
* **Exact serial fallback** -- ``jobs=1`` calls the same cell function
  in-process, no pool, no pickling.
* **Robustness** -- a cell that raises in a worker (or takes the whole
  pool down) is re-run serially in the parent, once; a second failure is
  reported as a structured :class:`CellFailure`.  A per-cell ``timeout``
  surfaces a stuck cell as a ``"timeout"`` failure instead of hanging the
  sweep; stuck worker processes are killed on shutdown.
* **Ordered progress** -- results are *collected* in submission order, so
  progress lines are deterministic even though completion order is not.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.parallel.cells import CellResult, CellSpec, execute_cell

__all__ = [
    "CellFailure",
    "ParallelRunner",
    "SweepError",
    "SweepOutcome",
    "resolve_jobs",
    "run_cells",
]

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: int | None = None) -> int:
    """Explicit ``jobs`` argument > ``REPRO_JOBS`` env > 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"{JOBS_ENV}={raw!r} is not an integer")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass
class CellFailure:
    """A cell that produced no result: structured, never a hang."""

    key: str
    kind: str  # "timeout" | "error"
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return f"[{self.kind}] {self.key}: {self.message}"


class SweepError(RuntimeError):
    """Raised when a sweep has failed cells and the caller asked to raise."""

    def __init__(self, failures: Sequence[CellFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  - {f}" for f in self.failures)
        super().__init__(f"{len(self.failures)} cell(s) failed:\n{lines}")


@dataclass
class SweepOutcome:
    """Merged results of one sweep, keyed and ordered by submission."""

    results: dict[str, Any]  # key -> fn(item) return value, submission order
    failures: list[CellFailure] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0

    def cell(self, key: str) -> Any:
        """The *measurement* of one cell (unwraps :class:`CellResult`)."""
        out = self.results[key]
        return out.result if isinstance(out, CellResult) else out

    def timings(self) -> dict[str, Any]:
        """Host-side attribution for export: per-cell wall clock + worker."""
        cells = {
            key: out.attribution()
            for key, out in self.results.items()
            if isinstance(out, CellResult)
        }
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 4),
            "cells": cells,
        }


def _item_key(item: Any) -> str:
    return item.key if hasattr(item, "key") else str(item)


class ParallelRunner:
    """Runs picklable work items across a process pool and merges their
    results deterministically (see module docstring for the contract).

    ``fn`` must be a module-level function (pickled by reference); items
    must be picklable.  ``timeout`` bounds the wall-clock wait for each
    cell's result -- queue time included -- once collection reaches it."""

    def __init__(
        self,
        jobs: int | None = None,
        timeout: float | None = None,
        progress: Callable[[str], None] | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.timeout = timeout
        self.progress = progress

    def _report(self, i: int, total: int, key: str, note: str) -> None:
        if self.progress is not None:
            self.progress(f"[{i + 1}/{total}] {key}: {note}")

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        key_of: Callable[[Any], str] = _item_key,
    ) -> SweepOutcome:
        keys = [key_of(item) for item in items]
        dupes = {k for k in keys if keys.count(k) > 1}
        if dupes:
            raise ValueError(f"duplicate cell keys: {sorted(dupes)}")
        t0 = time.perf_counter()
        if self.jobs == 1 or len(items) <= 1:
            outcome = self._run_serial(fn, items, keys)
        else:
            outcome = self._run_pool(fn, items, keys)
        outcome.wall_s = time.perf_counter() - t0
        return outcome

    # -- serial ------------------------------------------------------------

    def _run_serial(self, fn, items, keys) -> SweepOutcome:
        outcome = SweepOutcome(results={}, jobs=1)
        for i, (key, item) in enumerate(zip(keys, items)):
            try:
                out = fn(item)
            except Exception:
                outcome.failures.append(
                    CellFailure(key, "error", traceback.format_exc(limit=8))
                )
                self._report(i, len(items), key, "FAILED")
                continue
            outcome.results[key] = out
            self._report(i, len(items), key, _describe(out))
        return outcome

    # -- process pool ------------------------------------------------------

    def _run_pool(self, fn, items, keys) -> SweepOutcome:
        jobs = min(self.jobs, len(items))
        _prewarm_datasets(items)
        pool = ProcessPoolExecutor(max_workers=jobs)
        outcome = SweepOutcome(results={}, jobs=jobs)
        stuck = False
        try:
            futures = [pool.submit(fn, item) for item in items]
            for i, (key, item, future) in enumerate(zip(keys, items, futures)):
                try:
                    out = future.result(timeout=self.timeout)
                except FutureTimeout:
                    if future.cancel():
                        # Never started (starved behind a stuck cell): the
                        # cell itself is not implicated -- run it here.
                        out, failure = self._retry_serial(fn, key, item, "starved in queue")
                    else:
                        out, failure = None, CellFailure(
                            key,
                            "timeout",
                            f"no result within {self.timeout:g}s (cell still running; worker will be killed)",
                        )
                        stuck = True
                except BrokenProcessPool:
                    # The worker died mid-cell (hard crash); every cell it
                    # held is lost.  Re-run this one serially, once.
                    out, failure = self._retry_serial(fn, key, item, "worker crashed")
                except Exception:
                    # The cell raised in the worker: retry serially once so
                    # a transient/worker-only failure doesn't cost the sweep.
                    # Keep the worker-side traceback: if the retry *also*
                    # fails, the report must show both failures -- they can
                    # differ (e.g. worker-only state), and the original is
                    # usually the one that matters.
                    out, failure = self._retry_serial(
                        fn, key, item, "raised in worker",
                        original=traceback.format_exc(limit=8),
                    )
                else:
                    outcome.results[key] = out
                    self._report(i, len(items), key, _describe(out))
                    continue
                if out is not None:
                    outcome.results[key] = out
                    self._report(i, len(items), key, _describe(out) + " (serial retry)")
                else:
                    outcome.failures.append(failure)
                    self._report(i, len(items), key, f"FAILED ({failure.kind})")
        finally:
            if stuck:
                _hard_shutdown(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        return outcome

    def _retry_serial(self, fn, key, item, why, original: str | None = None):
        try:
            out = fn(item)
        except Exception:
            message = f"{why}; serial retry failed:\n{traceback.format_exc(limit=8)}"
            if original is not None:
                message = (
                    f"{why}:\n{original}"
                    f"serial retry also failed:\n{traceback.format_exc(limit=8)}"
                )
            return None, CellFailure(key, "error", message)
        if isinstance(out, CellResult):
            out.retried = True
        return out, None


def _describe(out: Any) -> str:
    if isinstance(out, CellResult):
        return f"ok ({out.wall_s:.2f}s, worker {out.worker})"
    return "ok"


def _prewarm_datasets(items: Sequence[Any]) -> None:
    """Under the fork start method, generating each distinct dataset once
    in the parent lets every worker inherit it copy-on-write instead of
    regenerating it per process.  Under spawn/forkserver this would be
    wasted work, so it is skipped (workers memoize per process instead)."""
    if multiprocessing.get_start_method() != "fork":
        return
    seen = set()
    for item in items:
        dataset = getattr(item, "dataset", None)
        if dataset is not None and dataset not in seen:
            seen.add(dataset)
            dataset.generate()


def _hard_shutdown(pool: ProcessPoolExecutor) -> None:
    """Kill workers still holding timed-out cells; a stuck cell must not
    turn into a stuck sweep (or a stuck interpreter exit)."""
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int | None = None,
    timeout: float | None = None,
    progress: Callable[[str], None] | None = None,
    raise_on_failure: bool = True,
) -> SweepOutcome:
    """Execute experiment cells (serially or across a pool) and merge by
    key.  The standard entry point for every sweep in :mod:`repro.bench`:
    raising on failure keeps a lost cell from silently truncating a
    figure."""
    runner = ParallelRunner(jobs=jobs, timeout=timeout, progress=progress)
    outcome = runner.map(execute_cell, specs)
    if raise_on_failure and outcome.failures:
        raise SweepError(outcome.failures)
    return outcome
