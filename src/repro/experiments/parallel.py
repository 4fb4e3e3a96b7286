"""Process-pool fan-out with a serial fallback.

Experiment sweep cells (one ``(dataset, run-label)`` pair each) are
independent and CPU-bound, so they parallelize across processes with no
shared state.  Two primitives are offered:

* :class:`SweepPool` — a reusable executor wrapper.  Worker processes
  are spawned once and survive across :meth:`SweepPool.map` calls, so a
  CLI invocation that renders several tables pays process start-up (and
  interpreter/import warm-up) once instead of per sweep, and per-process
  memo caches stay warm between sweeps.
* :func:`process_map` — the one-shot form, now a thin wrapper creating
  a :class:`SweepPool` for a single map.  It behaves exactly like
  ``[fn(item) for item in items]`` — same results, same ordering, same
  exceptions.

Sandboxed or single-core environments silently fall back to the serial
loop, so callers never need to care which one ran.

Failure handling draws a hard line between two very different events:

* the *pool environment* failing (fork restrictions, resource limits, a
  worker process dying) — recoverable, so the computation retries
  serially with a warning;
* ``fn`` *itself* raising — the caller's error, re-raised as-is.  In
  particular an ``OSError`` raised inside ``fn`` must not masquerade as
  "process pool unavailable" and silently re-run every cell serially,
  duplicating side effects before surfacing the real error.  Worker
  calls are therefore wrapped so their exceptions come back as values
  and are re-raised at the call site.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_workers() -> int:
    """Worker count when the caller does not pin one.

    Prefers the process's CPU *affinity* mask over the raw core count:
    CI containers and ``taskset``-restricted jobs often see all host
    cores through ``os.cpu_count()`` while being allowed to run on a
    few, and oversubscribing those thrashes instead of speeding up.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # platforms without affinity
        return os.cpu_count() or 1


class _WorkerFailure:
    """An exception raised by ``fn`` inside a worker, shipped back as a
    value so it cannot be confused with a pool-environment failure."""

    __slots__ = ("exc",)

    def __init__(self, exc: Exception):
        self.exc = exc


class _ChunkedCall:
    """Picklable wrapper running ``fn`` over one chunk of the work list.

    Every item in the chunk is evaluated even after one fails — the
    failure travels back as a :class:`_WorkerFailure` value in its slot,
    keeping result positions aligned with submission order and matching
    the pool contract that ``fn``'s errors are re-raised at the call
    site after one full pass, never retried.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_T], _R]):
        self.fn = fn

    def __call__(self, chunk: Sequence[_T]) -> list:
        out: list = []
        for item in chunk:
            try:
                out.append(self.fn(item))
            except Exception as exc:
                out.append(_WorkerFailure(exc))
        return out


def _balanced_chunks(
    work: Sequence[_T], chunk_size: int | None, max_workers: int
) -> list[list[_T]]:
    """Split ``work`` into contiguous chunks whose sizes differ by ≤ 1.

    ``chunk_size`` is an upper bound that fixes the chunk *count*
    (``ceil(len(work) / chunk_size)``); the items are then spread
    evenly, so 12 items at ``chunk_size=5`` become ``[4, 4, 4]`` rather
    than ``[5, 5, 2]`` — no worker is left with a ragged tail chunk
    while the rest idle.  Without ``chunk_size`` the count targets four
    chunks per worker for latency smoothing.
    """
    n = len(work)
    if chunk_size:
        n_chunks = -(-n // int(chunk_size))  # ceil division
    else:
        n_chunks = min(n, max_workers * 4)
    base, extra = divmod(n, n_chunks)
    chunks: list[list[_T]] = []
    start = 0
    for idx in range(n_chunks):
        size = base + (1 if idx < extra else 0)
        chunks.append(list(work[start : start + size]))
        start += size
    return chunks


class SweepPool:
    """A reusable process pool shared across many sweep ``map`` calls.

    The underlying ``ProcessPoolExecutor`` is created lazily on the
    first :meth:`map` that actually needs it and *reused* by every
    later call until :meth:`close` (or the ``with`` block) tears it
    down — workers keep their warmed imports and per-process memo
    caches between sweeps.  Work is submitted in chunks so large cell
    lists don't pay per-item IPC.

    Failure semantics match :func:`process_map` exactly: a pool that
    cannot be created or dies for environmental reasons degrades to the
    serial loop with a warning (and stays serial — a broken environment
    does not heal mid-invocation), while exceptions raised by ``fn``
    itself come back as values and are re-raised at the call site,
    never retried, never mistaken for pool failure.

    Args:
        max_workers: pool size; ``None`` uses :func:`default_workers`.
            Values ``<= 1`` never touch multiprocessing.
        chunk_size: upper bound on items per worker submission; the
            work list is split into size-balanced chunks (differing by
            at most one item) so the final chunk is never a ragged
            tail.  ``None`` derives a chunk count from the work size
            and worker count per call.
    """

    def __init__(
        self, max_workers: int | None = None, chunk_size: int | None = None
    ):
        self.max_workers = (
            default_workers() if max_workers is None else int(max_workers)
        )
        self.chunk_size = chunk_size
        self._pool = None
        self._serial_fallback = False
        # One map at a time: the executor's lazy creation and
        # sticky-fallback state is not safe under interleaving, so
        # callers sharing a pool across threads serialize here (their
        # cells still fan out across the worker processes).
        self._map_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False)
            except Exception:  # a dead pool may fail its own teardown
                pass

    # -- execution -----------------------------------------------------
    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """``[fn(item) for item in items]`` over the persistent workers.

        Results come back in submission order; see the class docstring
        for the failure contract.  Safe to call from multiple threads
        (maps serialize on an internal lock).
        """
        work: Sequence[_T] = list(items)
        with self._map_lock:
            if self.max_workers <= 1 or len(work) <= 1 or self._serial_fallback:
                return [fn(item) for item in work]
            chunks = _balanced_chunks(work, self.chunk_size, self.max_workers)
            try:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
                nested = list(self._pool.map(_ChunkedCall(fn), chunks))
            except (BrokenProcessPool, OSError, PermissionError) as exc:
                warnings.warn(
                    f"process pool unavailable ({exc!r}); running serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._discard_pool()
                self._serial_fallback = True
                return [fn(item) for item in work]
        results: list = [item for chunk in nested for item in chunk]
        for result in results:
            if isinstance(result, _WorkerFailure):
                raise result.exc
        return results


def process_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    max_workers: int | None = None,
) -> list[_R]:
    """``[fn(item) for item in items]``, fanned out over processes.

    The one-shot form of :class:`SweepPool` — a pool is created for
    this call and torn down after it.  Callers issuing several maps in
    one invocation should hold a :class:`SweepPool` instead.

    Args:
        fn: a module-level (picklable) callable.
        items: the work list; results come back in the same order.
        max_workers: pool size; ``None`` uses :func:`default_workers`,
            and values ``<= 1`` (or a single-item work list) run serially
            without touching multiprocessing at all.

    Exceptions raised by ``fn`` propagate to the caller either way —
    from the pool they are re-raised here, never retried.  Only a pool
    that cannot be created or dies for environmental reasons (fork
    restrictions, resource limits, a killed worker) triggers a warning
    and a serial retry — the computation still completes.
    """
    work: Sequence[_T] = list(items)
    if max_workers is None:
        max_workers = default_workers()
    if max_workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    with SweepPool(max_workers=min(max_workers, len(work))) as pool:
        return pool.map(fn, work)
