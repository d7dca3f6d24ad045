"""Execution backends: where independent simulation chunks run.

An :class:`ExecutionBackend` maps a picklable worker function over a list of
picklable work items and returns the results *in input order*.  That ordered
contract is what lets the callers re-assemble per-chunk samples
deterministically (see :mod:`repro.runtime.chunking`): the backend choice can
change wall-clock time but never the numbers.

Two backends are provided:

* :class:`SerialBackend` -- a plain in-process loop; zero overhead, always
  available, the default everywhere;
* :class:`ProcessPoolBackend` -- a :class:`concurrent.futures.ProcessPoolExecutor`
  fan-out, the single-host ancestor of the sharded/multi-host execution the
  ROADMAP aims at.  Worker functions and items must be picklable (module-level
  functions, dataclasses, numpy objects); closures and lambdas are not.

A backend only decides *where* chunks run.  *How* each chunk executes -- the
Python event loop or a NumPy array program (:mod:`repro.simulation.vectorized`)
-- is the separate ``engine=`` argument of the simulation callers, so
parallelism and vectorization are orthogonal levers that multiply.

:func:`resolve_backend` turns the user-facing spellings (``None``, a worker
count, ``"serial"``, ``"processes"``, or an existing backend) into a backend
instance, which is how the CLI's ``--parallel N`` flag reaches the library;
:func:`resolve_engine` normalises the ``--engine`` choice.
"""

from __future__ import annotations

import contextlib
import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterator, List, Optional, Sequence, Union

from repro._validation import check_positive_int

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "resolve_engine",
    "backend_scope",
]

#: The engines a simulation chunk can execute on.  "scalar" is the Python
#: event-loop executor; "vectorized" the NumPy array program.
ENGINES = ("scalar", "vectorized")


class ExecutionBackend(ABC):
    """Maps a worker function over independent work items, preserving order."""

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item and return the results in input order."""

    def imap(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        """Lazily apply ``fn``, yielding results in input order as they finish.

        Same ordered contract as :meth:`map`, but the caller observes each
        result as soon as it (and every earlier one) is available -- which is
        what lets long campaigns report progress per task (see
        :meth:`~repro.simulation.campaign.CampaignRunner.run`).  The base
        implementation simply materialises :meth:`map`; concrete backends
        override it to stream.
        """
        return iter(self.map(fn, items))

    def close(self) -> None:
        """Release any resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def num_workers(self) -> int:
        """Degree of parallelism this backend provides (1 for serial)."""
        return 1


class SerialBackend(ExecutionBackend):
    """Run every chunk in the calling process, one after the other."""

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        return [fn(item) for item in items]

    def imap(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        for item in items:
            yield fn(item)

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend(ExecutionBackend):
    """Fan chunks out to a pool of worker processes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g.
        ``multiprocessing.get_context("spawn")``) for platforms where the
        default start method misbehaves with the embedding application.

    The executor is created lazily on first use and kept alive across
    :meth:`map` calls, so the process start-up cost is paid once per campaign
    rather than once per chunk.  Use as a context manager (or call
    :meth:`close`) to shut the workers down promptly.
    """

    def __init__(self, max_workers: Optional[int] = None, *, mp_context=None) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        self.max_workers = check_positive_int("max_workers", max_workers)
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def num_workers(self) -> int:
        return self.max_workers

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=self._mp_context
            )
        return self._executor

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        items = list(items)
        if not items:
            return []
        # executor.map yields results in input order; chunksize=1 because the
        # items are already coarse chunks of replications.
        return list(self._ensure_executor().map(fn, items, chunksize=1))

    def imap(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> Iterator[Any]:
        items = list(items)
        if not items:
            return iter(())
        # The executor.map iterator is lazy: result i is yielded as soon as
        # items 0..i have completed, while later items keep computing.
        return self._ensure_executor().map(fn, items, chunksize=1)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(max_workers={self.max_workers})"


def resolve_engine(engine: Optional[str]) -> str:
    """Normalise an engine choice.

    ``engine`` may be ``None`` (the default, ``"scalar"``), ``"scalar"`` or
    ``"vectorized"`` in any case.  Anything else raises a :exc:`ValueError`
    naming the valid choices, so CLI and API misuse produce a readable
    message instead of a traceback deep in the simulator.
    """
    if engine is None:
        return "scalar"
    if not isinstance(engine, str):
        raise TypeError(
            f"engine must be a string or None, got {type(engine).__name__!r}"
        )
    name = engine.strip().lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return name


def resolve_backend(
    spec: Union[None, int, str, ExecutionBackend],
) -> ExecutionBackend:
    """Turn a user-facing backend specification into a backend instance.

    * ``None``, ``"serial"``, ``0`` or ``1`` -- :class:`SerialBackend`;
    * an int ``n > 1`` -- :class:`ProcessPoolBackend` with ``n`` workers;
    * ``"processes"`` -- :class:`ProcessPoolBackend` sized to the machine;
    * an existing :class:`ExecutionBackend` -- returned unchanged.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, bool):
        raise TypeError("backend spec must not be a bool; pass a worker count")
    if isinstance(spec, int):
        if spec < 0:
            raise ValueError(f"worker count must be >= 0, got {spec}")
        return ProcessPoolBackend(spec) if spec > 1 else SerialBackend()
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialBackend()
        if name in ("processes", "process", "pool"):
            return ProcessPoolBackend()
        raise ValueError(
            f"unknown backend {spec!r}; expected 'serial', 'processes', "
            "a worker count, or an ExecutionBackend instance"
        )
    raise TypeError(f"cannot build a backend from {type(spec).__name__!r}")


@contextlib.contextmanager
def backend_scope(
    spec: Union[None, int, str, ExecutionBackend],
) -> Iterator[ExecutionBackend]:
    """Resolve a backend spec for the duration of one operation.

    A backend *instance* passed in is used as-is and left open (the caller
    owns its lifetime -- that is how a pool is reused across calls).  A spec
    that had to be materialised here (a worker count, ``"processes"``) is
    closed on exit, so library calls like ``estimate(..., backend=4)`` never
    leak worker processes.
    """
    backend = resolve_backend(spec)
    owned = backend is not spec
    try:
        yield backend
    finally:
        if owned:
            backend.close()
