"""Runtime lock-order checking for the threaded service/observability modules.

The static rules in :mod:`repro.devtools.rules` keep lock *usage* disciplined
(``with`` blocks, no stray ``acquire()``); this module checks the property no
static analysis can see: that the *order* in which different locks nest is
consistent across every thread.  Two threads that nest the same pair of locks
in opposite orders can deadlock -- rarely in tests, reliably in production.

:class:`LockOrderWatchdog` wraps locks in a thin proxy that records, per
thread, the stack of tracked locks currently held.  Whenever lock ``B`` is
acquired while ``A`` is held, the directed edge ``A -> B`` enters a global
ordering graph; an acquisition that would close a cycle in that graph is an
*inversion* and is recorded (or raised immediately with
``raise_on_inversion=True``).

The watchdog is off by default and costs nothing when off:
:func:`tracked_lock` -- the construction seam used by
``service/jobs.py``, ``service/gateway.py``, ``service/snapshot.py``,
``service/queue.py``, ``obs/metrics.py`` and ``obs/flight.py`` -- returns a raw
``threading.Lock`` unless a watchdog is active.  Activation happens either
through the ``REPRO_LOCK_WATCHDOG=1`` environment variable (checked lazily,
so worker processes inherit it) or programmatically via
:func:`install_watchdog` (what the pytest fixture in ``tests/conftest.py``
does around the service suites).

Example::

    >>> import threading
    >>> watchdog = LockOrderWatchdog()
    >>> a = watchdog.wrap(threading.Lock(), "A")
    >>> b = watchdog.wrap(threading.Lock(), "B")
    >>> with a:
    ...     with b:          # records A -> B
    ...         pass
    >>> watchdog.inversions()
    []
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = [
    "ENV_VAR",
    "LockOrderError",
    "LockOrderWatchdog",
    "active_watchdog",
    "install_watchdog",
    "tracked_condition",
    "tracked_lock",
]

#: Environment variable that activates the process-global watchdog.
ENV_VAR = "REPRO_LOCK_WATCHDOG"


class LockOrderError(RuntimeError):
    """A lock acquisition closed a cycle in the observed lock-order graph."""


class _TrackedLock:
    """Proxy around a ``threading.Lock``/``RLock`` that reports to a watchdog.

    Implements the full lock protocol plus the private hooks
    (``_is_owned``/``_release_save``/``_acquire_restore``) that
    ``threading.Condition`` relies on, so a wrapped ``RLock`` can back a
    condition variable transparently.
    """

    __slots__ = ("_inner", "_name", "_watchdog")

    def __init__(self, inner: Any, name: str, watchdog: "LockOrderWatchdog") -> None:
        self._inner = inner
        self._name = name
        self._watchdog = watchdog

    @property
    def name(self) -> str:
        return self._name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._watchdog._note_acquired(self._name)
        return got

    def release(self) -> None:
        self._watchdog._note_released(self._name)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> bool:
        self.release()
        return False

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if callable(probe) else False

    # -- threading.Condition support -----------------------------------
    def _is_owned(self) -> bool:
        probe = getattr(self._inner, "_is_owned", None)
        if callable(probe):
            return probe()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _release_save(self) -> Any:
        # Condition.wait releases *all* recursion levels at once.
        self._watchdog._note_released_fully(self._name)
        saver = getattr(self._inner, "_release_save", None)
        if callable(saver):
            return saver()
        self._inner.release()
        return None

    def _acquire_restore(self, state: Any) -> None:
        restorer = getattr(self._inner, "_acquire_restore", None)
        if callable(restorer):
            restorer(state)
        else:
            self._inner.acquire()
        self._watchdog._note_acquired(self._name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TrackedLock({self._name!r}, {self._inner!r})"


class LockOrderWatchdog:
    """Records cross-thread lock-acquisition orderings and flags inversions.

    The graph is keyed by lock *name* (the label passed to :meth:`wrap` /
    :func:`tracked_lock`), so every instance constructed at the same call
    site shares a node -- exactly the granularity deadlock reasoning needs.
    Reentrant re-acquisition of the same name never records a self edge.
    """

    def __init__(self, *, raise_on_inversion: bool = False) -> None:
        self.raise_on_inversion = raise_on_inversion
        self._mutex = threading.Lock()
        self._local = threading.local()
        self._edges: Dict[str, Set[str]] = {}
        self._edge_threads: Dict[Tuple[str, str], str] = {}
        self._inversions: List[Dict[str, Any]] = []
        self._reported: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap(self, lock: Any, name: str) -> _TrackedLock:
        """Wrap ``lock`` so its acquisitions are tracked under ``name``."""
        return _TrackedLock(lock, name, self)

    # ------------------------------------------------------------------
    # Per-thread bookkeeping (called from _TrackedLock)
    # ------------------------------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note_acquired(self, name: str) -> None:
        stack = self._stack()
        inversion: Optional[Dict[str, Any]] = None
        if stack and name not in stack:
            holding = list(dict.fromkeys(stack))
            thread = threading.current_thread().name
            with self._mutex:
                for held in holding:
                    edge = (held, name)
                    self._edges.setdefault(held, set()).add(name)
                    self._edge_threads.setdefault(edge, thread)
                    path = self._find_path(name, held)
                    if path is not None and edge not in self._reported:
                        self._reported.add(edge)
                        # `path` runs name -> ... -> held; dropping its last
                        # node keeps the cycle as distinct nodes (the
                        # formatter closes it back to the first).
                        cycle = [held] + path[:-1]
                        inversion = {
                            "held": held,
                            "acquiring": name,
                            "cycle": cycle,
                            "thread": thread,
                            "reverse_thread": self._edge_threads.get((name, held)),
                        }
                        self._inversions.append(inversion)
        stack.append(name)
        if inversion is not None and self.raise_on_inversion:
            raise LockOrderError(self._format_inversion(inversion))

    def _note_released(self, name: str) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                break

    def _note_released_fully(self, name: str) -> None:
        stack = self._stack()
        self._local.stack = [held for held in stack if held != name]

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """BFS over the ordering graph; caller holds ``self._mutex``."""
        if start == goal:
            return [start]
        parents: Dict[str, str] = {}
        frontier = [start]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for succ in self._edges.get(node, ()):
                    if succ in parents or succ == start:
                        continue
                    parents[succ] = node
                    if succ == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    nxt.append(succ)
            frontier = nxt
        return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def edges(self) -> Dict[str, Set[str]]:
        """A snapshot of the observed ordering graph (``A -> {B, ...}``)."""
        with self._mutex:
            return {node: set(successors) for node, successors in self._edges.items()}

    def inversions(self) -> List[Dict[str, Any]]:
        """Every recorded inversion (one entry per offending ordered pair)."""
        with self._mutex:
            return [dict(entry) for entry in self._inversions]

    @staticmethod
    def _format_inversion(entry: Dict[str, Any]) -> str:
        cycle = " -> ".join(entry["cycle"] + [entry["cycle"][0]])
        reverse = entry.get("reverse_thread")
        seen = f" (reverse order first seen on thread {reverse!r})" if reverse else ""
        return (
            f"lock-order inversion: thread {entry['thread']!r} acquired "
            f"{entry['acquiring']!r} while holding {entry['held']!r}, closing "
            f"the cycle {cycle}{seen}"
        )

    def format_report(self) -> str:
        """Human-readable multi-line report of every inversion."""
        entries = self.inversions()
        if not entries:
            return "no lock-order inversions recorded"
        return "\n".join(self._format_inversion(entry) for entry in entries)

    def assert_clean(self) -> None:
        """Raise :class:`LockOrderError` if any inversion was recorded."""
        if self.inversions():
            raise LockOrderError(self.format_report())


# ----------------------------------------------------------------------
# Process-global activation (env var / pytest fixture)
# ----------------------------------------------------------------------

_active: Optional[LockOrderWatchdog] = None
_active_guard = threading.Lock()


def active_watchdog() -> Optional[LockOrderWatchdog]:
    """The installed watchdog, creating one lazily when ``ENV_VAR`` is set."""
    global _active
    if _active is None and os.environ.get(ENV_VAR, "") not in ("", "0"):
        with _active_guard:
            if _active is None:
                _active = LockOrderWatchdog()
    return _active


def install_watchdog(
    watchdog: Optional[LockOrderWatchdog],
) -> Optional[LockOrderWatchdog]:
    """Install (or, with ``None``, clear) the global watchdog; returns the previous one.

    Locks constructed through :func:`tracked_lock` *after* this call report
    to ``watchdog``; locks wrapped earlier keep reporting to whichever
    watchdog wrapped them.
    """
    global _active
    with _active_guard:
        previous, _active = _active, watchdog
        return previous


def tracked_lock(name: str, factory: Callable[[], Any] = threading.Lock) -> Any:
    """A lock from ``factory``, wrapped for order tracking when a watchdog is active.

    This is the construction seam the threaded modules use in place of a bare
    ``threading.Lock()`` / ``threading.RLock()``.  With no watchdog active
    (the production default) the raw lock is returned -- zero overhead.
    """
    watchdog = active_watchdog()
    lock = factory()
    return watchdog.wrap(lock, name) if watchdog is not None else lock


def tracked_condition(name: str) -> threading.Condition:
    """A condition variable whose underlying RLock is order-tracked."""
    watchdog = active_watchdog()
    if watchdog is None:
        return threading.Condition()
    return threading.Condition(watchdog.wrap(threading.RLock(), name))
