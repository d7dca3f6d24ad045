"""Deterministic chunking of a replication budget.

The contract that makes parallel simulation trustworthy is: *the chunk plan
depends only on the request, never on the execution resources*.  A budget of
``num_runs`` replications is always cut into the same chunk sizes, and chunk
``i`` always receives the ``i``-th child of ``numpy.random.SeedSequence(seed)``
-- whether the chunks then execute in-process, on 2 workers or on 32.
Re-assembling the per-chunk samples in chunk order therefore reproduces the
exact same sample sequence on any backend, which is what the regression test
``tests/test_runtime.py::TestBackendEquivalence`` pins down.

``SeedSequence.spawn`` gives statistically independent streams (each child
mixes a distinct ``spawn_key`` into the entropy pool), so chunks never share
or overlap random numbers -- the classic hazard of naive ``seed + i``
schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro._validation import check_positive_int

__all__ = ["ChunkPlan", "plan_chunks", "spawn_chunk_seeds", "DEFAULT_CHUNK_SIZE"]

#: Default number of replications per chunk.  Large enough that the per-chunk
#: dispatch overhead (pickling the work description, one IPC round-trip) is
#: amortised over many simulated runs, small enough that a typical budget of a
#: few thousand runs still fans out over every worker of a pool.
DEFAULT_CHUNK_SIZE = 250


@dataclass(frozen=True)
class ChunkPlan:
    """How a replication budget is split into independently-seeded chunks.

    Attributes
    ----------
    num_runs:
        Total replication budget; always equals ``sum(sizes)``.
    sizes:
        Chunk sizes in execution order.  All chunks have ``chunk_size`` runs
        except possibly the last.
    chunk_size:
        The nominal chunk size the plan was built with (part of cache keys:
        changing it changes the per-chunk RNG streams and hence the samples).
    """

    num_runs: int
    sizes: Tuple[int, ...]
    chunk_size: int

    @property
    def num_chunks(self) -> int:
        return len(self.sizes)

    def seeds(self, seed: Optional[int]) -> List[np.random.SeedSequence]:
        """One independent :class:`~numpy.random.SeedSequence` per chunk."""
        return spawn_chunk_seeds(seed, self.num_chunks)


def plan_chunks(num_runs: int, chunk_size: Optional[int] = None) -> ChunkPlan:
    """Split ``num_runs`` replications into worker-sized chunks.

    The plan is a pure function of ``(num_runs, chunk_size)``; in particular
    it does **not** look at the worker count, so the same request produces the
    same chunks (and the same per-chunk seeds) on every backend.
    """
    check_positive_int("num_runs", num_runs)
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    check_positive_int("chunk_size", chunk_size)
    full, remainder = divmod(num_runs, chunk_size)
    sizes = [chunk_size] * full
    if remainder:
        sizes.append(remainder)
    return ChunkPlan(num_runs=num_runs, sizes=tuple(sizes), chunk_size=chunk_size)


def spawn_chunk_seeds(seed: Optional[int], num_chunks: int) -> List[np.random.SeedSequence]:
    """Spawn ``num_chunks`` independent seed sequences from a root seed.

    ``seed`` may be ``None`` (fresh OS entropy -- not reproducible, but the
    streams are still independent), an int, or an existing ``SeedSequence``
    whose children are reused deterministically: child ``i`` is built as
    ``SeedSequence.spawn`` builds it on a fresh root, but the root's spawn
    counter never advances, so the same ``SeedSequence`` passed twice yields
    the same streams.
    """
    check_positive_int("num_chunks", num_chunks)
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (index,), pool_size=root.pool_size
        )
        for index in range(num_chunks)
    ]
