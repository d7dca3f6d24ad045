"""The matrix local search of independent tasks equals its predecessor bit for bit.

:func:`repro.core.independent._local_search_vectorized` scores moves and
swaps from a task-indexed replacement-cost matrix.  The search it replaced
scored swaps one group pair at a time; it lives on here, verbatim, as
:func:`pair_block_search`, and the tests below demand the same partition
*and* the same value (``==``) from both: on seeded instances, on a
Hypothesis property that includes overflowing starts and tie-heavy integer
works, on the independent-task instances of perfbench's ``solver_mix``
ladder and on large instances.  Golden digests recorded with the pair-block
search pin the full heuristic on the ladder.
"""

import hashlib
import itertools
import json
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.expected_time import _MAX_EXPONENT, expected_completion_time
from repro.core.independent import (
    _local_search_vectorized,
    balanced_grouping,
    grouping_expected_time,
    schedule_independent_tasks,
)


def pair_block_search(
    groups: List[List[int]],
    works: Sequence[float],
    checkpoint_cost: float,
    recovery_cost: float,
    downtime: float,
    rate: float,
    initial_recovery: Optional[float],
    max_iterations: int,
) -> Tuple[List[List[int]], float]:
    """The pair-block search the matrix search replaced, kept as its oracle.

    Scores a round's moves from per-group blocks and its swaps one group
    pair at a time, caching each block until one of its groups changes.
    """

    works_arr = np.asarray(works, dtype=float)
    works_list = list(works)
    first_recovery = recovery_cost if initial_recovery is None else initial_recovery
    inv_plus_downtime = 1.0 / rate + downtime

    def evaluate(candidate: List[List[int]]) -> float:
        """Full re-evaluation of an accepted candidate, reference bits.

        Same accumulation loop as :func:`grouping_expected_time` (Python
        left-to-right sum of per-group :func:`expected_completion_time`
        values) minus the partition validation -- the search only produces
        valid partitions, and the instance parameters were validated by the
        initial :func:`grouping_expected_time` call below.
        """
        total = 0.0
        position = 0
        for group in candidate:
            if not group:
                continue
            group_work = sum(works_list[i] for i in group)
            recovery = first_recovery if position == 0 else recovery_cost
            total += expected_completion_time(
                group_work, checkpoint_cost, downtime, recovery, rate
            )
            position += 1
        return total

    def recovery_factor(recovery: float) -> float:
        # When lambda * R overflows the very first full evaluation below
        # raises OverflowError (same as the reference), so +inf never spreads.
        exponent = rate * recovery
        if exponent > _MAX_EXPONENT:
            return np.inf
        return float(np.exp(exponent)) * inv_plus_downtime

    factor_first = recovery_factor(first_recovery)
    factor_rest = recovery_factor(recovery_cost)

    def group_costs(new_works: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Proposition 1 cost of each candidate group, ``+inf`` on overflow."""
        exponents = rate * (new_works + checkpoint_cost)
        over = exponents > _MAX_EXPONENT
        if over.any():
            exponents = np.minimum(exponents, _MAX_EXPONENT)
        with np.errstate(over="ignore"):
            costs = factors * np.expm1(exponents)
        if over.any():
            costs = np.where(over, np.inf, costs)
        return costs

    current = [list(g) for g in groups]
    # The initial evaluation goes through the validating entry point so bad
    # instance parameters raise exactly as the reference search would.
    current_value = grouping_expected_time(
        [g for g in current if g],
        works,
        checkpoint_cost,
        recovery_cost,
        downtime,
        rate,
        initial_recovery=initial_recovery,
    )
    n = works_arr.size
    m = len(current)
    factors = np.full(m, factor_rest)
    factors[0] = factor_first

    # Per-group cache (group indices are stable: the group count never
    # changes mid-search).  ``dirty`` holds the groups whose columns must be
    # (re)built this round -- initially all of them.
    dirty = set(range(m))
    group_works = np.empty(m)
    e_cur = np.empty(m)
    # minus_blocks[g][k]: cost of group g without its k-th task.
    minus_blocks: List[np.ndarray] = [np.empty(0)] * m
    # plus_blocks[g][k, d]: cost of group d with group g's k-th task added.
    plus_blocks: List[np.ndarray] = [np.empty((0, m))] * m
    # swap_blocks[(src, dst)]: the (e_src, e_dst) matrices of the swap batch.
    swap_blocks: dict = {}

    for _ in range(max_iterations):
        refresh = sorted(dirty)
        if refresh:
            for g in refresh:
                group_works[g] = sum(works_arr[i] for i in current[g])
            e_cur[refresh] = group_costs(group_works[refresh], factors[refresh])
            for g in refresh:
                w_g = works_arr[current[g]]
                minus_blocks[g] = group_costs(
                    group_works[g] - w_g, np.full(w_g.size, factors[g])
                )
                plus_blocks[g] = group_costs(
                    group_works[None, :] + w_g[:, None],
                    np.broadcast_to(factors, (w_g.size, m)),
                )
            clean = [g for g in range(m) if g not in dirty]
            if clean and len(refresh) < m:
                # Clean groups keep their rows; only the dirty destination
                # columns moved.  One batched call over every clean task --
                # elementwise, so identical to per-group recomputation.
                w_cat = np.concatenate([works_arr[current[g]] for g in clean])
                cols = group_costs(
                    group_works[refresh][None, :] + w_cat[:, None],
                    np.broadcast_to(factors[refresh], (w_cat.size, len(refresh))),
                )
                offset = 0
                for g in clean:
                    size = len(current[g])
                    plus_blocks[g][:, refresh] = cols[offset : offset + size]
                    offset += size
            dirty = set()

        sizes = np.array([len(g) for g in current], dtype=np.int64)
        g_t = np.repeat(np.arange(m), sizes)

        improved = False
        if m > 1:
            # --- Single-task moves: delta[t, d] for moving task t (rows in
            # the reference's (src, position) order) into group d (columns).
            # Row-major flattening therefore reproduces the reference's exact
            # candidate order, so "first improving" picks the same move.
            e_src_minus = np.concatenate(minus_blocks)
            e_dst_plus = np.vstack(plus_blocks)
            delta = (e_src_minus - e_cur[g_t])[:, None] + (e_dst_plus - e_cur[None, :])
            delta[np.arange(n), g_t] = np.inf  # dst == src
            delta[sizes[g_t] == 1, :] = np.inf  # the reference never empties a group
            improving = delta < -1e-15
            if improving.any():
                flat = int(np.argmax(improving))
                t_row, dst = divmod(flat, m)
                src = int(g_t[t_row])
                # Position of the task within its group (rows are grouped by
                # src in order, so subtract the offset of src's first row).
                task_pos = int(t_row - int(np.concatenate(([0], np.cumsum(sizes)))[src]))
                candidate = [list(g) for g in current]
                task = candidate[src].pop(task_pos)
                candidate[dst].append(task)
                current_value = evaluate(candidate)
                current = [sorted(g) for g in candidate if g]
                dirty = {src, dst}
                swap_blocks = {
                    pair: blocks
                    for pair, blocks in swap_blocks.items()
                    if src not in pair and dst not in pair
                }
                improved = True
        if improved:
            continue

        # --- Pairwise swaps, batched per group pair in the reference's
        # (src, dst) order; within a pair the (i, j) delta matrix flattens
        # row-major to the reference's inner order.
        for src, dst in itertools.combinations(range(m), 2):
            cached = swap_blocks.get((src, dst))
            if cached is None:
                wi = works_arr[current[src]]
                wj = works_arr[current[dst]]
                src_new = (group_works[src] - wi)[:, None] + wj[None, :]
                dst_new = (group_works[dst] - wj)[None, :] + wi[:, None]
                e_src = group_costs(src_new, np.full(src_new.shape, factors[src]))
                e_dst = group_costs(dst_new, np.full(dst_new.shape, factors[dst]))
                swap_blocks[(src, dst)] = (e_src, e_dst)
            else:
                e_src, e_dst = cached
            delta = (e_src - e_cur[src]) + (e_dst - e_cur[dst])
            improving = delta < -1e-15
            if improving.any():
                i, j = divmod(int(np.argmax(improving)), delta.shape[1])
                candidate = [list(g) for g in current]
                candidate[src][i], candidate[dst][j] = (
                    candidate[dst][j],
                    candidate[src][i],
                )
                current_value = evaluate(candidate)
                current = [sorted(g) for g in candidate]
                dirty = {src, dst}
                swap_blocks = {
                    pair: blocks
                    for pair, blocks in swap_blocks.items()
                    if src not in pair and dst not in pair
                }
                improved = True
                break
        if not improved:
            break
    return [sorted(g) for g in current if g], current_value


def _outcome(search, start, *args):
    try:
        return search([list(g) for g in start], *args)
    except OverflowError:
        return "overflow"


def _assert_same(start, *args):
    expected = _outcome(pair_block_search, start, *args)
    assert _outcome(_local_search_vectorized, start, *args) == expected
    return expected


#: The independent-task instances of perfbench's ``solver_mix`` stream at
#: seeds 401 and 4242, eleven each: ``(n, works seed, checkpoint and
#: recovery cost, rate)``; downtime 0.5 and works ``U(1, 10)``.
LADDER = [
    (26, 1316324311, 0.5492422502470642, 0.029867534624615985),
    (63, 853157587, 0.5984845004941284, 0.018880562489582028),
    (39, 501195517, 0.6477267507411927, 0.022439031953194678),
    (76, 1818911327, 0.6969690009882569, 0.016947918194450583),
    (52, 773943246, 0.34621125123532115, 0.018724780617484022),
    (28, 101397584, 0.3954535014823854, 0.049521718882600756),
    (65, 714142746, 0.44469575172944964, 0.01649622981605763),
    (41, 1718232739, 0.49393800197651383, 0.018485408472552943),
    (77, 951485454, 0.543180252223578, 0.015205471220497696),
    (53, 1569579519, 0.5924225024706423, 0.016159775345457497),
    (29, 1587603348, 0.6416647527177065, 0.043771987238375845),
    (26, 2098095526, 0.5492422502470642, 0.029867534624615985),
    (63, 181695801, 0.5984845004941284, 0.018880562489582028),
    (39, 618167768, 0.6477267507411927, 0.022439031953194678),
    (76, 307746376, 0.6969690009882569, 0.016947918194450583),
    (52, 1654155824, 0.34621125123532115, 0.018724780617484022),
    (28, 692833170, 0.3954535014823854, 0.049521718882600756),
    (65, 437276679, 0.44469575172944964, 0.01649622981605763),
    (41, 1857651189, 0.49393800197651383, 0.018485408472552943),
    (77, 1457524701, 0.543180252223578, 0.015205471220497696),
    (53, 510086414, 0.5924225024706423, 0.016159775345457497),
    (29, 854225710, 0.6416647527177065, 0.043771987238375845),
]
LADDER_DOWNTIME = 0.5

#: sha256 of :func:`_digest` of each ladder instance's
#: ``schedule_independent_tasks`` result, recorded with the pair-block search.
LADDER_DIGESTS = [
    "c161f543ddc91fdabadc331cba89a0ed816305e40c0a9ba3ec54febf07cd3a52",
    "fe4478ab7b76d2eb3445b8dc40cbfd94e41ff987d76f9ce4b3a475170740705b",
    "9415f46a07c73008166bb1f01763930147fd2ef0e4ac6a03ba8cfce73f23e66e",
    "eb4e83d14c4de4f13f53810b03622ab420cc5150c8ed947b0cc33bbfa4d27e2d",
    "0fe397b8b91d8ca519fd0f799ef16b8b84f74b6dab9e1ade2dc4b3834f8588d1",
    "a6063c266103969c6f4313bad453834f0515b559b3cf1694929cfb084c36d821",
    "b03569e2f6da0e50145e709c17a2e210dcec9275f09e1675200302fc84b57676",
    "e5d74005d531e787608d11fe2c7eddb979ec7a46c5b3f3db47d5b0a400a65af1",
    "fab5996c671a7a5af8a74b0d18ef26bade7584cb0e769554f87680da3caeeb10",
    "7e28b77e5162553688fd9938066deaa145f63d80a050100da4a4405d9dd6893a",
    "cda87ec4588640229c21384900f14c3d44f4755956ed6c49eeba5f18e4d4a90b",
    "c8217afee3803979abce5ee01760c0f3197e9eb1673a902c36b512c2c059f43a",
    "556a5d495353ba5d749219d0a5248a66c0d5e6ffd54ff1bcd6f11f072a78f74a",
    "62927a6bae7ea15abec7a640e8db252f72fe2795cf9ff3ae5514a2f089ee9b68",
    "22740c0fd07e74fbee96b70d824932c564fba738f296f7531ba972e2bf6a7df2",
    "15d9c030f798dc2a7922805c8ffdfaffe937e30a1f1ea966aa79f7ad611abf73",
    "b100bb919df70f50120bfd8c76f0dfe5d00dff2170c0281eb6ae08763759bd9d",
    "a85c01629bb66abb078beef45f40a268d327b9ec2f5a19ef5e3c17e1b3bea106",
    "8aaa7898bf946221ac24b10fbc6477a3dc824886e303e701d9788d335933f3c1",
    "274751dd61b01a356854a1fdb11244360aa792d66b66ac42d8c8c29bfd868969",
    "f0b4d0e53f952b9bd0c101c145962252300ea915018bf114a58db775326fe964",
    "a21b5549715b6badf50c4ba8df0d2e2a98bef663663aa441168aa39204732a8a",
]


def _ladder_works(n: int, seed: int) -> List[float]:
    return [float(w) for w in np.random.default_rng(seed).uniform(1.0, 10.0, size=n)]


def _digest(result) -> str:
    payload = json.dumps({
        "groups": [list(group) for group in result.groups],
        "value": result.expected_makespan.hex(),
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestMatrixSearchEqualsPairBlockSearch:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 48))
        m = int(rng.integers(1, max(n // 2, 2)))
        works = list(rng.uniform(0.5, 12.0, size=n))
        initial_recovery = None if seed % 2 else 0.25
        _assert_same(
            balanced_grouping(works, m), works, 1.0, 0.8, 0.4, 0.03, initial_recovery, 120
        )

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 90),
        integer_works=st.booleans(),
        rate=st.floats(0.01, 20.0),
        checkpoint=st.floats(0.0, 2.0),
        recovery=st.floats(0.0, 2.0),
        downtime=st.floats(0.0, 1.0),
        initial_recovery=st.none() | st.floats(0.0, 3.0),
        iterations=st.integers(0, 200),
    )
    def test_property(
        self, data, n, integer_works, rate, checkpoint, recovery, downtime,
        initial_recovery, iterations,
    ):
        m = data.draw(st.integers(1, max(1, n // 2)), label="groups")
        work = st.integers(1, 9).map(float) if integer_works else st.floats(0.1, 12.0)
        works = data.draw(st.lists(work, min_size=n, max_size=n), label="works")
        outcome = _assert_same(
            balanced_grouping(works, m), works, checkpoint, recovery, downtime, rate,
            initial_recovery, iterations,
        )
        event("start overflows" if outcome == "overflow" else "searched")

    @pytest.mark.parametrize("index", range(len(LADDER)))
    def test_ladder_instances(self, index):
        """Group counts around the heuristic's pick, and 1 and n, on a ``solver_mix`` instance."""
        n, seed, cost, rate = LADDER[index]
        works = _ladder_works(n, seed)
        result = schedule_independent_tasks(works, cost, cost, LADDER_DOWNTIME, rate)
        centre = len(result.groups)
        for m in sorted({1, n} | set(range(max(1, centre - 2), min(n, centre + 2) + 1))):
            outcome = _assert_same(
                balanced_grouping(works, m), works, cost, cost, LADDER_DOWNTIME, rate,
                None, 200,
            )
            assert outcome != "overflow"

    @pytest.mark.parametrize(("n", "m", "iterations"), [(320, 48, 250), (400, 64, 300)])
    def test_large_instances(self, n, m, iterations):
        works = list(np.random.default_rng(9).uniform(1.0, 10.0, size=n))
        _assert_same(balanced_grouping(works, m), works, 1.0, 1.0, 0.5, 0.02, None, iterations)


class TestLadderDigests:
    @pytest.mark.parametrize("index", range(len(LADDER)))
    def test_heuristic_result_is_unchanged(self, index):
        n, seed, cost, rate = LADDER[index]
        works = _ladder_works(n, seed)
        result = schedule_independent_tasks(works, cost, cost, LADDER_DOWNTIME, rate)
        assert _digest(result) == LADDER_DIGESTS[index]
        assert result.expected_makespan == grouping_expected_time(
            result.groups, works, cost, cost, LADDER_DOWNTIME, rate
        )
