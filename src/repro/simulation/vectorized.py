"""Vectorized batch simulation: whole replication batches as NumPy array programs.

The scalar executor (:mod:`repro.simulation.executor`) replays one execution
at a time through a Python event loop -- perfectly general, but every segment
attempt costs a handful of interpreter dispatches.  Monte-Carlo estimation and
paired campaigns run thousands of *independent* replications of the *same*
schedule, so the per-replication control flow can instead be advanced in
lock-step across the whole batch: one NumPy operation per state transition
covers every replication simultaneously, with boolean masks separating the
replications that failed, are recovering, or have finished.

Three batch engines live here:

* :func:`simulate_poisson_batch` -- the exact fast path for the paper's core
  model (Poisson platform failures).  Thanks to memorylessness, every segment
  or recovery attempt consumes exactly one Exponential draw, so the batch can
  be driven by a shared *delay plan* (:class:`PlannedExponentialDelays`): a
  deterministic schedule of ``(round, replication)`` draw matrices from one
  RNG stream.  The scalar engine consumes the very same plan through
  :class:`PlannedPoissonSource`, which makes the two engines **bit-identical**
  for a given seed -- the strongest possible cross-validation of the array
  program against the event loop.  Since the delay plan pins down *which*
  draw every attempt reads, the batch loop is free to advance each
  replication by whole *runs* of successful attempts per round (windowed
  comparisons against the upcoming draws, `cumsum` prefix sums seeded with
  each replication's clock for the bit-exact sequential additions) instead
  of one attempt per lock-step round -- rounds scale with the failure count,
  not the segment count.  The historical one-attempt-per-round kernel is
  kept as :func:`simulate_poisson_batch_lockstep` (reference implementation
  and benchmark baseline); the two are bit-identical by construction.
* :func:`simulate_renewal_batch` -- the non-memoryless laws (Weibull,
  log-normal renewal processes of Section 6).  Per-processor next-failure
  times are carried as a ``(replications, processors)`` matrix and renewed
  with batched draws.  Draw *order* is
  data-dependent here, so this path is statistically -- not bit-wise --
  equivalent to the scalar engine (pinned by KS tests).
* :func:`generate_trace_times_batch` + :func:`replay_traces_batch` -- the
  campaign path: batched synthetic trace generation (cumulative sums of
  batched inter-arrival draws) and a vectorized trace replay that executes
  *every strategy against every shared trace* in one stacked lock-step loop,
  advancing one failure per round via prefix-sum segment jumps.  The
  strategies' prefix sums lie end to end in one flat table keyed by
  ``strategy + 1j * prefix``, so a single ``searchsorted`` per round jumps
  every row of every strategy; a campaign builds the table once and all its
  chunks reuse it.  Replay of a given trace is deterministic and agrees with
  the scalar executor to floating-point rounding (~1 ulp per segment; the
  jumps re-associate the duration additions).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._validation import check_non_negative, check_positive, check_positive_int
from repro.core.schedule import Segment
from repro.failures.distributions import FailureDistribution
from repro.failures.platform import Platform
from repro.simulation.engine import FailureSource
from repro.simulation.executor import _MAX_FAILURES_PER_RUN

__all__ = [
    "BatchSimulationResult",
    "PlannedExponentialDelays",
    "PlannedPoissonSource",
    "simulate_poisson_batch",
    "simulate_poisson_batch_lockstep",
    "simulate_renewal_batch",
    "generate_trace_times_batch",
    "replay_traces_batch",
]

#: Hard cap on the total number of trace events a batched generation may hold
#: in memory at once (the batch analogue of ``generate_trace``'s 5e6 cap).
_MAX_BATCH_EVENTS = 50_000_000


class BatchSimulationResult:
    """Per-replication sample arrays produced by a batch engine.

    The batch analogue of a list of
    :class:`~repro.simulation.executor.SimulationResult`: one entry per
    replication, column-oriented so the Monte-Carlo aggregation can consume
    the arrays without any conversion.
    """

    __slots__ = ("makespans", "num_failures", "wasted_times", "useful_times",
                 "recovery_attempts")

    def __init__(
        self,
        makespans: np.ndarray,
        num_failures: np.ndarray,
        wasted_times: np.ndarray,
        useful_times: np.ndarray,
        recovery_attempts: np.ndarray,
    ) -> None:
        self.makespans = makespans
        self.num_failures = num_failures
        self.wasted_times = wasted_times
        self.useful_times = useful_times
        self.recovery_attempts = recovery_attempts

    def __len__(self) -> int:
        return len(self.makespans)


class PlannedExponentialDelays:
    """Deterministic, engine-neutral schedule of Exponential attempt delays.

    On the memoryless fast path every segment or recovery attempt consumes
    exactly one Exponential draw, whichever engine executes it.  This class
    pins down *which* draw: the ``j``-th attempt of replication ``i`` always
    reads entry ``(j, i)`` of a conceptually infinite ``(rounds, count)``
    matrix filled row-major from a single generator's variate stream.  NumPy
    generators emit that stream identically however the draw calls are
    shaped or batched (an ``(r, c)`` draw is the next ``r*c`` variates in
    C order), so the value behind any entry is a pure function of ``(rng
    state, count, j, i)`` -- independent of *when* rounds are materialised
    and of which engine asks first.  The scalar engine (which reads entries
    replication by replication) and the vectorized engine (which reads them
    in windows along a replication's row cursor) therefore see *exactly*
    the same numbers and produce bit-identical executions.

    ``first_rounds`` sizes the initial draw; further rounds are drawn on
    demand with a 25% geometric headroom so incremental consumers (the
    scalar event loop asks round by round) amortise the draw-call overhead
    without the engines over-drawing much past what the dynamics consume.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        scale: float,
        count: int,
        *,
        first_rounds: int = 8,
    ) -> None:
        check_positive("scale", scale)
        check_positive_int("count", count)
        self._rng = rng
        self._scale = scale
        self._count = count
        self._first_rounds = max(int(first_rounds), 1)
        self._data = np.empty((0, count))
        self._rounds = 0

    @property
    def rounds_drawn(self) -> int:
        """Number of rounds materialised so far (for tests/diagnostics)."""
        return self._rounds

    def rows(self, num_rounds: int) -> np.ndarray:
        """A flat ``(rounds, count)`` view covering at least ``num_rounds`` rounds.

        Entry ``(j, i)`` is the ``j``-th attempt delay of replication ``i``
        -- the same number :meth:`delay` returns, laid out for the batched
        window gathers of the segment-jumping kernel.  The returned array is
        a zero-copy view of the plan's storage.
        """
        self._ensure(max(num_rounds, 1) - 1)
        return self._data[: self._rounds]

    def _ensure(self, round_index: int) -> None:
        needed = round_index + 1
        if needed <= self._rounds:
            return
        target = max(needed, self._first_rounds, self._rounds + self._rounds // 4)
        if target > self._data.shape[0]:
            capacity = max(target, 2 * self._data.shape[0])
            grown = np.empty((capacity, self._count))
            grown[: self._rounds] = self._data[: self._rounds]
            self._data = grown
        self._data[self._rounds : target] = self._rng.exponential(
            self._scale, size=(target - self._rounds, self._count)
        )
        self._rounds = target

    def round_delays(self, round_index: int) -> np.ndarray:
        """The delay of every replication's ``round_index``-th attempt."""
        self._ensure(round_index)
        return self._data[round_index]

    def delay(self, replication: int, round_index: int) -> float:
        """The ``round_index``-th attempt delay of one replication (scalar view)."""
        self._ensure(round_index)
        return float(self._data[round_index, replication])


class PlannedPoissonSource(FailureSource):
    """Scalar :class:`FailureSource` view of one replication of a delay plan.

    Handing this source to :func:`~repro.simulation.executor.simulate_segments`
    runs the classic Python event loop on exactly the draws the vectorized
    engine assigns to the same replication -- the scalar half of the
    bit-identical contract between the two engines.
    """

    def __init__(self, plan: PlannedExponentialDelays, replication: int) -> None:
        self._plan = plan
        self._replication = replication
        self._next_round = 0

    def time_to_next_failure(self, now: float) -> float:
        value = self._plan.delay(self._replication, self._next_round)
        self._next_round += 1
        return value

    def register_failure(self, time: float) -> None:
        return

    def reset(self) -> None:
        self._next_round = 0


def _segment_durations(segments: Sequence[Segment]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment (work + checkpoint, recovery) durations as float arrays.

    The sums are computed exactly as the scalar executor computes them
    (``segment.work + segment.checkpoint_cost``), which matters for the
    bit-identical contract.
    """
    if not segments:
        raise ValueError("segments must not be empty")
    attempt = np.array([s.work + s.checkpoint_cost for s in segments], dtype=float)
    recovery = np.array([s.recovery_cost for s in segments], dtype=float)
    return attempt, recovery


#: Cap on the number of window entries (rows x offsets) a single jump round
#: may gather at once; bounds the kernel's transient memory to a few matrices
#: of this many doubles (~16 MB each) however long the chain is.
_MAX_WINDOW_ELEMENTS = 1 << 21

#: Typical run of consecutive segment completions between failures
#: (``num_segments / (expected_failures + 1)``) below which
#: :func:`simulate_poisson_batch` automatically delegates to the lock-step
#: kernel: when a window jumps only a handful of segments, its gathers and
#: per-row prefix sums cost more than lock-step's one-attempt rounds.  The
#: crossover was measured at roughly 4 segments per run across chain lengths
#: 8..4096 (see docs/performance.md); the fused veteran round keeps the jump
#: kernel ahead everywhere above it -- in particular through the whole
#: moderate-failure regime (1-3 failures per replication), which the
#: pre-fusion kernel delegated to lock-step via an expected-failures cap.
_JUMP_MIN_RUN_SEGMENTS = 4.0


def _auto_window(num_segments: int, expected_failures: float) -> int:
    """Jump-window cap derived from the expected failures per replication.

    ``num_segments / (expected_failures + 1)`` is the typical run of
    consecutive segment completions between failures across one replication;
    the floor keeps tiny windows from degenerating into lock-step rounds and
    the ceiling bounds the sliding-window views (the per-round gather is
    additionally capped by ``_MAX_WINDOW_ELEMENTS``).
    """
    span = num_segments / (expected_failures + 1.0) + 1.0
    return int(min(max(span, 8.0), 65536.0))


def simulate_poisson_batch(
    segments: Sequence[Segment],
    rate: float,
    downtime: float,
    rng: np.random.Generator,
    count: int,
    *,
    plan: Optional[PlannedExponentialDelays] = None,
    window: Optional[int] = None,
    method: Optional[str] = None,
) -> BatchSimulationResult:
    """Simulate ``count`` replications under Poisson failures as one array program.

    The exact fast path: bit-identical to running the scalar executor on the
    same :class:`PlannedExponentialDelays` (which is what
    ``MonteCarloEstimator.estimate(engine="scalar")`` does on the chunked
    execution path), because both engines read the same draws and apply the
    same floating-point operations in the same per-replication order.

    Unlike :func:`simulate_poisson_batch_lockstep` (the historical reference
    kernel, one attempt per round for every replication), this kernel *jumps*
    over whole runs of successful segment attempts per round: the upcoming
    draws of every replication are compared against the durations of its
    upcoming segments in one windowed array operation, and the clock advance
    over the jumped segments is a ``cumsum`` prefix sum seeded with the
    replication's current clock -- a strict left-to-right fold, hence the
    *same* sequence of floating-point additions the scalar event loop
    performs.  Rounds therefore scale with the number of failures, not the
    number of segments: a thousand-segment chain with rare failures completes
    in a handful of rounds instead of a thousand lock-step rounds.

    The veteran rounds are *fused*: a recovery-resolution pre-pass settles
    every pending recovery with one gathered draw, after which a single
    shared threshold window drives one masked pass combining the
    failure-position compare, the segment advance and the rework
    accumulation.  Only batches whose typical failure-to-failure run is
    shorter than ``_JUMP_MIN_RUN_SEGMENTS`` segments (very dense failures on
    short chains) are delegated to the lock-step kernel, where windows would
    mostly be waste; both kernels are bit-identical on every input, so the
    dispatch is purely a performance decision.

    Parameters
    ----------
    segments:
        Segment decomposition of the schedule under test.
    rate:
        Platform failure rate ``lambda`` of the Poisson process.
    downtime:
        Downtime ``D`` after each failure (failures never strike during it).
    rng:
        Generator the delay plan draws from (ignored when ``plan`` is given).
    count:
        Number of replications.
    plan:
        Pre-built delay plan (mainly for tests that drive both engines off
        one plan); by default a fresh plan is built from ``rng``.
    window:
        Cap on how many segments a single round may jump (default:
        auto-selected from the plan's expected failures per replication --
        about one failure-to-failure run of segments -- subject to a memory
        cap).  A replication that exhausts its window without failing simply
        continues jumping next round -- the addition chain is split, not
        re-associated, so results are bit-identical for every window.
        Exposed for tests; implies ``method="jump"``.
    method:
        ``None`` (the default) picks the kernel by the typical
        failure-to-failure run length; ``"jump"`` or ``"lockstep"`` force
        one.  Results are bit-identical either way.
    """
    if method not in (None, "jump", "lockstep"):
        raise ValueError(
            f"unknown method {method!r}; expected None, 'jump' or 'lockstep'"
        )
    check_positive("rate", rate)
    check_non_negative("downtime", downtime)
    check_positive_int("count", count)
    attempt_dur, recovery_dur = _segment_durations(segments)
    if plan is None:
        plan = PlannedExponentialDelays(
            rng, 1.0 / rate, count, first_rounds=len(segments) + 4
        )

    num_segments = len(attempt_dur)
    # Exact left-to-right prefix sums of the attempt durations: ``prefix[k]``
    # is the clock (and the committed useful time) of a replication that has
    # completed segments 0..k-1 without ever failing, evaluated with the
    # same addition chain as the scalar loop (np.cumsum is a sequential
    # fold, and the scalar clock starts at 0.0).
    prefix = np.empty(num_segments + 1)
    prefix[0] = 0.0
    np.cumsum(attempt_dur, out=prefix[1:])
    useful_total = float(prefix[num_segments])

    # Expected failures per replication over this plan's segment durations
    # (exact per-segment sum, not a mean-attempt approximation): the quantity
    # that decides both the kernel dispatch and the jump window below.
    expected_failures = float(np.sum(-np.expm1(-rate * attempt_dur)))
    if method == "lockstep" or (
        method is None
        and window is None
        and num_segments / (expected_failures + 1.0) < _JUMP_MIN_RUN_SEGMENTS
    ):
        return simulate_poisson_batch_lockstep(
            segments, rate, downtime, rng, count, plan=plan
        )
    # Window auto-selection from the expected failures per replication: a
    # replication that fails ``ef`` times completes about ``n / (ef + 1)``
    # segments between consecutive failures, so windows beyond that are
    # mostly wasted gathers for the veteran rows (the ROADMAP's
    # moderate-failure-regime note), while shorter ones needlessly split the
    # virgin sweep.  Correctness is window-independent: a row that exhausts
    # its window without failing simply continues next round (the addition
    # chain is split, never re-associated).
    span_cap = _auto_window(num_segments, expected_failures)
    if window is not None:
        span_cap = max(int(window), 1)

    makespans = np.empty(count)
    out_wasted = np.empty(count)
    out_fails = np.zeros(count, dtype=np.int64)
    out_rec = np.zeros(count, dtype=np.int64)

    # Replications that have never failed all share the exact same state --
    # segment v_seg, plan cursor v_cursor, clock prefix[v_seg], zero waste --
    # so the pool advances through one shared window comparison per sweep
    # with no per-row clock arithmetic at all.
    virgin = np.arange(count, dtype=np.int64)
    v_seg = 0
    v_cursor = 0

    # Compressed per-row state of the "veterans" (rows that failed at least
    # once); finished rows are squeezed out, their samples scattered to the
    # output arrays via ``out_index``, which doubles as each row's plan
    # column (the original replication index).
    empty_i = np.empty(0, dtype=np.int64)
    now = np.empty(0)
    wasted = np.empty(0)
    fails = empty_i
    rec_att = empty_i
    seg = empty_i
    cursor = empty_i
    recovering = np.empty(0, dtype=bool)
    out_index = empty_i

    round_index = 0
    while virgin.size or now.size:
        # --- Virgin sweep: one contiguous window comparison advances every
        # never-failed replication at once.
        if virgin.size:
            rem_v = num_segments - v_seg
            span = min(rem_v, span_cap, max(_MAX_WINDOW_ELEMENTS // virgin.size, 1))
            flat = plan.rows(v_cursor + span)
            if virgin.size == count:
                # The whole batch is still virgin (typically the first
                # sweep, the bulk of the work): the window is a zero-copy
                # slice of the plan.
                block = flat[v_cursor : v_cursor + span]
            else:
                block = flat[v_cursor : v_cursor + span, virgin]
            fail_win = block < attempt_dur[v_seg : v_seg + span, None]
            # argmax doubles as the any-reduction: a column with no failure
            # reports offset 0, where fail_win is False.
            offsets_all = fail_win.argmax(axis=0)
            has_fail = fail_win[offsets_all, np.arange(virgin.size)]
            if has_fail.any():
                offsets = offsets_all[has_fail]
                hit = virgin[has_fail]
                lost = block[offsets, np.flatnonzero(has_fail)]
                seg_hit = v_seg + offsets
                # The scalar loop's additions, in its order: the clock was
                # exactly prefix[seg_hit] and the wasted time exactly 0.0
                # when the failure struck.
                now_hit = prefix[seg_hit] + lost
                now_hit += downtime
                wasted_hit = lost + downtime
                now = np.concatenate([now, now_hit])
                wasted = np.concatenate([wasted, wasted_hit])
                fails = np.concatenate([fails, np.ones(hit.size, dtype=np.int64)])
                rec_att = np.concatenate([rec_att, np.zeros(hit.size, dtype=np.int64)])
                seg = np.concatenate([seg, seg_hit])
                cursor = np.concatenate([cursor, v_cursor + offsets + 1])
                recovering = np.concatenate([recovering, np.ones(hit.size, dtype=bool)])
                out_index = np.concatenate([out_index, hit])
                virgin = virgin[~has_fail]
            if virgin.size:
                if span == rem_v:
                    # The surviving pool completes the whole chain: its
                    # makespan is the shared failure-free prefix total and
                    # nothing was ever wasted.
                    makespans[virgin] = prefix[num_segments]
                    out_wasted[virgin] = 0.0
                    virgin = empty_i
                else:
                    v_seg += span
                    v_cursor += span

        # --- Veteran round, fused compare+advance: a cheap recovery
        # resolution pre-pass first settles every pending recovery (one
        # gathered draw against the recovery cost), after which *every*
        # surviving row is mid-chain with no recovery owed -- so the segment
        # sweep needs just one shared threshold gather and one masked pass
        # that fuses the failure-position compare, the segment advance and
        # the rework accumulation.  Splitting the recovery out of the window
        # changes only the round boundaries, never a row's sequence of
        # (threshold, draw) comparisons or its addition chains, so the fused
        # round stays bit-identical to the lock-step reference.
        n_vet = now.size
        if n_vet:
            if recovering.any():
                r_idx = np.flatnonzero(recovering)
                flat = plan.rows(int(cursor[r_idx].max()) + 1)
                draw0 = flat[cursor[r_idx], out_index[r_idx]]
                rec_cost = recovery_dur[seg[r_idx]]
                # A recovery attempt is counted when it starts, exactly like
                # the scalar executor.
                rec_att[r_idx] += 1
                cursor[r_idx] += 1  # the attempt consumes its draw either way
                rec_fail = draw0 < rec_cost
                struck_r = r_idx[rec_fail]
                if struck_r.size:
                    lost = draw0[rec_fail]
                    fails[struck_r] += 1
                    now[struck_r] += lost
                    wasted[struck_r] += lost
                    now[struck_r] += downtime
                    wasted[struck_r] += downtime
                    # Still recovering: the next round's pre-pass retries.
                done_r = r_idx[~rec_fail]
                if done_r.size:
                    committed = rec_cost[~rec_fail]
                    wasted[done_r] += committed
                    now[done_r] += committed
                    recovering[done_r] = False

            # Rows eligible for the segment sweep this round (a row whose
            # recovery just failed absorbed its failure above and sits the
            # sweep out, exactly as it would have in a combined window).
            act = np.flatnonzero(~recovering)
            if act.size:
                rem_act = num_segments - seg[act]  # >= 1: finished rows are gone
                span = int(rem_act.max())
                span = min(span, span_cap, max(_MAX_WINDOW_ELEMENTS // act.size, 1))
                span = max(span, 1)
                cur_act = cursor[act]
                flat = plan.rows(int(cur_act.max()) + span)
                draw_win = np.lib.stride_tricks.sliding_window_view(
                    flat, span, axis=0
                )[cur_act, out_index[act]]
                # One shared threshold window per segment position: the j-th
                # upcoming attempt of a row at segment s must outlast
                # ``attempt_dur[s + j]``, padded with -inf past the end of
                # the chain (no delay is below -inf, so completed rows simply
                # run out of failures).  The sliding windows over the padded
                # durations are zero-copy views; no per-row assembly at all.
                att_pad = np.concatenate([attempt_dur, np.full(span - 1, -np.inf)])
                thr = np.lib.stride_tricks.sliding_window_view(att_pad, span)[
                    seg[act]
                ]
                fail_win = draw_win < thr
                lanes = np.arange(act.size)
                # argmax doubles as the any-reduction: a row with no failure
                # reports offset 0, where fail_win is False.
                first_fail = fail_win.argmax(axis=1)
                has_fail = fail_win[lanes, first_fail]
                # Successful attempts this round: up to the first short
                # delay, the end of the chain, or the window edge.
                successes = np.where(has_fail, first_fail, span)
                successes = np.minimum(successes, rem_act)
                # Seeded prefix sums: row r's column k is
                # (((now + thr_0) + thr_1) + ... + thr_{k-1}) evaluated
                # strictly left to right (np.cumsum is a sequential fold),
                # i.e. the exact clock the scalar loop holds after k
                # consecutive completions.
                clocks = np.empty((act.size, span + 1))
                clocks[:, 0] = now[act]
                clocks[:, 1:] = thr
                np.cumsum(clocks, axis=1, out=clocks)
                now[act] = clocks[lanes, successes]
                seg[act] += successes
                cursor[act] = cur_act + successes
                hit_rel = np.flatnonzero(has_fail)
                if hit_rel.size:
                    hit = act[hit_rel]
                    lost = draw_win[hit_rel, successes[hit_rel]]
                    fails[hit] += 1
                    now[hit] += lost
                    wasted[hit] += lost
                    now[hit] += downtime
                    wasted[hit] += downtime
                    cursor[hit] += 1  # the failed attempt consumed its draw
                    recovering[hit] = True

            finished = seg >= num_segments
            if finished.any():
                done = np.flatnonzero(finished)
                makespans[out_index[done]] = now[done]
                out_wasted[out_index[done]] = wasted[done]
                out_fails[out_index[done]] = fails[done]
                out_rec[out_index[done]] = rec_att[done]
                keep = ~finished
                now = now[keep]
                wasted = wasted[keep]
                fails = fails[keep]
                rec_att = rec_att[keep]
                seg = seg[keep]
                cursor = cursor[keep]
                recovering = recovering[keep]
                out_index = out_index[keep]

        if fails.size and int(fails.max()) > _MAX_FAILURES_PER_RUN:
            raise RuntimeError(
                "simulation aborted after "
                f"{_MAX_FAILURES_PER_RUN} failures; the instance parameters make "
                "completion astronomically unlikely"
            )
        round_index += 1
        if round_index > 2 * _MAX_FAILURES_PER_RUN + num_segments:
            # Unreachable progress guard (every round strikes, recovers,
            # advances or finishes some replication); kept as a backstop for
            # the kernel's progress invariant.
            raise RuntimeError(
                "segment-jumping kernel exceeded its round budget "
                f"({2 * _MAX_FAILURES_PER_RUN + num_segments} rounds) without "
                "completing every replication; this indicates a stalled round, "
                "not an instance problem -- please report it"
            )

    return BatchSimulationResult(
        makespans=makespans,
        num_failures=out_fails.astype(float),
        wasted_times=out_wasted,
        useful_times=np.full(count, useful_total),
        recovery_attempts=out_rec,
    )


def simulate_poisson_batch_lockstep(
    segments: Sequence[Segment],
    rate: float,
    downtime: float,
    rng: np.random.Generator,
    count: int,
    *,
    plan: Optional[PlannedExponentialDelays] = None,
) -> BatchSimulationResult:
    """One-attempt-per-round reference kernel for the exact Poisson fast path.

    The historical (PR 2) array program: every round advances every active
    replication by exactly one attempt, so rounds scale with the *attempt*
    count (segments plus failures).  Kept as the executable specification of
    the plan-consumption contract -- :func:`simulate_poisson_batch` (the
    segment-jumping kernel) must stay bit-identical to it on every input --
    and as the baseline the runtime benchmark measures the jump kernel
    against.
    """
    check_positive("rate", rate)
    check_non_negative("downtime", downtime)
    check_positive_int("count", count)
    attempt_dur, recovery_dur = _segment_durations(segments)
    if plan is None:
        plan = PlannedExponentialDelays(
            rng, 1.0 / rate, count, first_rounds=len(segments) + 4
        )

    num_segments = len(attempt_dur)
    now = np.zeros(count)
    wasted = np.zeros(count)
    useful = np.zeros(count)
    failures = np.zeros(count, dtype=np.int64)
    recovery_attempts = np.zeros(count, dtype=np.int64)
    seg = np.zeros(count, dtype=np.int64)
    recovering = np.zeros(count, dtype=bool)

    active = np.arange(count)
    round_index = 0
    while active.size:
        delays = plan.round_delays(round_index)[active]
        seg_active = seg[active]
        rec_active = recovering[active]
        target = np.where(
            rec_active, recovery_dur[seg_active], attempt_dur[seg_active]
        )
        if rec_active.any():
            # A recovery attempt starts (and is counted) before its delay is
            # compared, exactly like the scalar executor.
            recovery_attempts[active[rec_active]] += 1

        ok = delays >= target

        completed = active[ok]
        completed_dur = target[ok]
        now[completed] += completed_dur
        completed_rec = rec_active[ok]
        recovered = completed[completed_rec]
        wasted[recovered] += completed_dur[completed_rec]
        recovering[recovered] = False
        finished_work = completed[~completed_rec]
        useful[finished_work] += completed_dur[~completed_rec]
        seg[finished_work] += 1

        struck = active[~ok]
        if struck.size:
            lost = delays[~ok]
            failures[struck] += 1
            now[struck] += lost
            wasted[struck] += lost
            if downtime:
                now[struck] += downtime
                wasted[struck] += downtime
            recovering[struck] = True

        active = active[seg[active] < num_segments]
        round_index += 1
        if round_index > 2 * _MAX_FAILURES_PER_RUN + num_segments:
            # Batch analogue of the scalar executor's failure cap: a
            # replication only stays active by failing, so this many rounds
            # means some replication exceeded the cap.
            raise RuntimeError(
                "simulation aborted after "
                f"{_MAX_FAILURES_PER_RUN} failures; the instance parameters make "
                "completion astronomically unlikely"
            )

    return BatchSimulationResult(
        makespans=now,
        num_failures=failures.astype(float),
        wasted_times=wasted,
        useful_times=useful,
        recovery_attempts=recovery_attempts,
    )


def simulate_renewal_batch(
    segments: Sequence[Segment],
    platform: Platform,
    downtime: float,
    rng: np.random.Generator,
    count: int,
) -> BatchSimulationResult:
    """Simulate ``count`` replications under per-processor renewal failures.

    The batch counterpart of
    :class:`~repro.simulation.engine.RenewalPlatformFailureSource` driving the
    scalar executor: each replication carries the absolute next-failure time
    of each of the platform's processors; the platform fails when the earliest
    processor does, and only that processor is renewed (all of them when the
    platform's ``rejuvenate_all_on_failure`` field is set, the assumption of
    [12] the paper argues against).
    Scheduled failures that land inside a downtime window are skipped by
    renewing from the scheduled time, exactly like the scalar source.

    Draws are batched across replications, so their *order* differs from the
    scalar engine's: this path is statistically -- not bit-wise -- equivalent
    (the KS tests in ``tests/test_vectorized.py`` pin the agreement down).
    """
    check_non_negative("downtime", downtime)
    check_positive_int("count", count)
    attempt_dur, recovery_dur = _segment_durations(segments)
    law: FailureDistribution = platform.failure_law
    num_procs = platform.num_processors

    next_fail = np.asarray(
        law.sample(rng, size=(count, num_procs)), dtype=float
    ).reshape(count, num_procs)

    num_segments = len(attempt_dur)
    now = np.zeros(count)
    wasted = np.zeros(count)
    useful = np.zeros(count)
    failures = np.zeros(count, dtype=np.int64)
    recovery_attempts = np.zeros(count, dtype=np.int64)
    seg = np.zeros(count, dtype=np.int64)
    recovering = np.zeros(count, dtype=bool)
    alive = np.ones(count, dtype=bool)

    round_index = 0
    while alive.any():
        # Renew processors whose scheduled failure fell inside a downtime
        # window (failures do not strike during downtime, Section 2).
        while True:
            due = alive[:, None] & (next_fail <= now[:, None])
            overdue = int(due.sum())
            if not overdue:
                break
            next_fail[due] += np.asarray(
                law.sample(rng, size=overdue), dtype=float
            ).reshape(overdue)

        active = np.flatnonzero(alive)
        nearest = next_fail[active].min(axis=1)
        delays = nearest - now[active]
        seg_active = seg[active]
        rec_active = recovering[active]
        target = np.where(
            rec_active, recovery_dur[seg_active], attempt_dur[seg_active]
        )
        if rec_active.any():
            recovery_attempts[active[rec_active]] += 1

        ok = delays >= target

        completed = active[ok]
        completed_dur = target[ok]
        now[completed] += completed_dur
        completed_rec = rec_active[ok]
        recovered = completed[completed_rec]
        wasted[recovered] += completed_dur[completed_rec]
        recovering[recovered] = False
        finished_work = completed[~completed_rec]
        useful[finished_work] += completed_dur[~completed_rec]
        seg[finished_work] += 1
        done = finished_work[seg[finished_work] >= num_segments]
        alive[done] = False

        struck = active[~ok]
        if struck.size:
            lost = delays[~ok]
            failures[struck] += 1
            now[struck] += lost
            wasted[struck] += lost
            if platform.rejuvenate_all_on_failure:
                next_fail[struck] = now[struck][:, None] + np.asarray(
                    law.sample(rng, size=(struck.size, num_procs)), dtype=float
                ).reshape(struck.size, num_procs)
            else:
                failed_proc = np.argmin(next_fail[struck], axis=1)
                next_fail[struck, failed_proc] = now[struck] + np.asarray(
                    law.sample(rng, size=struck.size), dtype=float
                ).reshape(struck.size)
            if downtime:
                now[struck] += downtime
                wasted[struck] += downtime
            recovering[struck] = True

        round_index += 1
        if round_index > 2 * _MAX_FAILURES_PER_RUN + num_segments:
            raise RuntimeError(
                "simulation aborted after "
                f"{_MAX_FAILURES_PER_RUN} failures; the instance parameters make "
                "completion astronomically unlikely"
            )

    return BatchSimulationResult(
        makespans=now,
        num_failures=failures.astype(float),
        wasted_times=wasted,
        useful_times=useful,
        recovery_attempts=recovery_attempts,
    )


def generate_trace_times_batch(
    law: FailureDistribution,
    horizon: float,
    num_processors: int,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Generate ``count`` platform failure traces as one padded time matrix.

    The batch counterpart of :func:`repro.failures.traces.generate_trace`:
    each of the ``count`` traces superposes ``num_processors`` independent
    renewal processes with inter-arrival law ``law``, truncated at
    ``horizon``.  Inter-arrival draws are batched across all traces and
    processors and turned into absolute times by a cumulative sum, extending
    the draw matrix until every renewal chain has crossed the horizon.

    Returns a ``(count, width)`` float matrix: each row holds that trace's
    event times in increasing order, padded with ``+inf`` (every row keeps at
    least one ``+inf`` column so replay cursors always have a sentinel).
    """
    check_positive("horizon", horizon)
    check_positive_int("num_processors", num_processors)
    check_positive_int("count", count)
    # Oversample enough that the extension loop almost never fires (its cost
    # is a second batched draw, not an error).
    try:
        per_chain = max(8, int(1.6 * horizon / law.mean()) + 24)
    except OverflowError:  # a mean beyond float range: no renewal expected
        per_chain = 24
    if count * num_processors * per_chain > _MAX_BATCH_EVENTS:
        raise RuntimeError(
            f"generate_trace_times_batch would draw more than {_MAX_BATCH_EVENTS} "
            "inter-arrival times at once; reduce the chunk size, the horizon or "
            "the failure rate"
        )
    draws = np.asarray(
        law.sample(rng, size=(count, num_processors, per_chain)), dtype=float
    ).reshape(count, num_processors, per_chain)
    times = np.cumsum(draws, axis=2)
    while bool((times[:, :, -1] < horizon).any()):
        if times.size > _MAX_BATCH_EVENTS:
            raise RuntimeError(
                f"generate_trace_times_batch exceeded {_MAX_BATCH_EVENTS} draws; "
                "reduce the horizon or the failure rate"
            )
        extension = max(per_chain // 2, 8)
        extra = np.asarray(
            law.sample(rng, size=(count, num_processors, extension)), dtype=float
        ).reshape(count, num_processors, extension)
        times = np.concatenate(
            [times, times[:, :, -1:] + np.cumsum(extra, axis=2)], axis=2
        )
    # Every chain's last time is >= horizon, so every row keeps at least one
    # +inf sentinel after masking -- no extra padding column needed.
    flat = np.where(times < horizon, times, np.inf).reshape(count, -1)
    if num_processors > 1:
        # Superpose the per-processor chains; a single chain is already
        # sorted (cumulative sums are increasing).
        flat.sort(axis=1)
    return flat


class _ReplayTables(NamedTuple):
    """Every strategy's replay durations, laid end to end in flat tables.

    Strategy ``s`` owns ``len(segments) + 1`` consecutive entries starting at
    ``starts[s]``; its entry ``k`` stands for "segments 0..k-1 completed".
    ``keys[e]`` is ``s + 1j * prefix`` with ``prefix`` the left-to-right sum
    of those segments' attempt durations (``work + checkpoint_cost``), so one
    ``searchsorted`` over ``keys`` answers every strategy's jump query at
    once (NumPy orders complex numbers by real part, then imaginary part).
    ``recovery[e]`` is the recovery cost of the segment that entry ``e``
    attempts next (``0.0`` on a final entry) and ``last[e]`` marks a
    strategy's final entry.  Built once per campaign and shipped to pool
    workers as plain arrays.
    """

    keys: np.ndarray
    recovery: np.ndarray
    last: np.ndarray
    starts: np.ndarray


def _replay_tables(segment_lists: Sequence[Sequence[Segment]]) -> _ReplayTables:
    """The :class:`_ReplayTables` of ``segment_lists`` (one list per strategy)."""
    if not segment_lists:
        raise ValueError("segment_lists must not be empty")
    if any(len(segments) == 0 for segments in segment_lists):
        raise ValueError("every strategy needs at least one segment")
    sizes = np.array([len(segments) + 1 for segments in segment_lists], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    keys = np.zeros(int(ends[-1]), dtype=complex)
    keys.real = np.repeat(np.arange(len(segment_lists)), sizes)
    recovery = np.zeros(keys.size)
    for start, segments in zip(starts.tolist(), segment_lists):
        stop = start + len(segments)
        attempt, recovery[start:stop] = _segment_durations(segments)
        # np.cumsum is a sequential fold: the scalar executor's own sums.
        keys.imag[start + 1 : stop + 1] = np.cumsum(attempt)
    last = np.zeros(keys.size, dtype=bool)
    last[ends - 1] = True
    return _ReplayTables(keys, recovery, last, starts)


def _replay_batch(tables: _ReplayTables, times: np.ndarray, downtime: float) -> np.ndarray:
    """Replay every strategy of ``tables`` against every row of ``times``.

    The kernel behind :func:`replay_traces_batch`, which checks its inputs;
    ``times`` must already be a float matrix whose rows end in ``+inf``.
    """
    keys, recovery, last, starts = tables
    prefix = keys.imag
    num_traces, width = times.shape
    times_flat = times.ravel()
    # Per-row state, strategy-major: global table entry ``g``, flat position
    # ``pos`` of the row's next event in ``times_flat``, clock ``now`` and
    # whether the event that ended the row's previous round owes a recovery.
    # Finished rows are squeezed out (their makespan scattered through
    # ``out_index``), so every call touches only the rows still executing.
    g = np.repeat(starts, num_traces)
    pos = np.tile(np.arange(0, num_traces * width, width, dtype=np.int64), starts.size)
    out_index = np.arange(g.size)
    makespans = np.empty(g.size)
    now = np.zeros(g.size)
    pending = np.zeros(g.size, dtype=bool)

    # Round structure: recover (if owed and it fits), jump segments, absorb
    # the next failure.  The rounds that matter most hold a handful of rows,
    # so the cheapest NumPy call that does each job is used:
    # ``np.count_nonzero`` for "any", ``np.putmask`` and masked ufuncs for
    # conditional updates (a row left out of a masked ``+`` keeps its clock,
    # exactly as ``now + 0.0`` would).
    round_index = 0
    while now.size:
        t = times_flat[pos]
        # Skip events at or before the current time (they fell inside a
        # downtime window), as TraceFailureSource does at query time.
        while True:
            stale = t <= now
            if not np.count_nonzero(stale):
                break
            pos[stale] += 1
            t[stale] = times_flat[pos[stale]]

        # Pending recoveries: the ones that fit before the event complete
        # and re-attempt their segment within the same round.
        rec = recovery[g]
        recovered = pending & (t - now >= rec)
        np.add(now, rec, out=now, where=recovered)

        # Segment jumps, all strategies in one search: the last entry of the
        # row's own strategy whose prefix is <= (t - now) + prefix[g].  IEEE
        # addition commutes, so the in-place sum is that very float.  A row
        # whose recovery did not fit attempts nothing: it keeps its entry,
        # so its advance is exactly zero.
        query = keys[g]
        before = prefix[g]
        query.imag += t - now
        reach = keys.searchsorted(query, side="right")
        reach -= 1
        np.putmask(g, pending == recovered, reach)  # rows not blocked by a recovery
        now += prefix[g] - before

        finished = last[g]
        if np.count_nonzero(finished):
            makespans[out_index[finished]] = now[finished]
            keep = ~finished
            now = now[keep]
            g = g[keep]
            pos = pos[keep]
            out_index = out_index[keep]
            t = t[keep]

        # Every surviving row whose clock has not caught up with the event is
        # struck by it -- during its recovery (if it did not fit) or during
        # the segment that did not fit (it jumped short of its final entry).
        # A row that landed *exactly* on the event time (an attempt or
        # recovery completing at the very instant of a trace event) is not
        # struck: the scalar TraceFailureSource skips events at or before
        # `now` when next queried, so these rows simply advance their
        # position through the stale-event loop next round and re-attempt
        # against the next event.
        pending = t > now
        np.putmask(now, pending, t + downtime)
        pos += pending  # consume the event that just struck

        round_index += 1
        if round_index > 2 * _MAX_FAILURES_PER_RUN:
            # Batch analogue of the scalar executor's per-run failure cap:
            # every round either strikes a failure into a surviving row or
            # (after an exact event-time tie) consumes a stale event.
            raise RuntimeError(
                "simulation aborted after "
                f"{_MAX_FAILURES_PER_RUN} failures; the instance parameters "
                "make completion astronomically unlikely"
            )

    return makespans.reshape(starts.size, num_traces)


def replay_traces_batch(
    segment_lists: Sequence[Sequence[Segment]],
    times: np.ndarray,
    downtime: float,
) -> np.ndarray:
    """Replay every strategy against every trace in one stacked lock-step loop.

    ``segment_lists`` holds one segment decomposition per strategy and
    ``times`` a ``(num_traces, width)`` padded time matrix from
    :func:`generate_trace_times_batch`: each row's event times in increasing
    order, ending in ``+inf``.  All ``num_strategies * num_traces``
    executions advance together, one *failure* (not one segment attempt) per
    lock-step round: every round completes the pending recovery, jumps over
    all consecutive segments that fit before the next trace event, and then
    absorbs that event.  Rounds therefore scale with the failure count, not
    the segment count.  The jump is one ``searchsorted`` per round for every
    row of every strategy: the strategies' prefix sums of segment durations
    lie end to end in one table, keyed by ``strategy + 1j * prefix``.  This
    function builds that table on every call; a vectorized
    :class:`~repro.simulation.campaign.CampaignRunner` run builds it once
    and replays every chunk from it.

    The returned matrix has shape ``(num_strategies, num_traces)`` and
    matches replaying each trace through the scalar executor with a
    :class:`~repro.simulation.engine.TraceFailureSource` to floating-point
    rounding (the prefix-sum jumps re-associate the duration additions, so
    agreement is to ~1 ulp per segment rather than bit-for-bit; the
    equivalence tests pin it at 1e-9 relative).

    Raises ``ValueError`` naming the first offending row when a row of
    ``times`` holds a NaN or does not end in ``+inf``: without its sentinel
    a row would run on into the next row's events.
    """
    check_non_negative("downtime", downtime)
    tables = _replay_tables(segment_lists)
    times = np.asarray(times, dtype=float)
    if times.ndim != 2:
        raise ValueError(f"times must be a 2-D padded matrix, got shape {times.shape}")
    num_traces, width = times.shape
    closed = times[:, -1] == np.inf if width else np.zeros(num_traces, dtype=bool)
    bad = np.flatnonzero(np.isnan(times).any(axis=1) | ~closed)
    if bad.size:
        row = int(bad[0])
        problem = (
            "holds a NaN event time" if np.isnan(times[row]).any()
            else "does not end with a +inf sentinel"
        )
        raise ValueError(f"times row {row} {problem}")
    return _replay_batch(tables, times, downtime)
