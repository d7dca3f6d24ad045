"""The vectorized campaign engine's replay kernel, pinned bit for bit.

``replay_traces_batch`` advances every row of every strategy with one
``searchsorted`` per round, over a flat table of complex keys
``strategy + 1j * prefix``.  Its contract is the per-strategy loop it
replaced: the same floats, row by row, in the same order.  That loop lives
here as the oracle (:func:`reference_replay`), and every comparison below is
``np.array_equal`` -- on Hypothesis-built traces full of ties, on a seeded
corpus of generated traces and, through golden digests recorded before the
rewrite, on whole ``ScenarioSpec.run()`` campaigns.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.strategies import evaluate_chain_strategies
from repro.core.schedule import Schedule, Segment
from repro.failures.distributions import (
    ExponentialFailure,
    LogNormalFailure,
    WeibullFailure,
)
from repro.runtime import ChainSpec, FailureSpec, ProcessPoolBackend, ScenarioSpec
from repro.simulation.campaign import CampaignRunner
from repro.simulation.executor import _MAX_FAILURES_PER_RUN
from repro.simulation import vectorized
from repro.simulation.vectorized import generate_trace_times_batch, replay_traces_batch
from repro.workflows.generators import uniform_random_chain


@pytest.fixture(autouse=True, scope="module")
def _low_round_cap():
    """No case here needs more than a few hundred rounds: a stalled kernel fails fast."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_MAX_FAILURES_PER_RUN", 5_000)
        yield


def _segment_durations(segments):
    attempt = np.array([s.work + s.checkpoint_cost for s in segments], dtype=float)
    recovery = np.array([s.recovery_cost for s in segments], dtype=float)
    return attempt, recovery


def reference_replay(segment_lists, times, downtime):
    """The per-strategy lock-step replay loop that the fused kernel replaced.

    Kept as it was, apart from input checks: one ``searchsorted`` per
    strategy per round against that strategy's own prefix sums, rows
    regrouped by strategy whenever some finish.
    """
    times = np.asarray(times, dtype=float)
    num_strategies = len(segment_lists)
    num_traces, width = times.shape

    seg_counts = np.array([len(segs) for segs in segment_lists], dtype=np.int64)
    max_segments = int(seg_counts.max())
    attempt_dur = np.zeros((num_strategies, max_segments))
    recovery_dur = np.zeros((num_strategies, max_segments))
    for index, segs in enumerate(segment_lists):
        attempt, recovery = _segment_durations(segs)
        attempt_dur[index, : len(segs)] = attempt
        recovery_dur[index, : len(segs)] = recovery

    rows = num_strategies * num_traces
    prefixes = [
        np.concatenate(([0.0], np.cumsum(attempt_dur[s, : seg_counts[s]])))
        for s in range(num_strategies)
    ]

    times_flat = times.ravel()
    recovery_flat = recovery_dur.ravel()
    trace_base = np.tile(np.arange(num_traces, dtype=np.int64) * width, num_strategies)
    duration_base = np.repeat(
        np.arange(num_strategies, dtype=np.int64) * max_segments, num_traces
    )
    strat = np.repeat(np.arange(num_strategies, dtype=np.int64), num_traces)
    limit = np.repeat(seg_counts, num_traces)
    out_index = np.arange(rows)

    makespans = np.empty(rows)
    now = np.zeros(rows)
    seg = np.zeros(rows, dtype=np.int64)
    cursor = np.zeros(rows, dtype=np.int64)
    pending_recovery = np.zeros(rows, dtype=bool)
    strategy_ids = np.arange(num_strategies + 1)
    bounds = None

    round_index = 0
    while now.size:
        next_time = times_flat[trace_base + cursor]
        while True:
            stale = next_time <= now
            if not stale.any():
                break
            cursor[stale] += 1
            next_time[stale] = times_flat[trace_base[stale] + cursor[stale]]

        if not pending_recovery.any():
            attempting = np.ones(now.size, dtype=bool)
        else:
            rec_cost = recovery_flat[duration_base + seg]
            recovered = pending_recovery & (next_time - now >= rec_cost)
            now += np.where(recovered, rec_cost, 0.0)
            attempting = ~pending_recovery | recovered

        if bounds is None:
            bounds = np.searchsorted(strat, strategy_ids)
        for s in range(num_strategies):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            prefix = prefixes[s]
            prefix_at_seg = prefix[seg[lo:hi]]
            reach = np.searchsorted(
                prefix, next_time[lo:hi] - now[lo:hi] + prefix_at_seg,
                side="right",
            ) - 1
            reach = np.where(attempting[lo:hi], reach, seg[lo:hi])
            now[lo:hi] += prefix[reach] - prefix_at_seg
            seg[lo:hi] = reach

        finished = seg >= limit
        if finished.any():
            makespans[out_index[finished]] = now[finished]
            keep = ~finished
            now = now[keep]
            seg = seg[keep]
            cursor = cursor[keep]
            trace_base = trace_base[keep]
            duration_base = duration_base[keep]
            strat = strat[keep]
            limit = limit[keep]
            out_index = out_index[keep]
            next_time = next_time[keep]
            bounds = None

        if now.size:
            struck = next_time > now
            now = np.where(struck, next_time + downtime, now)
            cursor += struck
            pending_recovery = struck

        round_index += 1
        if round_index > 2 * _MAX_FAILURES_PER_RUN:
            raise RuntimeError("reference replay exceeded the failure cap")

    return makespans.reshape(num_strategies, num_traces)


def _padded(rows, extra_columns=1):
    """Event-time rows as a matrix padded with (at least one column of) +inf."""
    width = max((len(row) for row in rows), default=0) + extra_columns
    times = np.full((len(rows), width), np.inf)
    for index, row in enumerate(rows):
        times[index, : len(row)] = row
    return times


def _assert_kernel_matches(segment_lists, times, downtime):
    got = replay_traces_batch(segment_lists, times, downtime)
    expected = reference_replay(segment_lists, times, downtime)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected), np.flatnonzero(got != expected)


# ----------------------------------------------------------------------
# Hypothesis: strategies full of zero costs, traces full of ties
# ----------------------------------------------------------------------


def _segment(work, checkpoint, recovery):
    return Segment(
        tasks=("T",), work=work, checkpoint_cost=checkpoint, recovery_cost=recovery,
        checkpointed=checkpoint > 0.0,
    )


_costs = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
_segment_lists = st.lists(
    st.lists(st.builds(_segment, st.floats(0.0, 30.0), _costs, _costs),
             min_size=1, max_size=40),
    min_size=1, max_size=6,
)
_downtimes = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 5.0))


@st.composite
def _replay_cases(draw):
    """Strategies, a padded trace matrix and a downtime.

    Event times mix uniform draws with the instants where the executor's
    clock lands: failure-free completion instants, completions after a
    failure at an earlier event (downtime, recovery, then segments, summed
    in the executor's order), duplicates and instants inside the downtime
    that follows an event.  Some rows hold only the sentinel.
    """
    segment_lists = draw(_segment_lists)
    downtime = draw(_downtimes)
    ends = sorted({
        end
        for segments in segment_lists
        for end in itertools.accumulate(s.work + s.checkpoint_cost for s in segments)
    })
    horizon = 1.5 * ends[-1] + 1.0
    events = st.one_of(st.just(0.0), st.floats(0.0, horizon), st.sampled_from(ends))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.lists(events, max_size=12))
        if row:
            picks = st.sampled_from(row)
            row += draw(st.lists(picks, max_size=3))  # duplicates
            for event in draw(st.lists(picks, max_size=3)):
                # A completion after a failure at `event`, on the executor's clock.
                segments = draw(st.sampled_from(segment_lists))
                first = draw(st.integers(0, len(segments) - 1))
                clock = event + downtime
                clock += segments[first].recovery_cost
                for segment in segments[first : draw(st.integers(first + 1, len(segments)))]:
                    clock += segment.work + segment.checkpoint_cost
                row.append(clock)
            for event in draw(st.lists(picks, max_size=3)):
                row.append(event + downtime * draw(st.sampled_from([0.5, 1.0])))
        rows.append(sorted(row))
    return segment_lists, _padded(rows, draw(st.integers(1, 3))), downtime


class TestFusedKernelProperty:
    @settings(max_examples=400, deadline=None)
    @given(case=_replay_cases())
    def test_matches_per_strategy_loop(self, case):
        segment_lists, times, downtime = case
        _assert_kernel_matches(segment_lists, times, downtime)

    @pytest.mark.parametrize("downtime", [0.0, 0.5])
    def test_hand_built_ties(self, downtime):
        # Zero-cost segments (equal prefix sums), an event at t = 0, events
        # on completion instants, duplicates, events inside the downtime and
        # a row holding only the sentinel.
        segment_lists = [
            [_segment(10.0, 1.0, 2.0), _segment(0.0, 0.0, 0.0), _segment(5.0, 0.0, 1.0)],
            [_segment(3.0, 0.0, 0.0), _segment(3.0, 0.0, 0.0), _segment(0.0, 0.0, 3.0),
             _segment(4.0, 1.0, 0.0)],
            [_segment(16.0, 0.0, 0.0)],
        ]
        rows = [
            [],
            [0.0],
            [11.0],
            [3.0, 6.0, 6.0, 11.0],
            [4.0, 4.0, 4.25, 4.5, 5.0, 7.0],
            [0.0, 2.0, 2.5, 6.0, 6.5, 16.0, 16.0, 30.0],
        ]
        _assert_kernel_matches(segment_lists, _padded(rows), downtime)

    @pytest.mark.parametrize(
        "costs, downtime, events, makespan",
        [
            # The second event lands exactly where a row struck by the first
            # one completes the chain: (t - now) + prefix reaches the final
            # entry, t - (now - prefix) falls an ulp short and is struck.
            ([(0.7, 0.6, 0.8), (2.4, 1.0, 0.4), (1.4, 0.3, 0.4)], 0.9, [1.97, 8.37], 8.37),
            ([(0.7, 0.5, 0.9), (1.2, 0.3, 0.7), (3.0, 1.0, 0.8)], 0.1, [1.47, 7.77], 7.77),
        ],
    )
    def test_jump_query_keeps_its_addition_order(self, costs, downtime, events, makespan):
        segment_lists = [[_segment(*cost) for cost in costs]]
        _assert_kernel_matches(segment_lists, _padded([events]), downtime)
        assert replay_traces_batch(segment_lists, _padded([events]), downtime)[0, 0] == makespan


# ----------------------------------------------------------------------
# A seeded corpus of generated traces on chain strategies
# ----------------------------------------------------------------------

LAWS = {
    "exponential": lambda mtbf: ExponentialFailure.from_mtbf(mtbf),
    "weibull": lambda mtbf: WeibullFailure.from_mtbf(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailure.from_mtbf(mtbf, sigma=1.0),
}
CHAIN_STRATEGIES = ("optimal_dp", "checkpoint_all", "checkpoint_none", "daly_period")


def _chain_segments(n, downtime, rate):
    chain = uniform_random_chain(n, seed=n)
    placements = evaluate_chain_strategies(chain, downtime, rate, only=list(CHAIN_STRATEGIES))
    schedules = [placements[name].to_schedule() for name in CHAIN_STRATEGIES]
    longest = max(schedule.failure_free_time() for schedule in schedules)
    return [schedule.segments() for schedule in schedules], longest


class TestGeneratedCorpus:
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    @pytest.mark.parametrize("num_processors", [1, 3])
    @pytest.mark.parametrize("load", [0.2, 1.0, 4.0])
    def test_matches_per_strategy_loop(self, law_name, num_processors, load):
        # load = (platform failure rate) x (the chain's total work).
        for n, downtime, count in itertools.product((1, 10, 200), (0.0, 0.5), (1, 7, 250)):
            rate = load / sum(uniform_random_chain(n, seed=n).works)
            segment_lists, longest = _chain_segments(n, downtime, rate)
            law = LAWS[law_name](num_processors / rate)
            rng = np.random.default_rng([n, num_processors, int(10 * load), count])
            times = generate_trace_times_batch(law, 10.0 * longest, num_processors, rng, count)
            _assert_kernel_matches(segment_lists, times, downtime)


# ----------------------------------------------------------------------
# Whole campaigns: digests recorded before the fused kernel
# ----------------------------------------------------------------------


def _golden_spec(index, n, kind, load, num_processors, downtime, num_runs):
    chain = ChainSpec(n=n, seed=100 + index)
    params = {"weibull": {"shape": 0.7}, "lognormal": {"sigma": 1.0}}.get(kind, {})
    mtbf = num_processors * sum(chain.build().works) / load
    return ScenarioSpec(
        name=f"golden-{index}",
        chain=chain,
        failure=FailureSpec(kind=kind, mtbf=mtbf, **params),
        strategies=CHAIN_STRATEGIES,
        num_runs=num_runs,
        downtime=downtime,
        num_processors=num_processors,
        seed=200 + index,
        engine="vectorized",
    )


GOLDEN_SPECS = [
    _golden_spec(index, *params)
    for index, params in enumerate([
        (1, "exponential", 0.5, 1, 0.0, 300),
        (5, "exponential", 4.0, 1, 0.5, 600),
        (12, "exponential", 1.0, 3, 0.5, 1),
        (40, "exponential", 0.2, 2, 0.0, 1200),
        (3, "weibull", 1.0, 1, 0.5, 700),
        (20, "weibull", 4.0, 3, 0.0, 250),
        (60, "weibull", 0.5, 1, 0.5, 1000),
        (120, "weibull", 1.0, 2, 0.5, 7),
        (8, "lognormal", 0.2, 1, 0.0, 500),
        (30, "lognormal", 4.0, 2, 0.5, 900),
        (90, "lognormal", 1.0, 3, 0.0, 251),
        (200, "lognormal", 0.5, 1, 0.5, 400),
    ])
]

#: sha256 of each spec's samples (:func:`_digest`), recorded with the
#: per-strategy replay loop that :func:`reference_replay` preserves.
GOLDEN_DIGESTS = {
    "golden-0": "ef8dafcaff80f16832d445f474550c4fe2721867d79d43c7e439e0414c7affef",
    "golden-1": "6302e688fe2bad2249fd40baa6819d0bb2394d4f5e66887ebab71327f76ea15a",
    "golden-2": "cb53286a0b479b17276a4cd4899696bf13db8d540b3e5c45bcfb674a795d7261",
    "golden-3": "0361da9cd1ea346858d0ad03df5934d7c4d7f487813360d8cb6f058860ab8e4e",
    "golden-4": "b230ae910e2fc1523d05ba994d6f029788cb0c50e894c35ff473e87e85bc67b8",
    "golden-5": "757e74b4ca9425be615030cf2bc90c9021f115b3076f3eb8d9310d05296fbd09",
    "golden-6": "923b112f313b31698ed123279286d488d79cac3678317e7aca3e4b764962fb22",
    "golden-7": "974cb44ff50b5a1391da0fefa36e449ce42a22278ddf74d6ac07aa2d46bea4e1",
    "golden-8": "9acc07b3835d74c052571522e53ff2d4651f316dabd3261b83631ff0dd1e4289",
    "golden-9": "049c831d9813e6d3bc71757b9a1bc4bfa1e4ba1ed71a3792d7e9c01f81cc3c38",
    "golden-10": "cfdfff68afca5f8b9ee593c124fbdf259fbb9cab174639f6d46176d0663942f7",
    "golden-11": "2d882b72dcd4c26fe9556e6c35a5557a3c4a388c93b57643e8b5280652f30119",
}


def _digest(spec, makespans):
    digest = hashlib.sha256()
    for name in spec.strategies:
        digest.update(name.encode())
        digest.update(np.asarray(makespans[name], dtype="<f8").tobytes())
    return digest.hexdigest()


class TestGoldenCampaigns:
    @pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda spec: spec.name)
    def test_samples_match_recorded_digest(self, spec):
        assert _digest(spec, spec.run().makespans) == GOLDEN_DIGESTS[spec.name]

    def test_pool_workers_replay_the_shipped_tables_identically(self):
        # The vectorized chunk task carries pickled replay tables to the
        # workers: four chunks over two processes give the recorded samples.
        spec = GOLDEN_SPECS[6]
        with ProcessPoolBackend(2) as pool:
            pooled = spec.run(backend=pool)
        assert _digest(spec, pooled.makespans) == GOLDEN_DIGESTS[spec.name]


# ----------------------------------------------------------------------
# Input checks and extreme laws
# ----------------------------------------------------------------------


class TestTraceMatrixChecks:
    @pytest.fixture
    def segments(self):
        return Schedule.for_chain(uniform_random_chain(5, seed=1), [4]).segments()

    def test_a_row_without_sentinel_does_not_read_the_next_row(self, segments):
        with pytest.raises(ValueError, match="times row 0 does not end with a \\+inf sentinel"):
            replay_traces_batch([segments], np.array([[1.0, 2.0, 3.0], [10.0, 20.0, np.inf]]), 0.5)
        # With its sentinel the same row replays on its own events only.
        closed = np.array([[1.0, 2.0, 3.0, np.inf], [10.0, 20.0, np.inf, np.inf]])
        got = replay_traces_batch([segments], closed, 0.5)
        assert got[0, 0] == pytest.approx(34.4271357, abs=1e-6)

    def test_a_last_row_without_sentinel_is_a_value_error(self, segments):
        with pytest.raises(ValueError, match="times row 1 does not end"):
            replay_traces_batch([segments], np.array([[1.0, np.inf], [10.0, 20.0]]), 0.5)
        with pytest.raises(ValueError, match="times row 0 does not end"):
            replay_traces_batch([segments], np.zeros((2, 0)), 0.5)

    def test_a_nan_event_is_a_value_error(self, segments):
        times = np.array([[1.0, np.inf], [np.nan, np.inf], [np.inf, np.nan]])
        with pytest.raises(ValueError, match="times row 1 holds a NaN"):
            replay_traces_batch([segments], times, 0.5)

    def test_other_arguments_are_checked(self, segments):
        times = np.array([[np.inf]])
        with pytest.raises(ValueError, match="segment_lists must not be empty"):
            replay_traces_batch([], times, 0.5)
        with pytest.raises(ValueError, match="at least one segment"):
            replay_traces_batch([segments, []], times, 0.5)
        with pytest.raises(ValueError, match="2-D"):
            replay_traces_batch([segments], np.array([np.inf]), 0.5)
        with pytest.raises(ValueError):
            replay_traces_batch([segments], times, -1.0)
        assert replay_traces_batch([segments], np.empty((0, 3)), 0.5).shape == (1, 0)


class TestOverflowingMean:
    @pytest.mark.parametrize(
        "law",
        [LogNormalFailure(mu=0.0, sigma=40.0), WeibullFailure(shape=0.005, scale=10.0)],
        ids=["lognormal", "weibull"],
    )
    def test_vectorized_campaign_runs(self, law):
        # law.mean() overflows float; the generator then plans no renewal
        # and its extension loop draws whatever the horizon needs.
        chain = uniform_random_chain(5, seed=1)
        schedules = {"all": Schedule.for_chain(chain, range(chain.n)),
                     "none": Schedule.for_chain(chain, [chain.n - 1])}
        result = CampaignRunner(schedules, law, downtime=0.5).run(
            2000, seed=3, engine="vectorized")
        for name, schedule in schedules.items():
            samples = np.asarray(result.makespans[name])
            assert samples.size == 2000
            assert np.all(samples >= schedule.failure_free_time())

    def test_planned_draws_per_renewal_chain(self):
        # 24 + int(1.6 x horizon / mean) columns when no extension is needed;
        # an overflowing mean plans none beyond the 24.
        rng = np.random.default_rng(0)
        finite = generate_trace_times_batch(ExponentialFailure.from_mtbf(10.0), 100.0, 1, rng, 3)
        assert finite.shape == (3, 40)
        huge = generate_trace_times_batch(LogNormalFailure(mu=0.0, sigma=40.0), 1.0, 1, rng, 3)
        assert huge.shape == (3, 24)
