"""Exactness of the scalar campaign engine against the per-run reference loop.

The scalar chunk draws its traces in blocks (``iter_trace_times``) and replays
them as plain floats (``replay_trace``).  Its samples must equal, bit for bit,
what ``generate_trace`` -> ``TraceFailureSource`` -> ``simulate_segments``
produce run by run on the same generator.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule, Segment
from repro.failures import traces as traces_module
from repro.failures.distributions import (
    ExponentialFailure,
    FailureDistribution,
    LogNormalFailure,
    WeibullFailure,
)
from repro.failures.platform import Platform
from repro.failures.traces import FailureEvent, FailureTrace, generate_trace, iter_trace_times
from repro.simulation.campaign import _campaign_chunk
from repro.simulation.engine import PoissonFailureSource, TraceFailureSource
from repro.simulation.executor import replay_trace, simulate_segments
from repro.workflows.generators import uniform_random_chain

LAWS = {
    "exponential": lambda mtbf: ExponentialFailure.from_mtbf(mtbf),
    "weibull": lambda mtbf: WeibullFailure.from_mtbf(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailure.from_mtbf(mtbf, sigma=1.0),
}


def _durations(segments):
    return [(s.work + s.checkpoint_cost, s.recovery_cost) for s in segments]


def _reference_chunk(segments, law, horizon, num_processors, downtime, seed, count):
    """The per-run event loop the scalar chunk replaced, on one generator."""
    rng = np.random.default_rng(seed)
    makespans = {name: [] for name in segments}
    for _ in range(count):
        trace = generate_trace(law, horizon=horizon, num_processors=num_processors, rng=rng)
        for name, segs in segments.items():
            result = simulate_segments(segs, TraceFailureSource(trace), downtime, rng=rng)
            makespans[name].append(result.makespan)
    return makespans


@pytest.fixture(scope="module")
def strategy_segments():
    chain = uniform_random_chain(12, checkpoint_range=(0.5, 2.0), seed=3)
    schedules = {
        "all": Schedule.for_chain(chain, range(chain.n)),
        "none": Schedule.for_chain(chain, [chain.n - 1]),
        "odd": Schedule.for_chain(chain, range(1, chain.n, 2)),
    }
    segments = {name: schedule.segments() for name, schedule in schedules.items()}
    longest = max(schedule.failure_free_time() for schedule in schedules.values())
    return segments, longest


class TestCampaignChunkExactness:
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    @pytest.mark.parametrize("num_processors", [1, 4])
    @pytest.mark.parametrize("count", [1, 10, 250])
    def test_chunk_equals_per_run_reference(
        self, strategy_segments, law_name, num_processors, count
    ):
        segments, longest = strategy_segments
        horizon = 10.0 * longest
        for index, (load, downtime) in enumerate(
            itertools.product((0.2, 1.0, 6.0), (0.0, 0.5))
        ):
            # load = (platform failure rate) x (longest failure-free time).
            law = LAWS[law_name](longest * num_processors / load)
            seed = np.random.SeedSequence([count, num_processors, index])
            expected = _reference_chunk(
                segments, law, horizon, num_processors, downtime, seed, count
            )
            got, _ = _campaign_chunk(
                (segments, law, horizon, num_processors, downtime, seed, count, None)
            )
            assert got == expected, (load, downtime)


class TestIterTraceTimes:
    @pytest.mark.parametrize("law_name", sorted(LAWS))
    @pytest.mark.parametrize("num_processors", [1, 3])
    def test_rows_equal_successive_generate_trace(self, law_name, num_processors):
        law = LAWS[law_name](40.0)
        reference_rng = np.random.default_rng(21)
        rng = np.random.default_rng(21)
        rows = list(iter_trace_times(law, 400.0, 30, num_processors=num_processors, rng=rng))
        assert len(rows) == 30
        for row in rows:
            trace = generate_trace(
                law, horizon=400.0, num_processors=num_processors, rng=reference_rng
            )
            assert row == trace.times + [math.inf]

    @pytest.mark.parametrize("num_processors", [1, 2])
    def test_event_exactly_at_the_horizon_is_dropped(self, num_processors):
        # Inter-arrival times of exactly 2.5 put a renewal on t = 10.0; a
        # horizon of 10.0 ends the trace there, on both paths.
        class Every(FailureDistribution):
            def pdf(self, t):
                return 0.0

            def cdf(self, t):
                return float(t >= 2.5)

            def mean(self):
                return 2.5

            def sample(self, rng, size=None):
                return 2.5 if size is None else np.full(size, 2.5)

        reference = generate_trace(Every(), 10.0, num_processors=num_processors, rng=None)
        rows = iter_trace_times(Every(), 10.0, 2, num_processors=num_processors,
                                rng=np.random.default_rng(0))
        for row in rows:
            assert row == reference.times + [math.inf]
            assert row[-2] == 7.5

    @pytest.mark.parametrize(
        "law, horizon",
        [
            # math.exp overflows in mean(); the block size cannot use it.
            (LogNormalFailure(mu=0.0, sigma=40.0), 1.0),
            # horizon / mean is infinite: blocks stay at the cap.
            (ExponentialFailure(1e300), 1e10),
        ],
    )
    def test_block_size_from_extreme_means(self, law, horizon, monkeypatch):
        monkeypatch.setattr(traces_module, "_MAX_TRACE_EVENTS", 50)
        reference_rng = np.random.default_rng(4)
        rows = iter_trace_times(law, horizon, 5, num_processors=2, rng=np.random.default_rng(4))
        for _ in range(5):
            try:
                expected = generate_trace(law, horizon, num_processors=2, rng=reference_rng)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="5e6 events"):
                    next(rows)
                return
            assert next(rows) == expected.times + [math.inf]

    def test_argument_checks_match_generate_trace(self, rng):
        law = ExponentialFailure(0.1)
        for horizon, num_processors in ((0.0, 1), (-1.0, 1), (10.0, 0)):
            with pytest.raises(ValueError):
                generate_trace(law, horizon, num_processors=num_processors, rng=rng)
            with pytest.raises(ValueError):
                next(iter_trace_times(law, horizon, 1, num_processors=num_processors, rng=rng))
        with pytest.raises(ValueError):
            next(iter_trace_times(law, 10.0, 0, num_processors=1, rng=rng))

    @pytest.mark.parametrize("num_processors", [1, 3])
    def test_event_cap_raises_like_generate_trace(self, monkeypatch, num_processors):
        # A small cap stands in for 5e6: each seed gives traces on both sides
        # of it, and the two functions must agree on which trace raises.
        monkeypatch.setattr(traces_module, "_MAX_TRACE_EVENTS", 12)
        law = ExponentialFailure(1.0)
        outcomes = set()
        for seed in range(40):
            reference_rng = np.random.default_rng(seed)
            rows = iter_trace_times(
                law, 10.0 / num_processors, 3, num_processors=num_processors,
                rng=np.random.default_rng(seed),
            )
            for _ in range(3):
                try:
                    expected = generate_trace(
                        law, 10.0 / num_processors, num_processors=num_processors,
                        rng=reference_rng,
                    ).times + [math.inf]
                except RuntimeError as exc:
                    with pytest.raises(RuntimeError) as raised:
                        next(rows)
                    assert str(raised.value) == str(exc)
                    assert "5e6 events" in str(exc)
                    outcomes.add("raised")
                    break
                assert next(rows) == expected
                outcomes.add("passed")
        assert outcomes == {"raised", "passed"}


class TestBlockDraws:
    """The NumPy behaviour the scalar engine rests on."""

    @pytest.mark.parametrize("law_name", sorted(LAWS))
    def test_block_draws_equal_scalar_draws(self, law_name):
        law = LAWS[law_name](25.0)
        for sizes in ([300], [1, 2, 297], [7] * 42 + [6], [150, 150]):
            scalar_rng = np.random.default_rng(8)
            block_rng = np.random.default_rng(8)
            scalar = [law.sample(scalar_rng) for _ in range(300)]
            blocks = np.concatenate([law.sample(block_rng, size=k) for k in sizes])
            assert blocks.tolist() == scalar, sizes
            assert block_rng.bit_generator.state == scalar_rng.bit_generator.state, sizes


def _segment(work, checkpoint, recovery):
    return Segment(
        tasks=("T",), work=work, checkpoint_cost=checkpoint, recovery_cost=recovery,
        checkpointed=checkpoint > 0.0,
    )


def _assert_replay_matches(segments, event_times, downtime):
    horizon = max([1.0, *event_times])
    trace = FailureTrace(
        events=tuple(FailureEvent(t) for t in event_times), horizon=horizon
    )
    expected = simulate_segments(segments, TraceFailureSource(trace), downtime).makespan
    got = replay_trace(_durations(segments), trace.times + [math.inf], downtime)
    assert got == expected


_costs = st.one_of(st.just(0.0), st.floats(0.0, 20.0, allow_nan=False))
_segments = st.lists(
    st.builds(_segment, st.floats(0.0, 30.0), _costs, _costs), min_size=1, max_size=8
)
_times = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 400.0, allow_nan=False)), max_size=40
)
_downtimes = st.one_of(st.just(0.0), st.floats(0.0, 5.0))


class TestReplayTrace:
    @settings(max_examples=300, deadline=None)
    @given(segments=_segments, event_times=_times, downtime=_downtimes)
    def test_matches_simulate_segments(self, segments, event_times, downtime):
        _assert_replay_matches(segments, event_times, downtime)

    @settings(max_examples=150, deadline=None)
    @given(segments=_segments, data=st.data(), downtime=_downtimes)
    def test_events_on_attempt_boundaries(self, segments, data, downtime):
        # Events exactly at failure-free completion instants, repeated, plus
        # one at t = 0: the boundary cases of `delay >= duration`.
        ends = list(itertools.accumulate(s.work + s.checkpoint_cost for s in segments))
        picks = data.draw(st.lists(st.sampled_from(ends), max_size=6))
        _assert_replay_matches(segments, sorted([0.0, *picks, *picks]), downtime)

    @pytest.mark.parametrize(
        "event_times",
        [
            [],  # no events at all
            [0.0],  # an event at t = 0 never strikes
            [11.0],  # exactly at the first attempt's completion
            [4.0, 4.0, 4.0],  # duplicate times
            [4.0, 5.0, 6.0, 7.0],  # failures during downtime and recovery
            [0.0, 4.0, 4.0, 7.0, 18.0, 18.0, 30.0],
        ],
    )
    @pytest.mark.parametrize("downtime", [0.0, 1.0])
    def test_hand_built_traces(self, event_times, downtime):
        segments = [_segment(10.0, 1.0, 2.0), _segment(5.0, 0.0, 0.0), _segment(6.0, 1.0, 0.0)]
        _assert_replay_matches(segments, event_times, downtime)

    @pytest.mark.parametrize(
        "segments, event_times, downtime",
        [
            # (0.1 + 0.2) + 0.3 != 0.1 + ((0.1 + 0.2 - 0.1) + 0.3): a failure
            # after a completed segment must add the delay, then the downtime.
            ([(0.1, 0.0, 0.0), (4.0, 1.0, 0.0)], [0.1 + 0.2], 0.3),
            # The same within a recovery interrupted at 0.1 + 0.7.
            ([(4.0, 1.0, 1.3)], [0.1, 0.1 + 0.7], 0.1),
        ],
    )
    def test_addition_order_is_kept(self, segments, event_times, downtime):
        _assert_replay_matches([_segment(*costs) for costs in segments], event_times, downtime)


class TestHopelessPoissonSegments:
    def test_refused_before_any_draw(self):
        segment = _segment(1000.0, 0.0, 0.0)
        for model in (100.0, ExponentialFailure(100.0),
                      Platform(num_processors=4, failure_law=ExponentialFailure(25.0))):
            rng = np.random.default_rng(1)
            state = rng.bit_generator.state
            with pytest.raises(RuntimeError, match="cap of 10000000 failures"):
                simulate_segments([segment], model, 0.0, rng=rng)
            assert rng.bit_generator.state == state

    def test_threshold_is_on_expected_attempts(self):
        # Refused when e^{lambda (W + C)} exceeds 1e6 x the 1e7 failure cap,
        # i.e. when the exponent exceeds ln(1e13) = 29.93.  A Poisson source
        # that never fires shows where the check draws the line.
        class NoFailures(PoissonFailureSource):
            def time_to_next_failure(self, now):
                return math.inf

        threshold = math.log(1e13)
        under = [_segment(threshold * 0.999 - 1.0, 1.0, 0.0)]
        over = [_segment(threshold * 1.001 - 1.0, 1.0, 0.0)]
        source = NoFailures(1.0, seed=3)
        assert simulate_segments(under, source, 0.0).makespan == under[0].work + 1.0
        with pytest.raises(RuntimeError, match="attempts"):
            simulate_segments(over, source, 0.0)
        # Only Poisson sources are priced: a trace replays the same segment.
        trace = FailureTrace(events=(FailureEvent(1.0),), horizon=10.0)
        assert simulate_segments(over, trace, 0.0).makespan == 1.0 + (over[0].work + 1.0)
