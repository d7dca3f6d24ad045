"""Vectorized campaign tasks: consecutive chunks replayed in one kernel call.

A vectorized ``CampaignRunner.run`` groups consecutive whole chunks into
tasks of at most ``_MAX_TASK_RUNS`` runs and replays each task's stacked
traces at once.  The samples must not notice: every comparison below is
``np.array_equal`` against a chunk-at-a-time rebuild from public functions
(``plan_chunks`` + ``generate_trace_times_batch`` + ``replay_traces_batch``
per chunk).  The rest pins what the grouping does change: progress and
cancellation happen per task, and each task records one span.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.failures.distributions import (
    ExponentialFailure,
    LogNormalFailure,
    WeibullFailure,
)
from repro.obs import metrics, tracing
from repro.runtime import ProcessPoolBackend
from repro.runtime.chunking import plan_chunks
from repro.simulation import campaign
from repro.simulation.campaign import CampaignRunner
from repro.simulation.vectorized import generate_trace_times_batch, replay_traces_batch
from repro.workflows.generators import uniform_random_chain

MAX_TASK_RUNS = campaign._MAX_TASK_RUNS

CHAIN = uniform_random_chain(6, seed=4)
SCHEDULES = {
    "all": Schedule.for_chain(CHAIN, range(CHAIN.n)),
    "none": Schedule.for_chain(CHAIN, [CHAIN.n - 1]),
    "odd": Schedule.for_chain(CHAIN, [1, 3, 5]),
}
LONGEST = max(schedule.failure_free_time() for schedule in SCHEDULES.values())
LAWS = {
    "exponential": ExponentialFailure.from_mtbf,
    "weibull": lambda mtbf: WeibullFailure.from_mtbf(mtbf, shape=0.7),
    "lognormal": lambda mtbf: LogNormalFailure.from_mtbf(mtbf, sigma=1.0),
    # Heavy tails make the generator extend some chunks' draw matrices and
    # not others, so a task stacks rows of different widths.
    "weibull_heavy": lambda mtbf: WeibullFailure.from_mtbf(mtbf, shape=0.25),
    "lognormal_heavy": lambda mtbf: LogNormalFailure.from_mtbf(mtbf, sigma=2.5),
}


def make_runner(law_name="weibull", num_processors=1, downtime=0.5):
    # One platform failure per failure-free run on average.
    law = LAWS[law_name](LONGEST * num_processors)
    return CampaignRunner(
        SCHEDULES, law, num_processors=num_processors, downtime=downtime
    )


def chunk_at_a_time(runner, num_runs, seed, chunk_size):
    """The vectorized campaign rebuilt one ``replay_traces_batch`` call per chunk."""
    names = list(runner.schedules)
    segment_lists = [runner.schedules[name].segments() for name in names]
    horizon = runner.horizon_factor * max(
        schedule.failure_free_time() for schedule in runner.schedules.values()
    )
    plan = plan_chunks(num_runs, chunk_size)
    rows = []
    for chunk_seed, size in zip(plan.seeds(seed), plan.sizes):
        times = generate_trace_times_batch(
            runner.failure_law, horizon, runner.num_processors,
            np.random.default_rng(chunk_seed), size,
        )
        rows.append(replay_traces_batch(segment_lists, times, runner.downtime))
    stacked = np.concatenate(rows, axis=1)
    return {name: stacked[index] for index, name in enumerate(names)}


def assert_equals_chunk_at_a_time(runner, result, num_runs, seed, chunk_size):
    expected = chunk_at_a_time(runner, num_runs, seed, chunk_size)
    assert set(result.makespans) == set(expected)
    for name, samples in expected.items():
        assert np.array_equal(np.asarray(result.makespans[name]), samples), name


def task_chunks(num_chunks, chunk_size, num_workers=1):
    """How many chunks each task holds, as the runner groups them."""
    per_task = max(1, min(MAX_TASK_RUNS // chunk_size, num_chunks // num_workers))
    return [min(per_task, num_chunks - start) for start in range(0, num_chunks, per_task)]


class TestTasksEqualChunks:
    @settings(max_examples=100, deadline=None)
    @given(
        chunk_size=st.one_of(st.integers(1, 40), st.integers(200, 700),
                             st.integers(1900, 2600)),
        num_chunks=st.integers(1, 30),
        tail=st.integers(0, 39),
        law_name=st.sampled_from(sorted(LAWS)),
        num_processors=st.sampled_from([1, 3]),
        downtime=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_samples_equal_chunk_at_a_time(
        self, chunk_size, num_chunks, tail, law_name, num_processors, downtime, seed
    ):
        # Budgets from one chunk up to several tasks, with a short last chunk.
        num_runs = max(1, min(num_chunks * chunk_size, 6_000) - tail % chunk_size)
        runner = make_runner(law_name, num_processors, downtime)
        result = runner.run(num_runs, seed=seed, chunk_size=chunk_size, engine="vectorized")
        assert_equals_chunk_at_a_time(runner, result, num_runs, seed, chunk_size)

    def test_ragged_chunks_are_padded_past_their_sentinels(self):
        runner = make_runner("weibull_heavy")
        plan = plan_chunks(140, 7)
        widths = {
            generate_trace_times_batch(
                runner.failure_law, 10.0 * LONGEST, 1, np.random.default_rng(chunk_seed), size
            ).shape[1]
            for chunk_seed, size in zip(plan.seeds(3), plan.sizes)
        }
        assert len(widths) > 1  # the task really stacks rows of several widths
        result = runner.run(140, seed=3, chunk_size=7, engine="vectorized")
        assert_equals_chunk_at_a_time(runner, result, 140, 3, 7)

    def test_pool_tasks_equal_chunk_at_a_time(self):
        # 12 chunks on two workers: two tasks of six chunks, one per worker.
        runner = make_runner("lognormal_heavy", 3)
        num_runs = 11 * 250 + 97
        assert plan_chunks(num_runs).num_chunks == 12
        with tracing.start_trace("pool") as trace, ProcessPoolBackend(2) as pool:
            result = runner.run(num_runs, seed=5, backend=pool, engine="vectorized")
        assert_equals_chunk_at_a_time(runner, result, num_runs, 5, None)
        spans = [r for r in trace.spans if r["name"] == "campaign.chunk"]
        assert [r["attrs"]["chunks"] for r in spans] == [6, 6]


class TestProgressPerTask:
    @pytest.mark.parametrize("num_runs, chunk_size", [
        (5000, 250), (2000, 250), (500, 250), (4100, 7), (30, 1), (6000, 2500), (1, None),
    ])
    def test_progress_contract(self, num_runs, chunk_size):
        plan = plan_chunks(num_runs, chunk_size)
        calls = []
        make_runner().run(num_runs, seed=1, chunk_size=chunk_size, engine="vectorized",
                          progress=lambda done, total: calls.append((done, total)))
        tasks = task_chunks(plan.num_chunks, plan.chunk_size)
        assert calls[0] == (0, plan.num_chunks)
        assert calls[-1] == (plan.num_chunks, plan.num_chunks)
        assert [done for done, _ in calls] == sorted(done for done, _ in calls)
        assert {total for _, total in calls} == {plan.num_chunks}
        assert len(calls) <= len(tasks) + 1
        assert [done for done, _ in calls[1:]] == np.cumsum(tasks).tolist()

    def test_a_5000_run_campaign_reports_three_tasks(self):
        calls = []
        make_runner().run(5000, seed=1, engine="vectorized",
                          progress=lambda done, total: calls.append((done, total)))
        assert calls == [(0, 20), (8, 20), (16, 20), (20, 20)]

    def test_scalar_progress_stays_per_chunk(self):
        calls = []
        make_runner().run(600, seed=1, chunk_size=100,
                          progress=lambda done, total: calls.append(done))
        assert calls == [0, 1, 2, 3, 4, 5, 6]

    def test_cancel_from_progress_stops_before_the_next_task(self, monkeypatch):
        drawn = []
        original = campaign.generate_trace_times_batch

        def counting(law, horizon, num_processors, rng, count):
            drawn.append(count)
            return original(law, horizon, num_processors, rng, count)

        monkeypatch.setattr(campaign, "generate_trace_times_batch", counting)

        class Cancelled(Exception):
            pass

        def cancel_after_first_task(done, total):
            if done:
                raise Cancelled

        with pytest.raises(Cancelled):
            make_runner().run(5000, seed=1, engine="vectorized",
                              progress=cancel_after_first_task)
        # Only the first task's eight chunks drew traces.
        assert drawn == [250] * 8


class TestTaskSpans:
    def test_no_span_exceeds_the_task_cap(self):
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry), tracing.start_trace("tasks") as trace:
            make_runner().run(50_000, seed=2, engine="vectorized")
        spans = [r for r in trace.spans if r["name"] == "campaign.chunk"]
        runs = [r["attrs"]["runs"] for r in spans]
        assert max(runs) <= MAX_TASK_RUNS
        assert sum(runs) == 50_000
        assert [r["attrs"]["chunks"] for r in spans] == task_chunks(200, 250)
        assert registry.get("repro_chunk_seconds").count(
            engine="vectorized", kind="campaign"
        ) == len(spans) == 25

    def test_a_chunk_larger_than_the_cap_is_its_own_task(self):
        with tracing.start_trace("big") as trace:
            make_runner().run(7000, seed=2, chunk_size=3000, engine="vectorized")
        spans = [r for r in trace.spans if r["name"] == "campaign.chunk"]
        assert [(r["attrs"]["runs"], r["attrs"]["chunks"]) for r in spans] == [
            (3000, 1), (3000, 1), (1000, 1),
        ]
