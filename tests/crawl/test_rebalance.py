"""Scheduler and estimator tests, including the accounting property.

The work-stealing scheduler may hand regions to workers in any order,
but its books must stay exact: every region is handed out exactly once,
completions are accepted exactly once, and the observed total cost is
the precise sum of the per-region costs regardless of the schedule.  A
hypothesis property test drives arbitrary acquire/complete/fail
interleavings through the scheduler to pin that down.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawl.rebalance import (
    CostEstimator,
    RegionTask,
    WorkStealingScheduler,
)
from repro.exceptions import AlgorithmInvariantError

# The scheduler only reads plan.bundles, and only iterates the regions;
# opaque string tokens stand in for region queries here.


def bundles_of(sizes):
    return tuple(
        tuple(f"region-{s}-{i}" for i in range(size))
        for s, size in enumerate(sizes)
    )


class TestCostEstimator:
    def test_estimate_prefers_observed_then_mean_then_flat(self):
        estimator = CostEstimator()
        assert estimator.estimate((0, 0)) == 1.0  # nothing observed
        estimator.record((1, 0), 10)
        estimator.record((1, 1), 20)
        assert estimator.estimate((1, 0)) == 10.0  # observed wins
        assert estimator.estimate((0, 0)) == 15.0  # running mean
        assert estimator.total_observed() == 30
        assert estimator.observed() == {(1, 0): 10, (1, 1): 20}


class TestScheduler:
    def test_own_queue_drains_in_plan_order(self):
        scheduler = WorkStealingScheduler(bundles_of([3]))
        order = [scheduler.acquire(0).index for _ in range(3)]
        assert order == [0, 1, 2]
        assert scheduler.acquire(0) is None
        assert scheduler.steals() == []

    def test_steals_tail_of_costliest_victim(self):
        # Session 2 queues the most regions, so with flat estimates it
        # is the costliest victim: an idle session-0 worker must steal
        # from it -- and from the tail.
        scheduler = WorkStealingScheduler(bundles_of([1, 2, 3]))
        first = scheduler.acquire(0)
        assert first.key == (0, 0)  # own queue first
        stolen = scheduler.acquire(0)
        assert stolen.session == 2
        assert stolen.index == 2  # the tail region
        assert scheduler.steals() == [((2, 2), 0)]

    def test_adaptive_victim_choice_follows_observed_costs(self):
        # Prior says both sessions look equal; observing a huge cost on
        # a session-1 region drags the running mean up, so the thief
        # targets the session with more remaining estimated work.
        scheduler = WorkStealingScheduler(bundles_of([2, 2, 0]))
        own = scheduler.acquire(1)
        scheduler.complete(own, 1000)  # every estimate is now ~1000
        # A session-2 worker (empty queue) must steal.  Per-region
        # estimates are equal, so the victim is the session with more
        # queued regions: session 0 (2 queued) over session 1 (1).
        stolen = scheduler.acquire(2)
        assert stolen.session == 0

    def test_completion_accounting_is_guarded(self):
        scheduler = WorkStealingScheduler(bundles_of([1]))
        task = scheduler.acquire(0)
        scheduler.complete(task, 5)
        with pytest.raises(AlgorithmInvariantError):
            scheduler.complete(task, 5)  # double completion
        phantom = RegionTask(0, 9, "phantom")
        with pytest.raises(AlgorithmInvariantError):
            scheduler.fail(phantom)  # never handed out

    def test_fail_path_accounts_separately(self):
        scheduler = WorkStealingScheduler(bundles_of([2]))
        first = scheduler.acquire(0)
        second = scheduler.acquire(0)
        scheduler.fail(first)
        scheduler.complete(second, 4)
        assert scheduler.done()
        assert scheduler.failed_keys() == {first.key}
        assert scheduler.completed_costs() == {second.key: 4}
        assert scheduler.total_observed_cost() == 4


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_schedule_keeps_cost_accounting_exact(data):
    """Property: arbitrary interleavings, exact books.

    Hypothesis picks the bundle shape, the true cost of every region,
    and then drives an arbitrary schedule: at each step either some
    worker acquires (from a home session hypothesis chooses, valid or
    not) or an in-flight region completes/fails.  Whatever happens:

    * each region is handed out exactly once;
    * the scheduler drains fully, and afterwards ``acquire`` is dry;
    * the observed total equals the sum of the true costs of exactly
      the completed regions.
    """
    sessions = data.draw(st.integers(1, 4), label="sessions")
    sizes = data.draw(
        st.lists(st.integers(0, 4), min_size=sessions, max_size=sessions),
        label="bundle sizes",
    )
    bundles = bundles_of(sizes)
    total = sum(sizes)
    costs = {
        (s, i): data.draw(st.integers(0, 50), label=f"cost[{s},{i}]")
        for s, bundle in enumerate(bundles)
        for i in range(len(bundle))
    }
    scheduler = WorkStealingScheduler(bundles)
    assert scheduler.total_tasks == total

    in_flight: list[RegionTask] = []
    handed_out: list[tuple[int, int]] = []
    completed: set[tuple[int, int]] = set()
    failed: set[tuple[int, int]] = set()
    while not scheduler.done() or in_flight:
        acquire_possible = scheduler.remaining() > len(in_flight)
        if in_flight and (
            not acquire_possible or data.draw(st.booleans(), label="finish?")
        ):
            victim = in_flight.pop(
                data.draw(st.integers(0, len(in_flight) - 1), label="which")
            )
            if data.draw(st.booleans(), label="fail?"):
                scheduler.fail(victim)
                failed.add(victim.key)
            else:
                scheduler.complete(victim, costs[victim.key])
                completed.add(victim.key)
        else:
            home = data.draw(st.integers(-1, sessions), label="home session")
            task = scheduler.acquire(None if home < 0 else home)
            assert task is not None
            in_flight.append(task)
            handed_out.append(task.key)

    # Exactly-once hand-out, full drain, exact totals.
    assert sorted(handed_out) == sorted(costs)
    assert scheduler.acquire(0) is None
    assert scheduler.acquire(None) is None
    assert completed | failed == set(costs)
    assert scheduler.total_observed_cost() == sum(
        costs[key] for key in completed
    )
    assert scheduler.completed_costs() == {
        key: costs[key] for key in completed
    }
    assert scheduler.failed_keys() == failed


class TestAbortHardening:
    """Satellite regression suite: abort() is idempotent and safe
    against workers blocked in (or racing) a concurrent acquire."""

    def test_abort_after_abort_is_a_noop(self):
        scheduler = WorkStealingScheduler(bundles_of([2, 2]))
        task = scheduler.acquire(0)
        scheduler.complete(task, 3)
        scheduler.abort()
        failed_after_first = scheduler.failed_keys()
        costs_after_first = scheduler.completed_costs()
        scheduler.abort()  # must not re-fail or wipe anything
        assert scheduler.failed_keys() == failed_after_first
        assert scheduler.completed_costs() == costs_after_first
        assert costs_after_first == {task.key: 3}
        assert scheduler.acquire(0) is None

    def test_subtree_abort_after_abort_is_a_noop(self):
        from repro.crawl.rebalance import SubtreeScheduler

        scheduler = SubtreeScheduler(bundles_of([2, 1]))
        scheduler.acquire(0)  # leave one region presplitting
        scheduler.abort()
        snapshot = (scheduler.failed_keys(), scheduler.completed_costs())
        scheduler.abort()
        after = (scheduler.failed_keys(), scheduler.completed_costs())
        assert after == snapshot
        assert scheduler.acquire(0, block=False) is None
        assert scheduler.acquire(1, block=True) is None

    def test_acquire_after_abort_returns_none_even_with_queued_work(self):
        scheduler = WorkStealingScheduler(bundles_of([3]))
        scheduler.abort()
        assert scheduler.acquire(0) is None
        assert scheduler.acquire(None, block=False) is None
        assert scheduler.done()

    def test_abort_wakes_a_blocked_acquire(self):
        """The abort-during-acquire race: a worker blocked in a
        SubtreeScheduler.acquire must observe the abort and drain out
        instead of waiting forever."""
        import threading

        from repro.crawl.rebalance import SubtreeScheduler

        scheduler = SubtreeScheduler(bundles_of([1]))
        assert scheduler.acquire(0) is not None  # region now in flight
        results = []

        def blocked_worker():
            results.append(scheduler.acquire(0, block=True))

        worker = threading.Thread(target=blocked_worker)
        worker.start()
        # Wait until the worker is actually parked in the condition.
        deadline = 50
        while deadline and not scheduler._cond._waiters:  # noqa: SLF001
            deadline -= 1
            threading.Event().wait(0.01)
        scheduler.abort()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "abort did not wake the waiter"
        assert results == [None]

    def test_complete_region_after_abort_is_dropped(self):
        from repro.crawl.rebalance import SubtreeScheduler

        scheduler = SubtreeScheduler(bundles_of([1, 1]))
        task = scheduler.acquire(0)

        class _Plan:
            shards = ()

        completion = scheduler.publish(task, _Plan())
        assert completion is not None  # zero-shard plan merges directly
        scheduler.abort()
        scheduler.complete_region(task.key, 99)  # written off: dropped
        assert scheduler.completed_costs() == {}
        assert task.key in scheduler.failed_keys()

    def test_block_flag_is_accepted_by_the_one_level_scheduler(self):
        scheduler = WorkStealingScheduler(bundles_of([1]))
        task = scheduler.acquire(None, block=False)
        assert task is not None
        scheduler.complete(task, 1)
        assert scheduler.acquire(None, block=False) is None
