"""The query future's contract: stdlib semantics, one lock per block.

:class:`~repro.serve.scheduler.QueryFuture` keeps a query's state and
outcome per query but shares its ``_condition`` with every query of the
submitted block, and :func:`~repro.serve.scheduler.settle` resolves a
whole answered assignment under one hold of it.  These tests hold the
public :class:`concurrent.futures.Future` behaviour to that: ``wait``,
``as_completed``, timeouts, cancellation, callbacks, failure delivery
and a hedge's second answer, in-thread and across the pipe (``real``
in the id: CI's process smoke step selects it with ``-k real``).  They
also pin the private fields the future shares with the standard
library, on every Python the suite runs on.
"""

import threading
import time
from concurrent import futures as cf

import pytest

from repro.errors import ServeError
from repro.serve import ClusterService, CopseService
from repro.serve.batcher import PendingQuery
from repro.serve.cluster import RouterCore
from repro.serve.scheduler import (
    QueryFuture,
    SchedulerCore,
    deliver_failures,
    settle,
)
from repro.serve.transport import AssignAction

QUERIES = [[40, 200], [0, 255], [130, 7], [99, 1]]


def block(n=4):
    """``n`` futures of one submitted block."""
    condition = threading.Condition()
    return [QueryFuture(condition) for _ in range(n)]


def later(seconds, fn, *args):
    """Run ``fn(*args)`` on another thread after ``seconds``."""
    timer = threading.Timer(seconds, fn, args)
    timer.start()
    return timer


@pytest.fixture
def service(example_forest):
    with CopseService(threads=1, backend="vector") as service:
        service.register_model("m", example_forest, max_batch_size=8)
        yield service


class TestShape:
    def test_a_block_shares_one_condition_and_blocks_do_not(self, service):
        first = service.submit_many("m", QUERIES)
        second = service.submit_many("m", QUERIES)
        single = service.submit("m", QUERIES[0])
        assert all(isinstance(f, cf.Future) for f in first + [single])
        assert {id(f._condition) for f in first} == {id(first[0]._condition)}
        conditions = {
            id(f[0]._condition) for f in (first, second, [single])
        }
        assert len(conditions) == 3
        service.flush("m")
        assert [f.result(timeout=30).features for f in first] == QUERIES

    def test_pending_query_keeps_its_constructor(self):
        entry = PendingQuery([1, 2])
        assert isinstance(entry.future, QueryFuture)
        assert not entry.future.done() and not entry.future.running()

    def test_the_private_fields_it_shares_with_the_stdlib(self):
        """``wait`` / ``as_completed`` and the inherited methods read
        these by name; a Python that renames one fails here."""
        stdlib = cf.Future()
        future = QueryFuture()
        for name in ("_condition", "_state", "_waiters", "_done_callbacks",
                     "_result", "_exception"):
            assert hasattr(stdlib, name) and hasattr(future, name), name
        assert future._state == stdlib._state == "PENDING"
        assert isinstance(future._condition, type(stdlib._condition))


class TestWaiting:
    def test_wait_first_and_all_completed_over_one_block(self):
        futures = block()
        later(0.05, settle, futures[2:3], ["third"])
        done, not_done = cf.wait(
            futures, timeout=10, return_when=cf.FIRST_COMPLETED
        )
        assert done == {futures[2]} and len(not_done) == 3
        later(0.05, settle, futures, ["a", "b", "ignored", "d"])
        done, not_done = cf.wait(futures, timeout=10)
        assert done == set(futures) and not not_done
        assert [f.result() for f in futures] == ["a", "b", "third", "d"]
        assert all(not f._waiters for f in futures)  # every waiter left

    def test_as_completed_over_one_block(self):
        futures = block()
        settle(futures[:1], ["early"])
        later(0.05, settle, futures[1:], ["x", "y", "z"])
        seen = list(cf.as_completed(futures, timeout=10))
        assert seen[0] is futures[0] and set(seen) == set(futures)

    def test_a_siblings_answer_does_not_time_the_waiter_out(self):
        """``Future.result`` waits once: woken by a sibling's
        ``notify_all`` under a shared condition it would raise
        ``TimeoutError`` although nothing timed out."""
        futures = block()
        outcome = {}

        def wait_first():
            try:
                outcome["value"] = futures[0].result(timeout=30)
            except BaseException as exc:  # recorded, asserted below
                outcome["value"] = exc

        waiter = threading.Thread(target=wait_first)
        waiter.start()
        while not futures[0]._condition._waiters:  # the waiter sleeps
            time.sleep(0.001)
        for index, sibling in enumerate(futures[1:], 1):
            settle([sibling], [index])
            time.sleep(0.01)
        assert waiter.is_alive() and "value" not in outcome
        settle(futures[:1], ["mine"])
        waiter.join(timeout=30)
        assert outcome == {"value": "mine"}
        assert futures[0].exception(timeout=0) is None

    def test_a_timeout_still_times_out(self):
        futures = block()
        settle(futures[1:], [1, 2, 3])
        for wait in (futures[0].result, futures[0].exception):
            with pytest.raises(cf.TimeoutError):
                wait(timeout=0.01)
        assert not futures[0].done()


class TestCancellation:
    def test_cancel_before_the_cut(self, service):
        futures = service.submit_many("m", QUERIES)
        assert futures[1].cancel() and futures[1].cancelled()
        service.flush("m")
        with pytest.raises(cf.CancelledError):
            futures[1].result(timeout=30)
        with pytest.raises(cf.CancelledError):
            futures[1].exception(timeout=30)
        served = [f.result(timeout=30).features for f in futures[::2]]
        assert served == QUERIES[::2]
        stats = service.stats().scheduler
        assert stats.cancelled == 1 and stats.completed == 3
        assert service.metrics_snapshot()["counters"]["sched_cancelled"] == 1

    def test_a_parked_retry_cannot_be_cancelled(self):
        """The retry keeps the caller's future, RUNNING: ``cancel``
        refuses, the next cut takes it, its callbacks fire once."""
        router = RouterCore(workers=1, max_retries=1)
        router.add_model("m", capacity=2)
        entries = [PendingQuery(q) for q in QUERIES[:2]]
        calls = []
        entries[0].future.add_done_callback(calls.append)
        router.submit_many("m", entries, 0.0)
        (first,) = [
            a for a in router.dispatch(0.0) if isinstance(a, AssignAction)
        ]
        router.crash_worker(0, 0.1)
        router.restart_worker(0, 0.1)
        assert entries[0].future.running()
        assert not entries[0].future.cancel()
        release = max(d[4] for d in router.decisions if d[0] == "park")
        (retry,) = [
            a for a in router.dispatch(release)
            if isinstance(a, AssignAction)
        ]
        assert [p for run in retry.assignment.runs()
                for p in run.payloads] == entries
        assert router.complete(retry.assignment, retry.epoch, release)
        settle([e.future for e in entries], ["a", "b"])
        assert calls == [entries[0].future]
        assert router.stats().retries == 2


class TestCallbacks:
    def test_each_runs_once_before_or_after_resolution(self):
        futures = block(2)
        calls = []
        futures[0].add_done_callback(lambda f: calls.append(("before", f)))
        settle(futures, ["a", "b"])
        settle(futures, ["again", "again"])
        futures[0].add_done_callback(lambda f: calls.append(("after", f)))
        assert calls == [("before", futures[0]), ("after", futures[0])]

    def test_a_batch_is_set_before_any_callback_runs(self):
        futures = block(3)
        seen = []
        futures[0].add_done_callback(
            lambda f: seen.append([g.done() for g in futures])
        )
        settle(futures, [1, 2, 3])
        assert seen == [[True, True, True]]

    def test_a_callback_may_reenter_the_service(self, service):
        futures = service.submit_many("m", QUERIES)
        seen = []

        def reenter(future):
            seen.append((
                future.result().features,
                futures[3].result(timeout=30).features,
                service.stats().queries,
            ))

        futures[0].add_done_callback(reenter)
        service.flush("m")
        assert futures[0].result(timeout=30).features == QUERIES[0]
        assert service.drain(timeout=30)
        assert seen == [(QUERIES[0], QUERIES[3], 4)]


class TestFailureAndHedge:
    def test_failures_delivered_through_deliver_failures(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=8)
        entries = [PendingQuery(q) for q in QUERIES]
        condition = threading.Condition()
        for entry in entries:
            entry.future = QueryFuture(condition)
        core.submit_many("m", entries, 0.0)
        calls = []
        entries[2].future.add_done_callback(calls.append)
        assert core.remove_queue("m", 0.0) == 4
        assert not any(e.future.done() for e in entries)  # deferred
        deliver_failures(core.drain_failures())
        for entry in entries:
            assert isinstance(entry.future.exception(timeout=0), ServeError)
            with pytest.raises(ServeError, match="unregistered"):
                entry.future.result(timeout=0)
        assert calls == [entries[2].future]
        deliver_failures([])  # nothing drained: nothing to do

    def test_a_hedged_double_answer_resolves_once(self):
        futures = block(2)
        calls = []
        futures[1].add_done_callback(calls.append)
        settle(futures, ["primary", "primary"])
        settle(futures[::-1], ["hedge", "hedge"])  # the replica, late
        deliver_failures([(futures[0], ServeError("late"))])
        assert [f.result() for f in futures] == ["primary", "primary"]
        assert calls == [futures[1]]


def test_real_a_block_answered_across_the_pipe(example_forest):
    with ClusterService(workers=1, backend="vector") as pool:
        pool.register_model("m", example_forest, max_batch_size=2)
        futures = pool.submit_many("m", QUERIES)
        pool.flush("m")
        done, not_done = cf.wait(futures, timeout=120)
        stats = pool.stats().scheduler
    assert done == set(futures) and not not_done
    assert {id(f._condition) for f in futures} == {id(futures[0]._condition)}
    results = [f.result() for f in futures]
    assert [r.features for r in results] == QUERIES
    assert [r.batch_id for r in results] == [1, 1, 2, 2]
    assert all(r.oracle_ok for r in results)
    assert stats.completed == 4 and stats.batches == 2
