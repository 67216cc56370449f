"""Unit tests for the deadline-aware scheduler (core + the live pump).

The decision core is exercised directly under a
:class:`~repro.serve.simclock.VirtualClock`-style explicit ``now`` — no
threads, no sleeps, fully deterministic.  The live engine's tests —
the serve facade's pump thread over the in-thread transport, which is
what the threaded ``Scheduler`` became — stick to lifecycle
(close/idempotence/submit-after-close) and to who evaluates what, and
use generous timeouts on futures, never wall-clock assertions.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    PoisonQueryError,
    RejectedQuery,
    ServeError,
    ValidationError,
)
from repro.obs.metrics import percentile
from repro.obs.trace import Tracer
from repro.serve.cluster import AssignAction, RouterCore
from repro.serve import CopseService
from repro.serve import worker as serve_worker
from repro.serve.scheduler import (
    BlockCondition,
    PendingQuery,
    OUTCOME_ERROR,
    OUTCOME_OK,
    QueryFuture,
    SchedulerCore,
    deliver_failures,
)
from repro.serve.simclock import RealClock, VirtualClock


class Payload:
    """Minimal scheduler payload (the batcher's PendingQuery stand-in)."""

    def __init__(self):
        self.future = QueryFuture()


def cut_batches(router, now):
    """Dispatch the router at ``now``; the batches it cut, in order."""
    return [a for a in router.dispatch(now) if isinstance(a, AssignAction)]


def seqs_of(assignment):
    """The assignment's queries, by seq, in order."""
    return [seq for run in assignment.runs() for seq in run.seqs()]


def crash_and_restart(router, worker, now):
    """A worker death as every engine handles it: crash, then respawn."""
    interrupted = router.crash_worker(worker, now)
    router.restart_worker(worker, now)
    return interrupted


def submit_n(core, queue, n, now=0.0, tenant="t", deadline=None, priority=0):
    return [
        core.submit(
            queue, Payload(), now, tenant=tenant, deadline=deadline,
            priority=priority,
        )
        for _ in range(n)
    ]


class TestAdmission:
    def test_bounded_queue_rejects_with_context(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4, max_pending=2)
        submit_n(core, "m", 2)
        with pytest.raises(RejectedQuery) as excinfo:
            core.submit("m", Payload(), 0.0, tenant="alice")
        err = excinfo.value
        assert err.model == "m" and err.tenant == "alice"
        assert err.queue_depth == 2 and err.limit == 2
        assert "2/2" in str(err)
        stats = core.stats()
        assert stats.rejected == 1 and stats.submitted == 3

    def test_unbounded_queue_never_rejects(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        submit_n(core, "m", 100)
        assert core.stats().rejected == 0

    def test_unknown_queue_names_known_ones(self):
        core = SchedulerCore(workers=1)
        core.add_queue("real", capacity=1)
        with pytest.raises(ValidationError, match="real"):
            core.submit("ghost", Payload(), 0.0)

    def test_flush_unknown_queue_raises_validation_error(self):
        """Regression: flush('typo') used to escape as a raw KeyError
        instead of the hierarchy error submit() raises."""
        core = SchedulerCore(workers=1)
        core.add_queue("real", capacity=1)
        with pytest.raises(ValidationError, match="real"):
            core.flush("ghost")

    def test_bad_queue_config_rejected(self):
        core = SchedulerCore(workers=1)
        with pytest.raises(ValidationError, match="capacity"):
            core.add_queue("m", capacity=0)
        with pytest.raises(ValidationError, match="weight"):
            core.add_queue("m", capacity=1, weight=0.0)
        with pytest.raises(ValidationError, match="max_pending"):
            core.add_queue("m", capacity=1, max_pending=0)
        core.add_queue("m", capacity=1)
        with pytest.raises(ValidationError, match="already"):
            core.add_queue("m", capacity=1)


class TestBatchCutting:
    def test_full_batch_is_ready_immediately(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=3)
        submit_n(core, "m", 2)
        assert not core.has_ready(0.0)
        submit_n(core, "m", 1)
        assert core.has_ready(0.0)
        assignment = core.assign(0.0)
        assert assignment.size == 3

    def test_partial_batch_waits_without_deadline(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        submit_n(core, "m", 2)
        assert core.assign(0.0) is None
        core.flush("m")
        assert core.assign(0.0).size == 2

    def test_slack_cut_fires_at_deadline_minus_service(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=8, service_ms=100.0)
        core.submit("m", Payload(), 0.0, deadline=0.5)
        # Slack runs out at 0.5 s - 0.1 s = 0.4 s, not at the deadline.
        assert core.next_cut_time() == pytest.approx(0.4)
        assert core.assign(0.39) is None
        assignment = core.assign(0.4)
        assert assignment is not None and assignment.size == 1

    def test_cut_takes_earliest_deadline_across_queue(self):
        """Interleaved reads exercise the O(1) incremental cut-cache
        update: each push must advance the cached frontier without a
        rescan, and a later pop must force the rescan."""
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=8, service_ms=0.0)
        core.submit("m", Payload(), 0.0, deadline=2.0)
        assert core.next_cut_time() == pytest.approx(2.0)  # cache clean
        core.submit("m", Payload(), 0.0, deadline=1.0)
        assert core.next_cut_time() == pytest.approx(1.0)  # incremental
        core.submit("m", Payload(), 0.0, deadline=3.0)
        assert core.next_cut_time() == pytest.approx(1.0)  # no regress
        assignment = core.assign(1.0)  # pops everything (capacity 8)
        assert assignment.size == 3
        assert core.next_cut_time() is None  # rescan after the pop

    def test_observed_service_time_refines_slack_cuts(self):
        """The service estimate is only *seeded* by the caller (the
        plan's simulated cost, which is not wall time); completed-batch
        durations fold in via EWMA so later slack cuts use reality.
        Regression for wall-deadline-vs-simulated-cost unit mixing."""
        core = SchedulerCore(workers=1)
        # Wildly pessimistic seed: 10 s per batch.
        core.add_queue("m", capacity=8, service_ms=10_000.0)
        core.submit("m", Payload(), 0.0, deadline=1.0)
        # Seeded estimate says the cut is already overdue.
        assert core.next_cut_time() == pytest.approx(1.0 - 10.0)
        assignment = core.assign(0.0)
        core.complete(assignment, 0.05, OUTCOME_OK)  # actually 50 ms
        # One observation pulls the estimate far toward reality
        # (EWMA 0.3): 10 + 0.3*(0.05-10) = 7.015 s, and each further
        # batch converges geometrically.
        core.submit("m", Payload(), 0.1, deadline=10.0)
        assert core.next_cut_time() == pytest.approx(10.0 - 7.015)
        second = core.assign(10.0 - 7.015)
        core.complete(second, 10.0 - 7.015 + 0.05, OUTCOME_OK)
        third_estimate = 7.015 + 0.3 * (0.05 - 7.015)
        core.submit("m", Payload(), 5.0, deadline=10.0)
        assert core.next_cut_time() == pytest.approx(10.0 - third_estimate)

    def test_flush_on_empty_queue_is_noop(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        core.flush("m")
        core.flush()
        assert not core.has_ready(0.0)
        assert core.assign(0.0) is None
        # The flag must not linger: a later submit is not auto-flushed.
        submit_n(core, "m", 1)
        assert core.assign(0.0) is None

    def test_priority_orders_within_queue_fifo_within_level(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        low = submit_n(core, "m", 2, priority=0)
        high = submit_n(core, "m", 2, priority=5)
        core.flush("m")
        assignment = core.assign(0.0)
        assert seqs_of(assignment) == [
            high[0].seq, high[1].seq, low[0].seq, low[1].seq,
        ]

    def test_cancelled_tickets_never_occupy_slots(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=2)
        runs = submit_n(core, "m", 3)
        assert runs[0].futures[0].cancel()
        assignment = core.assign(0.0)
        assert seqs_of(assignment) == [runs[1].seq, runs[2].seq]
        assert core.stats().cancelled == 1


class TestFairSharing:
    def test_weighted_round_robin_between_hot_queues(self):
        core = SchedulerCore(workers=1)
        core.add_queue("a", capacity=1, weight=1.0)
        core.add_queue("b", capacity=1, weight=3.0)
        submit_n(core, "a", 8)
        submit_n(core, "b", 8)
        served = []
        for _ in range(8):
            assignment = core.assign(0.0)
            served.append(assignment.queue)
            core.complete(assignment, 0.0, OUTCOME_OK)
        # Weight 3 queue gets ~3 of every 4 dispatches.
        assert served.count("b") == 6 and served.count("a") == 2

    def test_hot_queue_cannot_starve_cold_one(self):
        core = SchedulerCore(workers=1)
        core.add_queue("hot", capacity=2, weight=1.0)
        core.add_queue("cold", capacity=2, weight=1.0)
        submit_n(core, "hot", 40)
        submit_n(core, "cold", 2)
        served = []
        for _ in range(5):
            assignment = core.assign(0.0)
            served.append(assignment.queue)
            core.complete(assignment, 0.0, OUTCOME_OK)
        assert "cold" in served[:2]  # served long before hot drains

    def test_late_joiner_does_not_replay_missed_service(self):
        core = SchedulerCore(workers=1)
        core.add_queue("old", capacity=1)
        submit_n(core, "old", 10)
        for _ in range(5):
            assignment = core.assign(0.0)
            core.complete(assignment, 0.0, OUTCOME_OK)
        core.add_queue("new", capacity=1)
        submit_n(core, "new", 10)
        served = []
        for _ in range(6):
            assignment = core.assign(0.0)
            served.append(assignment.queue)
            core.complete(assignment, 0.0, OUTCOME_OK)
        # Alternates instead of the newcomer monopolizing the worker.
        assert served.count("old") == 3 and served.count("new") == 3


class TestCompletionAccounting:
    def test_latency_and_deadline_miss_counted(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=2)
        core.submit("m", Payload(), 0.0, deadline=0.25)
        core.submit("m", Payload(), 0.0, deadline=2.0)
        assignment = core.assign(0.0)
        core.complete(assignment, 0.5, OUTCOME_OK)
        stats = core.stats()
        assert stats.completed == 2
        assert stats.deadline_misses == 1
        assert stats.deadline_miss_rate == pytest.approx(0.5)
        assert stats.latency_p50_ms == pytest.approx(500.0)

    def test_error_outcome_fails_tickets(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=2)
        runs = submit_n(core, "m", 2)
        core.flush("m")
        assignment = core.assign(0.0)
        core.complete(assignment, 0.1, OUTCOME_ERROR)
        stats = core.stats()
        assert stats.failed == 2 and stats.completed == 0
        # Delivery is deferred: the core never resolves futures itself
        # (an engine could be holding a lock); drain_failures delivers.
        assert not any(run.futures[0].done() for run in runs)
        deliver_failures(core.drain_failures())
        for run in runs:
            with pytest.raises(ServeError):
                run.futures[0].result(timeout=0)
        assert core.drain_failures() == []  # drained exactly once

    # A worker that dies mid-batch is the router's to judge — the core
    # has no crash policy of its own — so the crash tests drive the
    # RouterCore: park -> backoff -> quarantine -> dead-letter.

    def test_crash_requeues_then_completes(self):
        router = RouterCore(workers=1, max_retries=1)
        router.add_model("m", capacity=2)
        runs = submit_n(router, "m", 2)
        futures = [run.futures[0] for run in runs]
        (first,) = cut_batches(router, 0.0)
        assert crash_and_restart(router, 0, 0.1) is first.assignment
        # Parked behind the backoff, not requeued at the crash instant.
        assert router.pending("m") == 0 and router.outstanding == 2
        assert cut_batches(router, 0.1) == []
        # (Backoff jitter is per query: wait out the later release.)
        release = max(d[4] for d in router.decisions if d[0] == "park")
        assert release >= router.next_wake_time(0.1) > 0.1
        (retry,) = cut_batches(router, release)
        # Requeued at the original seq once the park releases.
        assert seqs_of(retry.assignment) == [run.seq for run in runs]
        assert router.complete(retry.assignment, retry.epoch,
                               release + 0.1, OUTCOME_OK)
        for run in retry.assignment.runs():
            run.futures[0].set_result("served")
        # The retry kept the caller's own futures.
        assert [run.futures[0] for run in retry.assignment.runs()] == futures
        assert all(f.result(timeout=1) == "served" for f in futures)
        stats = router.stats()
        assert stats.retries == 2 and stats.completed == 2
        assert stats.worker_crashes == 1

    def test_retry_exhaustion_fails_loudly(self):
        router = RouterCore(workers=1, max_retries=1)
        router.add_model("m", capacity=1)
        (run,) = submit_n(router, "m", 1, tenant="alice")
        original = run.futures[0]
        now = 0.0
        # Crash 1 parks the retry; crash 2 finds the retries exhausted
        # and quarantines the query for a solo re-run; crash 3 convicts
        # it.  Exhaustion ends in the dead-letter queue, never ``failed``.
        for _ in range(3):
            (batch,) = cut_batches(router, now)
            crash_and_restart(router, batch.assignment.worker, now + 0.01)
            now = router.next_wake_time(now + 0.01) or now + 0.01
        assert [d[0] for d in router.decisions if d[0] in (
            "park", "bisect", "dead_letter",
        )] == ["park", "bisect", "dead_letter"]
        assert router.outstanding == 0
        deliver_failures(router.drain_failures())
        with pytest.raises(PoisonQueryError, match="crashed 3 workers"):
            original.result(timeout=1)
        stats = router.stats()
        assert stats.dead_lettered == 1 and stats.failed == 0
        assert stats.retries == 2 and stats.worker_crashes == 3
        assert router.dlq.entries()[0].tenant == "alice"

    def test_idle_worker_crash_only_counts(self):
        router = RouterCore(workers=1)
        router.add_model("m", capacity=1)
        assert crash_and_restart(router, 0, 0.0) is None
        stats = router.stats()
        assert stats.worker_crashes == 1 and stats.retries == 0
        assert [d[0] for d in router.decisions] == ["crash", "restart"]

    def test_remove_queue_fails_pending(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        runs = submit_n(core, "m", 2)
        assert core.remove_queue("m", 0.0) == 2
        deliver_failures(core.drain_failures())
        for run in runs:
            with pytest.raises(ServeError, match="unregistered"):
                run.futures[0].result(timeout=0)
        stats = core.stats()
        assert stats.failed == 2
        assert stats.submitted == stats.failed + stats.completed + (
            stats.rejected + stats.cancelled
        )

    def test_conservation_across_mixed_outcomes(self):
        """All five terminal states at once, at the router."""
        router = RouterCore(workers=2, max_retries=0)
        router.add_model("m", capacity=2, max_pending=6)
        accepted = []
        for _ in range(8):
            try:
                accepted.append(router.submit("m", Payload(), 0.0))
            except RejectedQuery:
                pass
        accepted[0].futures[0].cancel()
        router.flush("m")
        ok, errored = cut_batches(router, 0.0)
        router.complete(ok.assignment, ok.epoch, 0.1, OUTCOME_OK)
        router.complete(errored.assignment, errored.epoch, 0.1,
                        OUTCOME_ERROR)
        (doomed,) = cut_batches(router, 0.1)
        assert doomed.assignment.size == 1
        # max_retries=0: the first crash quarantines, the second convicts.
        crash_and_restart(router, doomed.assignment.worker, 0.2)
        (solo,) = cut_batches(router, router.next_wake_time(0.2))
        crash_and_restart(router, solo.assignment.worker, 0.3)
        deliver_failures(router.drain_failures())
        stats = router.stats()
        assert (stats.submitted, stats.rejected, stats.cancelled) == (
            8, 2, 1,
        )
        assert (stats.completed, stats.failed, stats.dead_lettered) == (
            2, 2, 1,
        )
        assert stats.submitted == (
            stats.completed + stats.rejected + stats.failed
            + stats.cancelled + stats.dead_lettered
        )
        assert router.outstanding == 0


def traced_core(capacity, **queue):
    tracer = Tracer()
    core = SchedulerCore(workers=1, tracer=tracer)
    core.add_queue("m", capacity=capacity, **queue)
    return core, tracer


def named(tracer, name):
    return [s for s in tracer.spans(include_open=True) if s.name == name]


class TestTraceShape:
    """A batch is traced once: admission is silent, the batch span names
    its queries by seq, and outcomes outside a batch are instants on the
    tenant's track carrying the seq and the caller's ``now``."""

    def test_admission_makes_no_tracer_call(self):
        core, tracer = traced_core(capacity=4)
        submit_n(core, "m", 3)
        core.submit_many("m", [Payload(), Payload()], 0.5)
        assert tracer.spans(include_open=True) == []

    def test_a_refused_block_emits_one_reject_instant(self):
        core, tracer = traced_core(capacity=4, max_pending=2)
        with pytest.raises(RejectedQuery) as excinfo:
            core.submit_many(
                "m", [Payload() for _ in range(5)], 0.25, tenant="acme"
            )
        assert len(excinfo.value.admitted) == 2
        (reject,) = tracer.spans(include_open=True)
        assert (reject.name, reject.track, reject.start) == (
            "reject", "tenant:acme", 0.25,
        )
        assert reject.attrs == {"queue": "m"}
        assert core.stats().rejected == 1

    def test_the_batch_span_names_its_queries_and_its_misses(self):
        core, tracer = traced_core(capacity=2)
        core.submit("m", Payload(), 0.0, tenant="a", deadline=0.25)
        core.submit("m", Payload(), 0.1, tenant="b", deadline=2.0)
        assignment = core.assign(0.2)
        assert tracer.open_spans == 1
        core.complete(assignment, 0.5, OUTCOME_OK)
        (batch,) = tracer.spans()
        assert (batch.name, batch.track) == ("batch", "worker:0")
        assert (batch.start, batch.end) == (0.2, 0.5)
        assert batch.attrs["members"] == [0, 1]
        assert batch.attrs["submitted"] == [0.0, 0.1]
        assert batch.attrs["outcome"] == OUTCOME_OK
        assert batch.attrs["failed"] == []
        assert batch.attrs["deadline_misses"] == 1

    def test_a_failed_position_ends_in_fail_instants(self):
        core, tracer = traced_core(capacity=1)
        core.set_lanes("m", 2)
        runs = submit_n(core, "m", 2, tenant="acme")
        assignment = core.assign(0.0)
        assert assignment.fills == (1, 1)
        core.complete(assignment, 0.3, OUTCOME_OK, failed={1: "boom"})
        (batch,) = named(tracer, "batch")
        assert batch.attrs["members"] == [run.seq for run in runs]
        assert batch.attrs["failed"] == [1]
        (fail,) = named(tracer, "fail")
        assert (fail.track, fail.start, fail.attrs) == (
            "tenant:acme", 0.3, {"seq": runs[1].seq},
        )
        stats = core.stats()
        assert (stats.completed, stats.failed) == (1, 1)

    def test_a_cancelled_ticket_emits_cancel_at_the_cut(self):
        core, tracer = traced_core(capacity=2)
        runs = submit_n(core, "m", 3, tenant="acme")
        assert runs[0].futures[0].cancel()
        core.assign(0.4)
        (cancel,) = named(tracer, "cancel")
        assert (cancel.track, cancel.start, cancel.attrs) == (
            "tenant:acme", 0.4, {"seq": runs[0].seq},
        )
        (batch,) = named(tracer, "batch")
        assert batch.attrs["members"] == [run.seq for run in runs[1:]]

    def test_a_removed_queue_fails_pending_at_the_given_time(self):
        core, tracer = traced_core(capacity=4)
        runs = submit_n(core, "m", 2, tenant="acme")
        assert core.remove_queue("m", 5.0) == 2
        fails = named(tracer, "fail")
        assert sorted((s.start, s.attrs["seq"]) for s in fails) == [
            (5.0, run.seq) for run in runs
        ]
        assert {s.track for s in fails} == {"tenant:acme"}


# ---------------------------------------------------------------------------
# Differential: submit_many(block) == N submits at the same ``now``
# ---------------------------------------------------------------------------

BLOCKS = st.lists(
    st.fixed_dictionaries({
        "queue": st.sampled_from(["a", "b"]),
        "tenant": st.sampled_from(["acme", "zeta"]),
        "priority": st.integers(0, 2),
        "deadline": st.one_of(st.none(), st.floats(0.001, 0.05)),
        "size": st.integers(0, 7),
        "cancelled": st.sets(st.integers(0, 6)),
        # after admitting the block: let the workers run (ok / error)?
        "run": st.sampled_from([None, OUTCOME_OK, OUTCOME_ERROR]),
    }),
    min_size=1, max_size=6,
)
RUNS = st.fixed_dictionaries({
    "workers": st.integers(1, 3),
    "capacity": st.integers(1, 5),
    "bound": st.one_of(st.none(), st.integers(1, 8)),
    "traced": st.booleans(),
    "blocks": BLOCKS,
})


class _Driven:
    """One core or router driven through a generated run, block-wise
    (``"rows"``: as the service admits, one run of futures sharing a
    condition, with the block's rows and no payloads) or one query at a
    time; ``transcript`` is everything observable."""

    def __init__(self, run, routed, blockwise):
        self.tracer = Tracer() if run["traced"] else None
        self.routed = routed
        self.blockwise = blockwise
        if routed:
            self.engine = RouterCore(
                workers=run["workers"], tracer=self.tracer
            )
            add = self.engine.add_model
        else:
            self.engine = SchedulerCore(
                workers=run["workers"], tracer=self.tracer
            )
            add = self.engine.add_queue
        add("a", capacity=run["capacity"], max_pending=run["bound"])
        add("b", capacity=run["capacity"] + 1, weight=2.0)
        self.transcript = []
        #: id(future) -> seq, to name what a failure delivers.
        self.seq_of = {}

    def admit(self, block, now):
        payloads = [Payload() for _ in range(block["size"])]
        if self.blockwise == "rows":
            condition = BlockCondition()
            for payload in payloads:
                payload.future = QueryFuture(condition)
        for index in block["cancelled"]:
            if index < len(payloads):
                assert payloads[index].future.cancel()
        deadline = block["deadline"]
        shared = dict(
            tenant=block["tenant"], priority=block["priority"],
            deadline=None if deadline is None else now + deadline,
        )
        runs, refusal = [], None
        try:
            if self.blockwise == "rows":
                futures = [payload.future for payload in payloads]
                run = self.engine.submit_block(
                    block["queue"], futures, now, **shared,
                    rows=np.arange(2 * len(futures)).reshape(-1, 2),
                )
                assert run.payloads is None and run.futures == futures
                runs = [run]
            elif self.blockwise:
                runs = [self.engine.submit_many(
                    block["queue"], payloads, now, **shared
                )]
            else:
                for payload in payloads:
                    runs.append(self.engine.submit(
                        block["queue"], payload, now, **shared
                    ))
        except RejectedQuery as exc:
            refusal = (str(exc), exc.model, exc.tenant, exc.queue_depth,
                       exc.limit)
            if self.blockwise:  # white box: the run queued the admitted
                runs = [run for _, run in
                        self.engine._queues[block["queue"]].heap
                        if exc.admitted and run.futures is exc.admitted]
                assert sum(map(len, runs)) == len(exc.admitted)
        members = [(run, k) for run in runs for k in range(len(run))]
        assert [run.futures[k] for run, k in members] == [
            payload.future for payload in payloads[:len(members)]
        ]
        if self.blockwise != "rows":
            assert [run.payloads[k] for run, k in members] == (
                payloads[:len(members)]
            )
        self.seq_of.update(
            (id(run.futures[k]), run.seq + k) for run, k in members
        )
        self.transcript.append((
            "admit", refusal,
            [(run.seq + k, run.queue, run.tenant, run.priority,
              run.submit_time, run.deadline) for run, k in members],
        ))

    def run_workers(self, now, outcome):
        """Cut and complete until nothing more can run at ``now``."""
        while True:
            if self.routed:
                cut = [
                    (action.assignment, action.epoch)
                    for action in self.engine.dispatch(now)
                    if isinstance(action, AssignAction)
                ]
            else:
                cut = []
                while True:
                    assignment = self.engine.assign(now)
                    if assignment is None:
                        break
                    cut.append((assignment, None))
            if not cut:
                return now
            for assignment, epoch in cut:
                self.transcript.append((
                    "batch", assignment.batch_id, assignment.queue,
                    assignment.worker, seqs_of(assignment),
                ))
                now += 0.0007
                if self.routed:
                    assert self.engine.complete(
                        assignment, epoch, now, outcome
                    )
                else:
                    self.engine.complete(assignment, now, outcome)

    def finish(self, now):
        # What is still queued in "b" fails, in the order a cut takes it.
        self.engine.remove_queue("b", now)
        self.transcript.append(("removed", [
            self.seq_of[id(future)]
            for future, _ in self.engine.drain_failures()
        ]))
        self.engine.flush()
        self.run_workers(now, OUTCOME_OK)
        failures = self.engine.drain_failures()
        deliver_failures(failures)
        stats = self.engine.stats()
        assert stats.submitted == (
            stats.completed + stats.rejected + stats.failed
            + stats.cancelled + stats.dead_lettered
        )
        self.transcript.append(("failures", len(failures)))
        self.transcript.append(("stats", stats))
        self.transcript.append(("metrics", self.engine.metrics.snapshot()))
        if self.routed:
            self.transcript.append(("decisions", self.engine.decisions))
        if self.tracer is not None:
            self.transcript.append(("spans", [
                span.as_record()
                for span in self.tracer.spans(include_open=True)
            ]))
        return self.transcript


class TestBlockAdmissionIsNSubmits:
    @settings(settings.get_profile("repro-plan-ci"))
    @given(run=RUNS)
    @pytest.mark.parametrize("blockwise", [True, "rows"],
                             ids=["tickets", "run-queue"])
    @pytest.mark.parametrize("routed", [False, True], ids=["core", "router"])
    def test_differential(self, routed, blockwise, run):
        """A block admitted whole — as payloads, or as the service
        admits it, one run of futures with rows — is cut, booked,
        cancelled and failed query for query as N one-query submits
        are: the run queue against a heap of runs of one."""
        block_side = _Driven(run, routed, blockwise=blockwise)
        single_side = _Driven(run, routed, blockwise=False)
        now = 0.0
        for block in run["blocks"]:
            now += 0.003
            after = now
            for side in (block_side, single_side):
                side.admit(block, now)
                if block["run"] is not None:
                    after = side.run_workers(now, block["run"])
            now = after
        block_said = block_side.finish(now + 1.0)
        single_said = single_side.finish(now + 1.0)
        assert len(block_said) == len(single_said)
        for got, want in zip(block_said, single_said):
            assert got == want

    def test_refusal_at_query_k(self):
        """The bound refuses query k of the block: k-1 admitted, the
        refused one counted once everywhere, the rest uncounted."""
        core = RouterCore(workers=1)
        core.add_model("m", capacity=8, max_pending=3)
        core.submit("m", Payload(), 0.0, tenant="acme")
        payloads = [Payload() for _ in range(5)]
        with pytest.raises(RejectedQuery) as refusal:
            core.submit_many("m", payloads, 0.0, tenant="acme")
        assert refusal.value.queue_depth == refusal.value.limit == 3
        assert refusal.value.admitted == [p.future for p in payloads[:2]]
        (_, first), (_, run) = sorted(core._queues["m"].heap)  # white box
        assert run.payloads == payloads[:2] and list(run.seqs()) == [1, 2]
        assert core.pending("m") == 3
        stats = core.stats()
        assert (stats.submitted, stats.rejected) == (4, 1)
        assert stats.per_tenant_submitted == {"acme": 4}
        # seqs stay contiguous across the refusal
        assert len(core.submit_many("m", [], 0.0)) == 0
        core.flush("m")  # the queue's three are cut: room again
        (cut,) = cut_batches(core, 0.0)
        assert cut.assignment.size == 3
        assert core.submit("m", Payload(), 0.0).seq == 3

    def test_empty_block_counts_nothing(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=2, max_pending=1)
        core.submit("m", Payload(), 0.0)
        assert len(core.submit_many("m", [], 0.0, tenant="nobody")) == 0
        stats = core.stats()
        assert (stats.submitted, stats.rejected) == (1, 0)
        assert "nobody" not in stats.per_tenant_submitted
        with pytest.raises(ValidationError):
            core.submit_many("nope", [], 0.0)
        core.close()
        with pytest.raises(ServeError, match="closed"):
            core.submit_many("m", [], 0.0)

    def test_threaded_engine_block_shares_submit_time_and_deadline(
        self, example_forest
    ):
        clock = VirtualClock()
        with CopseService(threads=1, clock=clock) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            queries = [[i, 2 * i] for i in range(4)]
            futures = service.submit_many(
                "m", queries, tenant="acme", deadline_ms=5000.0
            )
            # white box: the block is still queued (4 < 8, no flush), as
            # one run of futures with rows, no payloads
            (run,) = [run for _, run in service.router._queues["m"].heap]
            assert run.futures == futures and run.payloads is None
            assert run.rows.tolist() == queries
            assert run.deadline == pytest.approx(run.submit_time + 5.0)
            # virtual time never reaches the deadline: flush cuts it
            service.flush("m")
            assert [f.result(timeout=30).features for f in futures] == (
                queries
            )


class TestPercentile:
    def test_nearest_rank(self):
        ranked = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(ranked, 0.50) == 3.0
        assert percentile(ranked, 0.99) == 5.0
        assert percentile([7.0], 0.99) == 7.0
        assert percentile([], 0.5) == 0.0


class TestThreadedLifecycle:
    def test_close_is_idempotent(self, example_forest):
        service = CopseService(threads=2)
        service.register_model("m", example_forest, max_batch_size=2)
        service.close()
        assert service.closed
        service.close()  # regression: second close must not hang/raise
        service.close()
        assert service.closed

    def test_submit_after_close_raises_serve_error(self, example_forest):
        service = CopseService(threads=1)
        service.register_model("m", example_forest, max_batch_size=2)
        service.close()
        with pytest.raises(ServeError, match="closed scheduler"):
            service.submit("m", [1, 2])

    def test_close_finishes_admitted_work(self, example_forest):
        service = CopseService(threads=2)
        service.register_model("m", example_forest, max_batch_size=8)
        futures = [service.submit("m", [i, i]) for i in range(5)]
        service.close()  # flushes the partial batch before stopping
        for future in futures:
            assert future.result(timeout=30).batch_fill == 5
        assert service.stats().scheduler.completed == 5

    def test_deadline_forces_partial_cut_without_flush(self, example_forest):
        service = CopseService(threads=1)
        service.register_model("m", example_forest, max_batch_size=64)
        future = service.submit("m", [40, 200], deadline_ms=30.0)
        # Never flushed: the slack cut alone must dispatch the batch.
        assert future.result(timeout=30).batch_fill == 1
        service.close()

    def test_failure_callback_may_reenter_scheduler(self, example_forest,
                                                    monkeypatch):
        """Regression: failure futures used to resolve while the worker
        held the scheduler lock, so a done-callback touching the
        scheduler (stats(), a sibling result()) deadlocked the pool."""

        def explode(*args, **kwargs):
            raise RuntimeError("boom")  # and resolves no future itself

        monkeypatch.setattr(
            serve_worker, "evaluate_batches_down_ladder", explode
        )
        service = CopseService(threads=1)
        service.register_model("m", example_forest, max_batch_size=1)
        reentry = []
        future = service.submit("m", [1, 2])
        future.add_done_callback(
            lambda f: reentry.append(service.stats().scheduler.failed)
        )
        with pytest.raises(ServeError) as failure:
            future.result(timeout=30)
        assert "boom" in str(failure.value)
        service.close()
        assert reentry == [1]  # the callback ran and saw the service

    def test_virtual_clock_timestamps(self, example_forest):
        clock = VirtualClock(start=100.0)
        tracer = Tracer()
        service = CopseService(threads=1, clock=clock, tracer=tracer)
        service.register_model("m", example_forest, max_batch_size=1)
        future = service.submit("m", [1, 2], deadline_ms=250.0)
        future.result(timeout=30)
        service.close()
        (batch,) = [s for s in tracer.spans() if s.name == "batch"]
        assert (batch.start, batch.end) == (100.0, 100.0)
        assert batch.attrs["submitted"] == [100.0]
        # Virtual time never moved, so latency is exactly zero — and
        # the 250 ms deadline, at 100.25, was not missed.
        stats = service.stats().scheduler
        assert stats.latency_p50_ms == 0.0
        assert (stats.completed, stats.deadline_misses) == (1, 0)


class TestClocks:
    def test_real_clock_monotonic(self):
        clock = RealClock()
        a, b = clock.now(), clock.now()
        assert b >= a

    def test_virtual_clock_advances_and_refuses_rewind(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance_to(2.0)
        assert clock.now() == 2.0
        with pytest.raises(ValidationError):
            clock.advance(-0.1)
        with pytest.raises(ValidationError):
            clock.advance_to(1.0)


class TestLeadEvaluator:
    """``threads`` is worker *slots*; one thread — the pump — evaluates
    (clock-free: nothing here asserts a duration)."""

    @pytest.fixture
    def record(self, monkeypatch):
        """Wraps ``worker._eval_result``, the one routine the pump
        thread runs: who ran it, how many at once, on which slot each
        assignment was evaluated."""
        evaluate = serve_worker._eval_result

        class Recorder:
            def __init__(self):
                self._lock = threading.Lock()
                self.in_flight = 0
                self.peak = 0
                self.threads = set()
                self.batches = 0
                self.slots = set()

            def __call__(self, worker, request, models, on_stage=None):
                with self._lock:
                    self.in_flight += 1
                    self.peak = max(self.peak, self.in_flight)
                    self.threads.add(threading.get_ident())
                    self.batches += len(request.batches())
                    self.slots.add(worker)
                time.sleep(0.001)  # releases the GIL: an overlap shows
                try:
                    return evaluate(worker, request, models, on_stage)
                finally:
                    with self._lock:
                        self.in_flight -= 1

        recorder = Recorder()
        monkeypatch.setattr(serve_worker, "_eval_result", recorder)
        return recorder

    def test_at_most_one_evaluation_in_flight(self, example_forest, record):
        service = CopseService(threads=3)
        service.register_model("a", example_forest, max_batch_size=1)
        service.register_model("b", example_forest, max_batch_size=2)
        futures = [
            service.submit("ab"[i % 2], [i, i]) for i in range(40)
        ]
        service.flush()
        assert all(f.result(timeout=30).oracle_ok for f in futures)
        service.close()
        assert record.peak == 1
        assert len(record.threads) == 1
        assert record.batches == 20 + 10
        assert record.slots <= {0, 1, 2}
        stats = service.stats()
        assert stats.scheduler.completed == stats.scheduler.submitted == 40
        assert stats.scheduler.batches == stats.batches == 30
        assert service.workers == 3

    def test_lead_survives_worker_cycles(self, example_forest, record):
        service = CopseService(threads=3)
        service.register_model("m", example_forest, max_batch_size=2)
        baseline = threading.active_count()
        slots = [0, 1, 2]
        for cycle in range(3):
            retired = [service.remove_worker(), service.remove_worker()]
            assert retired == slots[:0:-1]  # highest idle slot first
            assert service.workers == 1
            with pytest.raises(ValidationError, match="last live worker"):
                service.remove_worker()
            futures = [service.submit("m", [i, i]) for i in range(5)]
            service.flush()
            for future in futures:
                future.result(timeout=30)
            fresh = [service.add_worker(), service.add_worker()]
            # ids are never reused, exactly as the core numbers them
            assert fresh == [3 + 2 * cycle, 4 + 2 * cycle]
            slots = [0] + fresh
            assert service.workers == 3
            assert threading.active_count() == baseline
        assert service.stats().scheduler.completed == 15
        assert len(record.threads) == 1
        service.close()
        assert threading.active_count() == baseline - 1

    def test_close_joins_everything(self, example_forest, record):
        baseline = threading.active_count()
        service = CopseService(threads=4)
        service.register_model("m", example_forest, max_batch_size=3)
        service.add_worker()
        futures = [service.submit("m", [i, i]) for i in range(7)]
        service.close()
        assert all(f.done() for f in futures)
        assert not service._pump.is_alive()
        assert threading.active_count() == baseline
        service.close()  # and again: nothing left to join

    def test_a_retired_slot_is_never_assigned(self, example_forest, record):
        """``remove_worker`` used to need the retired thread to notice;
        now the router simply stops placing batches on the slot."""
        service = CopseService(threads=2)
        service.register_model("m", example_forest, max_batch_size=1)
        assert service.remove_worker() == 1
        futures = [service.submit("m", [i, i]) for i in range(6)]
        assert all(f.result(timeout=30).oracle_ok for f in futures)
        assert record.slots == {0}
        service.close()

    def test_service_and_control_plane_read_slots(self, example_forest):
        from repro.control import Plant, ScaleWorkers
        from repro.serve import CopseService

        with CopseService(threads=3) as service:
            service.register_model("m", example_forest, max_batch_size=2)
            baseline = threading.active_count()
            plant = Plant(service)
            assert plant.observe(0.0).live_workers == 3
            plant.apply(ScaleWorkers(delta=2, reason="up"), 0.0)
            assert service.workers == 5
            assert plant.observe(1.0).live_workers == 5
            plant.apply(ScaleWorkers(delta=-4, reason="down"), 1.0)
            assert service.workers == 1
            assert threading.active_count() == baseline
            results = service.classify_many(
                "m", [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]
            )
            assert all(r.oracle_ok for r in results)
            stats = service.stats()
        assert stats.threads == 3  # the cost book's divisor, as built
        assert stats.scheduler.completed == 5
        assert stats.batches == 3


class TestBlockCondition:
    """A block's futures share one condition.  A plain
    ``threading.Condition`` carries no cancel count: the cut reads it
    as none cancelled, and one that was cancelled is still dropped."""

    def submit(self, core, futures):
        return core.submit_block(
            "m", futures, 0.0, np.zeros((len(futures), 2), dtype=np.int64)
        )

    @pytest.mark.parametrize("cancel", [None, 1])
    def test_plain_condition(self, cancel):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        condition = threading.Condition()
        futures = [QueryFuture(condition) for _ in range(3)]
        self.submit(core, futures)
        if cancel is not None:
            assert futures[cancel].cancel()
        core.flush("m")
        cut = core.assign(0.0)
        live = [f for k, f in enumerate(futures) if k != cancel]
        assert cut.size == len(live)
        assert [f for part in cut.parts for run in part
                for f in run.futures] == live
        assert all(f.running() for f in live)
        assert core.stats().cancelled == (cancel is not None)


class TestAssignmentFeatures:
    """What the transport sends: one ``(n, features)`` int64 array,
    also when a query handled alone (a re-queued retry, a run of one)
    rides beside a block, and when only payloads were admitted."""

    def block_run(self, core, rows):
        condition = BlockCondition()
        return core.submit_block(
            "m", [QueryFuture(condition) for _ in rows], 0.0,
            np.asarray(rows, dtype=np.int64),
        )

    def test_blocks_and_a_retry_are_one_array(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        self.block_run(core, [[1, 2], [3, 4], [5, 6]])
        self.block_run(core, [[7, 8], [9, 10]])
        (cut,) = [core.assign(0.0)]
        features = cut.features()
        assert isinstance(features, np.ndarray)
        assert features.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]
        retry = cut.runs()[0].singles()[1]  # as a crash would re-queue it
        assert retry.block().tolist() == [[3, 4]]
        core.complete(cut, 0.1)
        assert core.requeue(retry, 0.1)
        core.flush("m")
        (again,) = [core.assign(0.2)]
        mixed = again.features()
        assert mixed.dtype == np.int64
        assert mixed.tolist() == [[3, 4], [9, 10]]

    def test_payloads_alone_send_one_array(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=4)
        payloads = [PendingQuery([1, 2]), PendingQuery([3, 4])]
        core.submit_many("m", payloads, 0.0)
        core.flush("m")
        features = core.assign(0.0).features()
        assert isinstance(features, np.ndarray)
        assert (features.dtype, features.shape) == (np.int64, (2, 2))
        assert features.tolist() == [[1, 2], [3, 4]]

    def test_a_crash_retry_keeps_its_blocks_rows(self, example_forest):
        """A query a crash parks from a block is a run of one over the
        block's own rows — no list round trip — and is answered with
        its own features."""
        from repro.serve import ModelRegistry
        from repro.serve.transport import InThreadTransport

        registered = ModelRegistry().register(
            "m", example_forest, max_batch_size=4
        )
        router = RouterCore(workers=1, max_retries=1)
        router.add_model("m", capacity=4)
        rows = np.array([[1, 2], [130, 40], [5, 230]], dtype=np.int64)
        condition = BlockCondition()
        futures = [QueryFuture(condition) for _ in rows]
        router.submit_block("m", futures, 0.0, rows)
        router.flush("m")
        cut_batches(router, 0.0)
        crash_and_restart(router, 0, 0.1)
        release = max(d[4] for d in router.decisions if d[0] == "park")
        (retry,) = cut_batches(router, release)
        runs = retry.assignment.runs()
        assert [(len(run), run.retries) for run in runs] == [(1, 1)] * 3
        assert all(run.payloads is None and np.shares_memory(run.rows, rows)
                   for run in runs)
        features = retry.assignment.features()
        assert features.dtype == np.int64
        assert features.tolist() == rows.tolist()
        transport = InThreadTransport(True, None, None)
        transport.stage(registered)
        transport.send(AssignAction(retry.assignment, retry.epoch))
        (completion,) = transport.receive(transport.wait(0.0))
        assert router.complete(retry.assignment, retry.epoch, release)
        completion.resolve()
        answers = [future.result(timeout=0) for future in futures]
        assert [answer.features for answer in answers] == rows.tolist()
        assert [answer.bitvector for answer in answers] == [
            example_forest.label_bitvector(row) for row in rows.tolist()
        ]
        assert all(answer.oracle_ok for answer in answers)
