"""One cut takes every ciphertext that is ready (ISSUE 23) — or, in a
pool, its share of them (ISSUE 24).

A queue whose evaluator runs several batches in one go (``lanes``: the
megakernel's eight to a kernel pass, on the pump thread or in a worker
process) hands them over as one
:class:`~repro.serve.scheduler.Assignment` — one placement, one flight,
one completion — while everything counted per batch (ids, fills,
``sched_batches``, records) reads as it did one batch at a time.
"ready" is the old rule applied batch after batch, so ``lanes = 1``
*is* the old scheduler and nothing is ever cut earlier than before.
Where several evaluators are idle the ready batches are shared out
between them.  The tests that spawn worker processes have ``real`` in
their names (CI's ``-k real``).
"""

import functools
import os
from concurrent.futures import CancelledError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RuntimeProtocolError, ServeError, ValidationError
from repro.ir.megakernel import MAX_GROUP, MegaKernel
from repro.obs.trace import Tracer
from repro.serve import (
    ClusterService,
    CopseService,
    ModelProfile,
    RouterCore,
    SimRunner,
)
from repro.serve.scheduler import OUTCOME_ERROR, QueryFuture, SchedulerCore
from repro.serve.simclock import RealClock
from repro.serve.transport import (
    MSG_EVAL,
    AssignAction,
    ProcessTransport,
)


class Payload:
    def __init__(self):
        self.future = QueryFuture()


def core_with(lanes, capacity=3, workers=4, **queue):
    core = SchedulerCore(workers=workers)
    core.add_queue("m", capacity=capacity, **queue)
    core.set_lanes("m", lanes)
    return core


def seqs(runs):
    """The queries of ``runs``, by seq, in order."""
    return [seq for run in runs for seq in run.seqs()]


def conserved(stats):
    return stats.submitted == (
        stats.completed + stats.rejected + stats.failed + stats.cancelled
        + stats.dead_lettered
    )


class TestCutRule:
    def test_a_block_of_full_ciphertexts_is_one_assignment(self):
        core = core_with(lanes=8)
        run = core.submit_many("m", [Payload() for _ in range(15)], 0.0)
        assignment = core.assign(0.0)
        assert assignment.batch_id == 1 and assignment.fills == (3,) * 5
        assert [f for r in assignment.runs() for f in r.futures] == (
            run.futures
        )
        assert [seqs(part) for part in assignment.parts] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14],
        ]
        assert core.stats().batches == 5
        assert core.pending("m") == 0 and core.running == 15
        assert core.idle_workers() == [1, 2, 3]  # one placement
        core.complete(assignment, 1.0)
        stats = core.stats()
        assert stats.completed == 15 and conserved(stats)
        # the next cut's ids go on from the reserved ones
        core.submit_many("m", [Payload() for _ in range(3)], 2.0)
        assert core.assign(2.0).batch_id == 6

    def test_no_more_than_lanes_and_the_rest_stays(self):
        core = core_with(lanes=2)
        core.submit_many("m", [Payload() for _ in range(9)], 0.0)
        first = core.assign(0.0)
        assert first.fills == (3, 3) and core.pending("m") == 3
        second = core.assign(0.0)
        assert (second.batch_id, second.fills) == (3, (3,))

    def test_a_remainder_not_yet_due_stays_queued(self):
        core = core_with(lanes=8, service_ms=10.0)
        core.submit_many(
            "m", [Payload() for _ in range(8)], 0.0, deadline=1.0
        )
        assignment = core.assign(0.0)
        assert assignment.fills == (3, 3)
        assert core.pending("m") == 2  # neither full, flushed, nor due
        assert core.assign(0.5) is None
        late = core.assign(0.995)  # deadline - service estimate passed
        assert late.fills == (2,) and late.batch_id == 3

    def test_a_due_or_flushed_remainder_rides_along(self):
        for due in ("slack", "flush"):
            core = core_with(lanes=8, service_ms=10.0)
            core.submit_many(
                "m", [Payload() for _ in range(8)], 0.0,
                deadline=1.0 if due == "slack" else None,
            )
            if due == "flush":
                core.flush("m")
            assignment = core.assign(0.995)
            assert assignment.fills == (3, 3, 2), due
            assert core.pending("m") == 0

    def test_a_cancelled_ticket_takes_no_slot_in_any_ciphertext(self):
        core = core_with(lanes=8)
        run = core.submit_many("m", [Payload() for _ in range(9)], 0.0)
        assert run.futures[4].cancel()
        core.flush("m")
        assignment = core.assign(0.0)
        assert assignment.fills == (3, 3, 2)
        assert seqs(assignment.runs()) == [0, 1, 2, 3, 5, 6, 7, 8]
        core.complete(assignment, 1.0)
        stats = core.stats()
        assert (stats.completed, stats.cancelled) == (8, 1)
        assert conserved(stats)

    def test_a_batch_that_failed_fails_alone(self):
        core = core_with(lanes=8)
        run = core.submit_many("m", [Payload() for _ in range(9)], 0.0)
        assignment = core.assign(0.0)
        core.complete(assignment, 1.0, failed={1: "RuntimeError: boom"})
        stats = core.stats()
        assert (stats.completed, stats.failed) == (6, 3) and conserved(stats)
        failures = core.drain_failures()
        assert [f for f, _ in failures] == run.futures[3:6]
        assert all(
            isinstance(exc, ServeError)
            and str(exc) == "batch 2 evaluation failed: RuntimeError: boom"
            for _, exc in failures
        )
        assert core.idle_workers() == [0, 1, 2, 3]

    def test_an_errored_assignment_fails_every_batch(self):
        core = core_with(lanes=8)
        core.submit_many("m", [Payload() for _ in range(6)], 0.0)
        core.complete(core.assign(0.0), 1.0, outcome=OUTCOME_ERROR)
        stats = core.stats()
        assert (stats.completed, stats.failed) == (0, 6) and conserved(stats)
        assert [str(exc) for _, exc in core.drain_failures()] == (
            ["batch 1 evaluation failed"] * 3
            + ["batch 2 evaluation failed"] * 3
        )

    def test_lanes_are_validated_and_default_to_one(self):
        core = SchedulerCore(workers=1)
        core.add_queue("m", capacity=2)
        core.submit_many("m", [Payload() for _ in range(4)], 0.0)
        assert core.assign(0.0).fills == (2,)
        for bad in (0, -1, 1.5, "8"):
            with pytest.raises(ValidationError, match="lanes"):
                core.set_lanes("m", bad)
        with pytest.raises(ValidationError, match="no scheduler queue"):
            core.set_lanes("ghost", 2)

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.integers(1, 4),
        lanes=st.integers(1, MAX_GROUP),
        blocks=st.lists(
            st.tuples(
                st.integers(1, 9),            # queries in the block
                st.integers(0, 2),            # priority
                st.sampled_from([None, 0.02, 0.2]),  # relative deadline
                st.lists(st.integers(0, 8), max_size=2),  # cancelled
                st.booleans(),                # flush after it
            ),
            min_size=1, max_size=5,
        ),
        free=st.integers(1, 4),
    )
    def test_a_group_is_the_cuts_lanes_of_one_would_make(
        self, capacity, lanes, blocks, free
    ):
        """Query for query and id for id: one cut of a queue with
        ``lanes`` is the next ``lanes`` cuts of the same queue at
        ``lanes = 1`` — however many free workers those are made among
        (a queue of one lane has nothing to share out)."""
        grouped = core_with(lanes, capacity, workers=1, service_ms=5.0)
        single = core_with(1, capacity, workers=lanes, service_ms=5.0)
        now = 0.0
        for count, priority, deadline, cancelled, flush in blocks:
            now += 0.01
            sides = []
            for core in (grouped, single):
                run = core.submit_many(
                    "m", [Payload() for _ in range(count)], now,
                    priority=priority,
                    deadline=None if deadline is None else now + deadline,
                )
                for index in cancelled:
                    if index < count:
                        run.futures[index].cancel()
                if flush:
                    core.flush("m")
                sides.append(run)
            group = grouped.assign(now)
            cuts = []
            for _ in range(lanes):
                cut = single.assign(now, among=free)
                if cut is None:
                    break
                cuts.append(cut)
            if group is None:
                assert cuts == []
                continue
            assert [
                (batch_id, seqs(part))
                for batch_id, part in enumerate(group.parts, group.batch_id)
            ] == [(cut.batch_id, seqs(cut.runs())) for cut in cuts]
            assert grouped.pending("m") == single.pending("m")
            grouped.complete(group, now)
            for cut in cuts:
                single.complete(cut, now)
            a, b = grouped.stats(), single.stats()
            assert (a.batches, a.completed, a.cancelled) == (
                b.batches, b.completed, b.cancelled
            )


def router_with(lanes, workers=2, capacity=3, **kwargs):
    router = RouterCore(workers=workers, **kwargs)
    router.add_model("m", capacity=capacity, service_ms=10.0)
    router.set_lanes("m", lanes)
    return router


def fills_of(actions):
    return [
        a.assignment.fills for a in actions if isinstance(a, AssignAction)
    ]


class TestTheReadyBatchesAreSharedOut:
    """A pool has several evaluators: a cut made with other eligible
    workers idle takes ``ceil(ready / free)`` batches, not all of them."""

    @pytest.mark.parametrize("batches, workers, expected", [
        (8, 2, [4, 4]),
        (8, 1, [8]),
        (3, 2, [2, 1]),
        (2, 4, [1, 1]),
        (20, 2, [8, 8]),  # never more than the lanes; the rest waits
    ])
    def test_each_free_worker_takes_its_share(self, batches, workers,
                                              expected):
        router = router_with(MAX_GROUP, workers=workers)
        run = router.submit_many(
            "m", [Payload() for _ in range(3 * batches)], 0.0
        )
        actions = router.dispatch(0.0)
        assert fills_of(actions) == [(3,) * n for n in expected]
        assigned = [
            seq for a in actions if isinstance(a, AssignAction)
            for seq in seqs(a.assignment.runs())
        ]  # in submission order, across the assignments
        assert assigned == list(run.seqs())[:len(assigned)]
        assert router.pending("m") == 3 * (batches - sum(expected))

    def test_a_flushed_remainder_counts_as_a_batch(self):
        router = router_with(MAX_GROUP)
        router.submit_many("m", [Payload() for _ in range(8)], 0.0)
        router.flush("m")
        assert fills_of(router.dispatch(0.0)) == [(3, 3), (2,)]

    def test_a_busy_dead_or_tripped_worker_is_not_counted(self):
        for sideline in ("busy", "crash", "breaker"):
            router = router_with(MAX_GROUP, workers=3)
            first, second, third = router.placement_order("m")
            if sideline == "busy":
                router.submit_many("m", [Payload() for _ in range(3)], 0.0)
                assert fills_of(router.dispatch(0.0, limit=1)) == [(3,)]
            elif sideline == "crash":
                router.crash_worker(first, 0.0)
            else:
                for _ in range(router.breaker.failure_threshold):
                    router.breaker.record_failure(("m", first), 0.0)
            router.submit_many("m", [Payload() for _ in range(24)], 0.0)
            actions = [
                a for a in router.dispatch(0.0)
                if isinstance(a, AssignAction)
            ]
            # eight batches between the two workers that can take them
            assert [
                (a.assignment.worker, a.assignment.fills) for a in actions
            ] == [(second, (3,) * 4), (third, (3,) * 4)], sideline

    def test_no_more_shares_than_cuts_this_dispatch_may_make(self):
        """The in-thread transport cuts one assignment at a time
        (``limit = room() = 1``) whatever its slot count: it takes all
        that is ready, as before."""
        router = router_with(MAX_GROUP, workers=4)
        router.submit_many("m", [Payload() for _ in range(24)], 0.0)
        assert fills_of(router.dispatch(0.0, limit=1)) == [(3,) * 8]

    def test_a_queue_of_one_lane_cuts_as_it_always_did(self):
        """The simulator, a bare core, a tape or reference model."""
        router = router_with(1, workers=3)
        router.submit_many("m", [Payload() for _ in range(12)], 0.0)
        assert fills_of(router.dispatch(0.0)) == [(3,), (3,), (3,)]
        assert router.pending("m") == 3


def queries_for(forest, count, seed=21):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (count, forest.n_features)).tolist()


def open_grouping_service(example_forest, **kwargs):
    service = CopseService(
        threads=2, engine="megakernel", backend="vector", **kwargs
    )
    service.register_model("m", example_forest, max_batch_size=4)
    return service


def lanes_of(service, name="m"):
    return service.router.lanes(name)


class TestLanesAreDerived:
    def test_from_what_the_transport_staged(self, example_forest):
        with CopseService(threads=1, backend="vector") as service:
            service.register_model("tape", example_forest)
            service.register_model(
                "mega", example_forest, engine="megakernel"
            )
            service.register_model(
                "slow", example_forest, engine="megakernel",
                backend="reference",
            )
            assert [lanes_of(service, n) for n in ("tape", "mega", "slow")] \
                == [1, MAX_GROUP, 1]
            # ... and derived again when registered again
            for name, staging in (
                ("tape", {"engine": "megakernel"}),
                ("mega", {"engine": "plan"}),
                ("slow", {"engine": "megakernel", "backend": "vector"}),
            ):
                service.unregister_model(name)
                service.register_model(name, example_forest, **staging)
            assert [lanes_of(service, n) for n in ("tape", "mega", "slow")] \
                == [MAX_GROUP, 1, MAX_GROUP]
            for name in ("tape", "mega", "slow"):
                assert service.classify(name, [40, 200]).oracle_ok is True

    def test_worker_processes_take_what_shares_a_pass(self, example_forest):
        """A worker runs the pump thread's routine on the shipped
        artifact, so the process transport derives what the in-thread
        one does — and derives it again for a model registered
        again under another engine."""
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry()
        transport = ProcessTransport(False, RealClock(), 5.0)  # spawns none
        lanes = {
            (engine, backend): transport.stage(registry.register(
                f"{engine}-{backend}", example_forest, engine=engine,
                backend=backend,
            ))
            for engine in ("megakernel", "tape")
            for backend in ("vector", "reference")
        }
        assert lanes == {
            ("megakernel", "vector"): MAX_GROUP,
            ("megakernel", "reference"): 1,
            ("tape", "vector"): 1,
            ("tape", "reference"): 1,
        }
        registry.unregister("tape-vector")
        assert transport.stage(registry.register(
            "tape-vector", example_forest, engine="megakernel",
            backend="vector",
        )) == MAX_GROUP

    def test_the_simulator_keeps_one(self):
        runner = SimRunner(
            [ModelProfile(name="m", capacity=4, service_ms=50.0)], workers=2
        )
        assert runner.router.lanes("m") == 1


class TestGroupsThroughTheFacade:
    def test_the_full_batches_of_a_request_are_one_assignment(
        self, example_forest, monkeypatch
    ):
        passes = []
        run_pass = MegaKernel._pass
        monkeypatch.setattr(
            MegaKernel, "_pass",
            lambda self, state, count, slots: (
                passes.append(count),
                run_pass(self, state, count, slots),
            )[1],
        )
        queries = queries_for(example_forest, 30)
        with open_grouping_service(example_forest) as service:
            results = service.classify_many("m", queries, "acme")
            stats = service.stats()
            counters = service.metrics_snapshot()["counters"]
            assigns = [d for d in service.decisions if d[0] == "assign"]
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(features)
        # per ciphertext, everything reads as it did one batch at a time
        assert [r.batch_id for r in results] == [
            1 + k // 4 for k in range(30)
        ]
        assert [r.batch_fill for r in results] == [4] * 28 + [2] * 2
        assert {r.batch_capacity for r in results} == {4}
        assert len({r.amortized_ms for r in results[:28]}) == 1
        assert results[-1].amortized_ms == pytest.approx(
            2 * results[0].amortized_ms
        )
        assert stats.batches == stats.scheduler.batches == 8
        assert counters["svc_batches"] == 8
        assert stats.avg_batch_fill == pytest.approx(30 / 32)
        # ... through one placement and one kernel pass for the seven
        # that were full at admission; the remainder waited for the
        # flush, as it always did
        assert [(d[1], d[5], d[6]) for d in assigns] == [
            (1, 28, 0), (8, 2, 28),
        ]
        assert passes == [7, 1]
        assert conserved(stats.scheduler)

    def test_conservation_over_ok_error_and_cancel_inside_a_group(
        self, example_forest, monkeypatch
    ):
        """One ciphertext of the group cannot be evaluated on any
        engine, one query was cancelled while queued: the other
        ciphertexts are answered, and every query ends in exactly one
        column."""
        from repro.serve import batched_runtime
        from repro.serve.packing import pack_group_planes

        queries = queries_for(example_forest, 16, seed=5)
        poisoned = []  # the planes of the ciphertext queries[5] is in
        encrypt = batched_runtime.encrypt_planes

        def encrypt_unless_poisoned(ctx, block, keys):
            if any(np.array_equal(planes, poisoned[0]) for planes in block):
                raise RuntimeProtocolError("this ciphertext is poison")
            return encrypt(ctx, block, keys)

        monkeypatch.setattr(
            batched_runtime, "encrypt_planes", encrypt_unless_poisoned
        )
        with open_grouping_service(example_forest) as service:
            poisoned.append(pack_group_planes(
                service.registry.get("m").layout, [queries[5:9]]
            )[0])
            # Three wait for a fourth; one of them gives up; the other
            # thirteen then arrive at once: twelve live queries are cut
            # as one group of three ciphertexts, the poison in the
            # second of them.
            futures = service.submit_many("m", queries[:3])
            assert futures[1].cancel()
            futures += service.submit_many("m", queries[3:])
            service.flush("m")
            assert service.drain(timeout=60)
            stats = service.stats()
            assigns = [d for d in service.decisions if d[0] == "assign"]
            pump_alive = service._pump.is_alive()
            assert service.classify("m", queries[0]).oracle_ok is True
        assert [(d[1], d[5]) for d in assigns[:2]] == [(1, 12), (4, 3)]
        with pytest.raises(CancelledError):
            futures[1].result(timeout=0)
        failed = [
            k for k, f in enumerate(futures)
            if k != 1 and f.exception(timeout=0) is not None
        ]
        assert failed == [5, 6, 7, 8]  # the poisoned ciphertext, alone
        for k in failed:
            exc = futures[k].exception(timeout=0)
            assert isinstance(exc, ServeError) and str(exc) == (
                "batch 2 evaluation failed: RuntimeProtocolError: "
                "this ciphertext is poison"
            )
        for k in set(range(16)) - {1, *failed}:
            result = futures[k].result(timeout=0)
            assert result.oracle_ok is True
            assert result.bitvector == example_forest.label_bitvector(
                queries[k]
            )
        assert [futures[k].result(timeout=0).batch_id
                for k in (0, 2, 3, 4, 9, 12, 13, 15)] == [
            1, 1, 1, 1, 3, 3, 4, 4,
        ]
        sched = stats.scheduler
        assert (sched.submitted, sched.completed, sched.failed,
                sched.cancelled) == (16, 11, 4, 1)
        assert conserved(sched) and pump_alive
        assert stats.batches == 3 and sched.batches == 4
        assert stats.oracle_failures == 0

    def test_tracing_stays_on_the_fast_path(self, example_forest,
                                            monkeypatch):
        """With a tracer attached a group is still one kernel pass, and
        its four stage spans are per assignment."""
        passes = []
        run_pass = MegaKernel._pass
        monkeypatch.setattr(
            MegaKernel, "_pass",
            lambda self, state, count, slots: (
                passes.append(count),
                run_pass(self, state, count, slots),
            )[1],
        )
        tracer = Tracer()
        queries = queries_for(example_forest, 24, seed=9)
        with open_grouping_service(example_forest, tracer=tracer) as service:
            results = service.classify_many("m", queries)
        assert all(r.oracle_ok for r in results)
        assert passes == [6]
        stages = [
            s for s in tracer.spans()
            if s.name in ("pack", "execute", "demux", "resolve")
        ]
        assert [s.name for s in stages] == [
            "pack", "execute", "demux", "resolve",
        ]
        for span in stages:
            assert span.attrs["ciphertexts"] == 6
            assert span.attrs["size"] == 24
            assert span.attrs["batch_id"] == 1
        assert stages[1].attrs["engine"] == "megakernel"
        assert stages[3].attrs["oracle_failures"] == 0
        (batch,) = [s for s in tracer.spans() if s.name == "batch"]
        assert batch.attrs["size"] == 24 and batch.attrs["fills"] == (4,) * 6
        assert batch.attrs["members"] == list(range(24))
        assert tracer.open_spans == 0


# ---------------------------------------------------------------------------
# Real worker processes (CI selects with -k real)
# ---------------------------------------------------------------------------


def pass_logging_worker_main(log_dir, conn, worker_id, epoch):
    """The production worker, writing the size of every kernel pass it
    runs to ``log_dir/worker-<id>`` (spawn-picklable through
    ``functools.partial``)."""
    from repro.serve.worker import worker_main

    run_pass = MegaKernel._pass

    def logged_pass(self, state, count, slots):
        with open(os.path.join(log_dir, f"worker-{worker_id}"), "a") as log:
            log.write(f"{count}\n")
        return run_pass(self, state, count, slots)

    MegaKernel._pass = logged_pass
    worker_main(conn, worker_id, epoch)


class TestRealGroupsCrossThePipe:
    def test_real_request_of_eight_ciphertexts_is_two_assignments(
        self, example_forest, tmp_path
    ):
        """One ``classify_many`` of eight full batches on two idle
        workers: 4 + 4, one request and one result each over the pipes,
        one kernel pass per worker — and every per-batch figure reads
        as the in-thread service's one assignment of eight."""
        queries = queries_for(example_forest, 32, seed=3)
        with open_grouping_service(example_forest) as service:
            expected = service.classify_many("m", queries)
        sent, results = [], []
        with ClusterService(
            workers=2, engine="megakernel", backend="vector",
            worker_entry=functools.partial(
                pass_logging_worker_main, str(tmp_path)
            ),
        ) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            assert lanes_of(service) == MAX_GROUP
            transport = service.transport
            send_to, result_event = transport._send_to, transport._result_event
            transport._send_to = lambda conn, message: (
                sent.append(message[0]), send_to(conn, message)
            )[1]
            transport._result_event = lambda result: (
                results.append(result), result_event(result)
            )[1]
            answers = service.classify_many("m", queries)
            stats = service.stats().scheduler
            assigns = [d for d in service.decisions if d[0] == "assign"]
            service.unregister_model("m")
            service.register_model(
                "m", example_forest, max_batch_size=4, engine="tape"
            )
            assert lanes_of(service) == 1  # derived again on registration
        view = lambda rs: [
            (r.bitvector, r.oracle_ok, r.batch_id, r.batch_fill,
             r.batch_capacity, r.amortized_ms) for r in rs
        ]
        assert view(answers) == view(expected)
        assert [r.batch_id for r in answers] == [1 + k // 4 for k in range(32)]
        # (first batch id, worker, tickets, first seq) of each assignment
        assert sorted((d[1], d[5], d[6]) for d in assigns) == [
            (1, 16, 0), (5, 16, 16),
        ]
        assert {d[3] for d in assigns} == {0, 1}
        assert sent.count(MSG_EVAL) == 2 and len(results) == 2
        assert sorted(len(r.parts()) for r in results) == [4, 4]
        assert stats.batches == 8 and conserved(stats)
        for worker in (0, 1):
            passes = (tmp_path / f"worker-{worker}").read_text().split()
            assert passes == ["4"], worker
