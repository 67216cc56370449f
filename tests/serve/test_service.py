"""End-to-end tests for the batched secure-inference service.

There is one facade (:class:`~repro.serve.CopseService`) over two
transports.  What must not depend on where a batch is evaluated is
parametrised over both — ``in-thread`` and ``real-process`` (one worker
process; ``real`` in the id so CI's ``-k real`` / ``-k "not real"``
split still selects the tests that spawn).  The rest of the file runs
in-thread only: it exercises the engines and the cost book, which the
transport does not touch.
"""

import inspect
import multiprocessing

import numpy as np
import pytest

from repro.core.engines import ENGINES, engine_row
from repro.core.runtime import secure_inference
from repro.errors import RejectedQuery, ServeError, ValidationError
from repro.fhe.costmodel import CostModel
from repro.serve import ClusterService, CopseService

TRANSPORTS = ["in-thread", "real-process"]


def queries_for(forest, count, seed=21, precision=8):
    rng = np.random.default_rng(seed)
    limit = 1 << precision
    return [
        [int(v) for v in rng.integers(0, limit, forest.n_features)]
        for _ in range(count)
    ]


def alone_ms(registered, features, engine):
    """Simulated inference ms of one query run alone through the
    per-query path (``secure_inference``) on ``engine``."""
    alone = secure_inference(
        registered.compiled, features, params=registered.params,
        engine=engine,
    )
    return CostModel(registered.params).sequential_ms(
        alone.tracker, phases=engine_row(engine).phases
    )


def open_service(transport, workers=1, **kwargs):
    """The facade over ``transport`` (a :data:`TRANSPORTS` id)."""
    kwargs.setdefault("backend", "vector")
    if transport == "in-thread":
        return CopseService(threads=workers, **kwargs)
    return ClusterService(workers=workers, **kwargs)


def conserved(stats):
    return stats.submitted == (
        stats.completed + stats.rejected + stats.failed + stats.cancelled
        + stats.dead_lettered
    )


def public_methods(cls):
    return {
        name: member for name, member in inspect.getmembers(cls)
        if not name.startswith("_") and inspect.isfunction(member)
    }


def break_keys(service, name):
    """Make every batch of ``name`` raise on every engine, on either
    transport: fresh keys the bundle was not encrypted under (staged
    again, so a worker process is shipped the broken envelope)."""
    from repro.fhe.context import FheContext

    registered = service.registry.get(name)
    registered.keys = FheContext(
        registered.params, backend=registered.backend
    ).keygen()
    service.transport.stage(registered)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestConformance:
    """One behaviour, wherever the batch is evaluated."""

    def test_round_trip_is_oracle_exact(self, transport, example_forest):
        queries = queries_for(example_forest, 9)
        with open_service(transport, workers=2) as service:
            registered = service.register_model(
                "rt", example_forest, precision=8, max_batch_size=4
            )
            service.preload("rt")
            results = service.classify_many("rt", queries, "acme")
            assert service.drain(timeout=60)
            stats = service.stats().scheduler
            counters = service.metrics_snapshot()["counters"]
            kinds = {d[0] for d in service.decisions}
        assert registered.batch_capacity == 4
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(features)
            assert type(res.bitvector) is list
        assert [r.features for r in results] == queries
        assert {r.batch_id for r in results} == {1, 2, 3}  # 4 + 4 + 1
        assert conserved(stats) and stats.completed == 9
        assert stats.per_tenant_completed == {"acme": 9}
        # the one router keeps the one book on both
        assert counters["cluster_ships"] == 2  # preload: both workers
        assert counters["svc_queries"] == 9 and counters["svc_batches"] == 3
        assert {"ship", "assign"} <= kinds

    def test_edges(self, transport, example_forest):
        """An empty request, an unknown name, a part-way refusal and a
        closed service (was ``test_real_facades_agree_on_the_edges``,
        which compared two classes)."""
        queries = queries_for(example_forest, 5)
        service = open_service(transport, max_queue=3)
        with service:
            service.register_model(
                "m", example_forest, precision=8, max_batch_size=8
            )
            # An empty request neither admits nor dispatches.
            dispatch = service.flush
            service.flush = None
            try:
                assert service.classify_many("m", []) == []
                assert service.submit_many("m", []) == []
            finally:
                service.flush = dispatch
            with pytest.raises(ValidationError):
                service.classify_many("nope", [])
            served = service.classify_many("m", queries[:2], "acme")
            assert [r.oracle_ok for r in served] == [True, True]
            # A block refused part-way: the head stays admitted, its
            # futures reachable from the refusal.
            with pytest.raises(RejectedQuery) as refusal:
                service.submit_many("m", queries, tenant="acme")
            assert refusal.value.queue_depth == 3
            assert len(refusal.value.admitted) == 3
            assert service.pending("m") == service.pending() == 3
            service.flush("m")
            for future, query in zip(refusal.value.admitted, queries):
                assert future.result(timeout=120).features == query
            stats = service.stats().scheduler
            assert (stats.submitted, stats.rejected) == (6, 1)
            assert stats.per_tenant_submitted == {"acme": 6}
        assert service.closed
        for call in (service.submit_many, service.classify_many):
            with pytest.raises(ServeError, match="closed"):
                call("m", queries[:2])
        closed = service.stats().scheduler
        assert closed.submitted == 6  # nothing admitted after close
        assert conserved(closed)
        service.close()  # idempotent

    def test_an_iterator_of_queries_is_a_request(self, transport,
                                                 example_forest):
        """Regression: ``submit_many`` / ``classify_many`` of an iterator
        or a generator raised a raw ``TypeError`` from ``len()``."""
        queries = queries_for(example_forest, 6)
        with open_service(transport) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            futures = service.submit_many("m", iter(queries), "acme")
            service.flush("m")
            streamed = service.classify_many("m", (q for q in queries))
            assert service.classify_many("m", iter([])) == []
            stats = service.stats().scheduler
        assert [f.result(timeout=60).features for f in futures] == queries
        assert [r.features for r in streamed] == queries
        assert all(r.oracle_ok for r in streamed)
        assert conserved(stats) and stats.completed == 12

    @pytest.mark.parametrize("request_", [None, 5])
    def test_a_request_that_is_not_iterable_is_a_typed_refusal(
        self, transport, example_forest, request_
    ):
        """Regression: a non-iterable request raised a raw ``TypeError``
        ("object is not iterable") from the batcher."""
        with open_service(transport) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            for call in (service.submit_many, service.classify_many):
                with pytest.raises(ValidationError, match="iterable"):
                    call("m", request_)
            assert service.stats().scheduler.submitted == 0

    def test_unknown_names_are_typed_refusals(self, transport,
                                              example_forest):
        """Never a ``KeyError`` / ``TypeError`` / ``0``: the registry's
        refusal, from every method that takes a model name."""
        with open_service(transport) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            calls = {
                "preload": (),
                "pending": (),
                "flush": (),
                "submit": ([1, 2],),
                "classify": ([1, 2],),
            }
            for method, args in calls.items():
                with pytest.raises(
                    ValidationError, match="no registered model named 'ghost'"
                ):
                    getattr(service, method)("ghost", *args)
            assert service.pending("m") == 0
            service.unregister_model("ghost")  # nothing to retire: no-op
            assert service.classify("m", [40, 200]).oracle_ok is True

    def test_ill_typed_arguments_are_typed_refusals(self, transport,
                                                     example_forest):
        """Regression: ``tenant=[]`` raised a raw ``TypeError`` after
        the ticket was queued and counted; the batch that later carried
        it killed the pump and every request after it hung.  Ill-typed
        fields are refused before anything is queued or counted."""
        with open_service(transport) as service:
            service.register_model("m", example_forest, max_batch_size=2)
            for kwargs, word in (
                ({"tenant": []}, "tenant"),
                ({"tenant": None}, "tenant"),
                ({"priority": "x"}, "priority"),
                ({"priority": 1.5}, "priority"),
                ({"deadline_ms": "x"}, "deadline_ms"),
                ({"deadline_ms": float("nan")}, "deadline_ms"),
            ):
                for call in (service.submit, service.submit_many):
                    query = [1, 2] if call == service.submit else [[1, 2]]
                    with pytest.raises(ValidationError, match=word):
                        call("m", query, **kwargs)
                assert service.pending() == 0
            for kwargs, word in (
                ({"weight": "a"}, "weight"),
                ({"max_queue": "a"}, "max_pending"),
                ({"max_batch_size": 1.5}, "max_batch_size"),
                ({"seccomp_variant": "bogus"}, "SecComp variant"),
            ):
                with pytest.raises(ValidationError, match=word):
                    service.register_model("n", example_forest, **kwargs)
                assert "n" not in service.registry
            assert service.stats().scheduler.submitted == 0
            assert service._pump.is_alive()
            # ... and the next request is answered
            assert service.classify("m", [40, 200]).oracle_ok is True
            stats = service.stats().scheduler
            assert conserved(stats) and stats.completed == 1
        for workers in ("2", 1.5, None):
            with pytest.raises(ValidationError, match="workers"):
                open_service(transport, workers=workers)
        with pytest.raises(ValidationError, match="default_deadline_ms"):
            open_service(transport, default_deadline_ms="soon")
        for max_queue in (-1, 0, 2.5, "8"):
            with pytest.raises(ValidationError, match="max_queue"):
                open_service(transport, max_queue=max_queue)

    def test_control_seams(self, transport, example_forest):
        """Per-model ``weight`` / ``max_queue`` at registration, the
        pool growing and shrinking — with oracle-exact answers
        throughout."""
        queries = queries_for(example_forest, 6, seed=3)
        with open_service(transport, engine="eager", max_queue=1) as service:
            service.register_model(
                "m", example_forest, max_batch_size=4, weight=2.0,
                max_queue=8,
            )
            queue = service.router._queues["m"]  # white box
            assert (queue.weight, queue.max_pending) == (2.0, 8)
            assert all(
                r.oracle_ok for r in service.classify_many("m", queries)
            )
            assert service.add_worker() == 1
            assert service.workers == 2
            assert all(
                r.oracle_ok for r in service.classify_many("m", queries)
            )
            assert service.remove_worker() == 1
            with pytest.raises(ValidationError, match="last live worker"):
                service.remove_worker()
            assert service.workers == 1
            assert all(
                r.oracle_ok for r in service.classify_many("m", queries)
            )
            decisions = service.decisions
            stats = service.stats().scheduler
        # the worker that served throughout was shipped the model once
        assert len([d for d in decisions if d[:2] == ("ship", 0)]) == 1
        assert conserved(stats) and stats.completed == 18

    def test_conservation_over_a_mixed_run(self, transport, example_forest):
        """ok + evaluation error + cancellation + admission refusal +
        a model unregistered with queries pending: every query ends in
        exactly one column."""
        from concurrent.futures import CancelledError

        queries = queries_for(example_forest, 8, seed=13)
        with open_service(transport) as service:
            for name in ("ok", "broken", "doomed"):
                service.register_model(
                    name, example_forest, max_batch_size=4, max_queue=3
                )
            break_keys(service, "broken")
            ok = service.submit_many("ok", queries[:3])
            with pytest.raises(RejectedQuery):
                service.submit("ok", queries[3])
            assert ok[1].cancel()
            broken = service.submit_many("broken", queries[3:5])
            doomed = service.submit_many("doomed", queries[5:8])
            service.unregister_model("doomed")
            service.flush()
            assert service.drain(timeout=120)
            for future in doomed:
                with pytest.raises(ServeError, match="unregistered"):
                    future.result(timeout=60)
            for future in broken:
                # failed once, by the evaluation, quoting its cause
                with pytest.raises(
                    ServeError, match=r"^batch \d+ evaluation failed: \w+"
                ):
                    future.result(timeout=60)
            with pytest.raises(CancelledError):
                ok[1].result(timeout=60)
            assert ok[0].result(timeout=60).oracle_ok is True
            assert ok[2].result(timeout=60).batch_fill == 2
            # and the worker survived the bad batch
            assert service.classify("ok", queries[0]).oracle_ok is True
            stats = service.stats().scheduler
            kinds = [d[0] for d in service.decisions]
        assert conserved(stats)
        assert (stats.submitted, stats.completed, stats.rejected,
                stats.failed, stats.cancelled, stats.retries) == (
            10, 3, 1, 5, 1, 0
        )
        # an evaluation error is deterministic: never retried, and the
        # ladder's degrades are not booked for a batch that failed
        assert "park" not in kinds and "degrade" not in kinds

    def test_a_batch_of_a_group_that_fails_fails_alone(
        self, transport, example_forest, monkeypatch
    ):
        """Three ciphertexts go to the evaluator as one assignment and
        the second cannot be evaluated on any engine (a query outside
        the model's domain, let past admission here so that it is the
        evaluation that refuses it): its four queries fail, the other
        eight are answered, and the evaluator lives on."""
        import numpy as np

        from repro.serve import batcher

        monkeypatch.setattr(
            batcher, "validate_feature_block",
            lambda layout, queries: np.asarray(queries, dtype=np.int64),
        )
        queries = queries_for(example_forest, 12, seed=17)
        queries[5] = [1 << 12] * example_forest.n_features
        with open_service(transport, engine="megakernel") as service:
            service.register_model(
                "m", example_forest, precision=8, max_batch_size=4
            )
            futures = service.submit_many("m", queries)
            assert service.drain(timeout=120)
            stats = service.stats().scheduler
            counters = service.metrics_snapshot()["counters"]
            decisions = service.decisions
            monkeypatch.undo()
            assert service.classify("m", queries[0]).oracle_ok is True
        assigns = [d for d in decisions if d[0] == "assign"]
        assert [(d[1], d[5]) for d in assigns] == [(1, 12)]
        for k, future in enumerate(futures):
            if 4 <= k < 8:
                # one refusal on both transports: the batch named, the
                # evaluation's own diagnosis quoted
                with pytest.raises(ServeError, match=(
                    r"^batch 2 evaluation failed: ValidationError: "
                    r".*does not fit"
                )):
                    future.result(timeout=0)
                continue
            result = future.result(timeout=0)
            assert result.oracle_ok is True
            assert result.bitvector == example_forest.label_bitvector(
                queries[k]
            )
            assert (result.batch_id, result.batch_fill) == (1 + k // 4, 4)
        assert conserved(stats)
        assert (stats.completed, stats.failed, stats.retries) == (8, 4, 0)
        assert stats.batches == 3 and counters["svc_batches"] == 2
        assert "park" not in {d[0] for d in decisions}

    def test_drain_returns_to_answers(self, transport, example_forest):
        """Futures are answered after the router books the batch, outside
        the lock: a ``drain`` (or ``flush``) that finds nothing in
        flight while the pump is still answering waits for the answers
        — here, while a done-callback holds the pump up for less than a
        poll."""
        import threading
        import time

        queries = queries_for(example_forest, 4, seed=37)
        answering = threading.Event()
        with open_service(transport) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            futures = service.submit_many("m", queries)  # a full batch
            futures[0].add_done_callback(
                lambda _: (answering.set(), time.sleep(0.03))
            )
            assert answering.wait(timeout=60)
            assert service.drain(timeout=60)
            assert [f.done() for f in futures] == [True] * 4

    def test_op_counts_are_booked_alike(self, transport, example_forest):
        """``svc_ops`` / ``svc_phase_ops`` and the per-engine view are
        the sum of what the routine's trackers counted, batch by batch
        — on the process pool too, where the counts cross the pipe."""
        from repro.serve.batched_runtime import evaluate_registered_batch

        queries = queries_for(example_forest, 9, seed=29)
        with open_service(transport) as service:
            registered = service.register_model(
                "m", example_forest, max_batch_size=4
            )
            service.classify_many("m", queries)
            counters = service.metrics_snapshot()["counters"]
            stats = CopseService.stats(service)  # the ServiceStats view
        expected_ops, expected_phase_ops = {}, {}
        for at in (0, 4, 8):  # the batches the request was cut into
            tracker = evaluate_registered_batch(
                registered, queries[at : at + 4]
            ).tracker
            for phase in tracker.phases:
                for kind, n in tracker.phase_stats(phase).counts.items():
                    op = kind.value
                    expected_ops[op] = expected_ops.get(op, 0) + n
                    key = (phase, op)
                    expected_phase_ops[key] = (
                        expected_phase_ops.get(key, 0) + n
                    )
        assert {
            key: value for key, value in counters.items()
            if key.startswith("svc_ops{")
        } == {f'svc_ops{{op="{op}"}}': n for op, n in expected_ops.items()}
        assert {
            key: value for key, value in counters.items()
            if key.startswith("svc_phase_ops{")
        } == {
            f'svc_phase_ops{{op="{op}",phase="{phase}"}}': n
            for (phase, op), n in expected_phase_ops.items()
        }
        assert stats.op_counts == expected_ops
        tape_ops = {
            op: n for (phase, op), n in expected_phase_ops.items()
            if phase == "tape_inference"
        }
        assert tape_ops and stats.engine_op_counts("tape") == tape_ops

    def test_one_reduce_function(self, transport, example_forest):
        """The path an assignment takes to its ``BatchResult`` —
        in-thread, the pump thread's ``wait``; across the pipe, the
        request and the result through ``pickle`` around the worker's
        own call — returns what ``worker._eval_result`` returns, down
        to a batch that fails, save the worker id."""
        import dataclasses
        import pickle

        from repro.serve import ModelRegistry
        from repro.serve.batcher import PendingQuery
        from repro.serve.scheduler import Assignment, QueryRun
        from repro.serve.simclock import RealClock
        from repro.serve.transport import (
            AssignAction,
            BatchRequest,
            InThreadTransport,
            ProcessTransport,
        )
        from repro.serve.worker import _eval_result

        registered = ModelRegistry().register(
            "m", example_forest, max_batch_size=4, engine="megakernel",
            backend="vector",
        )
        features = queries_for(example_forest, 10, seed=31)
        features[5] = [1 << 12] * example_forest.n_features  # batch 2 fails
        payloads = [PendingQuery(f) for f in features]
        run = QueryRun("m", "acme", 0.0, None, 0, 0,
                       [p.future for p in payloads], None, payloads, None, 0)
        assignment = Assignment(
            batch_id=3, queue="m", worker=1,
            parts=[[run.piece(0, 4)], [run.piece(4, 8)], [run.piece(8, 10)]],
            cut_time=0.0,
        )
        direct = _eval_result(
            0,
            BatchRequest(
                batch_id=3, model="m", epoch=2, features=features,
                verify_oracle=True, fills=(4, 4, 2),
            ),
            {"m": registered},
        )
        if transport == "in-thread":
            side = InThreadTransport(True, None, None)
            side.stage(registered)
            side.send(AssignAction(assignment=assignment, epoch=2))
            (result,) = side.wait(0.0)
        else:
            side = ProcessTransport(True, RealClock(), 5.0)  # spawns none
            side.stage(registered)
            sent = []
            side._conns = [None, None]
            side._send_to = lambda conn, message: sent.append(
                pickle.dumps(message)
            )
            side.send(AssignAction(assignment=assignment, epoch=2))
            _, request = pickle.loads(sent[-1])
            result = pickle.loads(pickle.dumps(
                _eval_result(1, request, {"m": registered})
            ))
        assert result.worker == 1
        assert dataclasses.replace(result, worker=0) == direct
        assert [p.error is None for p in direct.parts()] == [
            True, False, True,
        ]
        assert direct.parts()[1].error.startswith("ValidationError: ")
        assert all(p.phase_op_counts for p in direct.parts() if not p.error)
        # ... and the one completion handler answers it
        completion = side._result_event(result)
        assert completion.failed == {1: direct.parts()[1].error}
        assert [r and r.batch_id for r in completion.records] == [3, None, 5]


class TestNonIntegerFeaturesAreRefused:
    """Defect lock: admission coerced a feature value with ``int`` (and
    a block with an int64 ``asarray``), so ``[2.7, 1]`` was served as
    ``[2, 1]`` and the oracle, seeing the coerced query, agreed.  A
    value that is not an integer is refused, on every admission path,
    before anything is admitted."""

    @pytest.mark.parametrize("bad", [
        [2.7, 1], [1.5, 2], ["3", 2], [np.float64(2.0), 1],
        np.array([2.0, 1.0]),
    ], ids=repr)
    @pytest.mark.parametrize("call", ["submit", "submit_many",
                                      "classify_many"])
    def test_refused_not_coerced(self, example_forest, call, bad):
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            request = {
                "submit": lambda: service.submit("m", bad),
                "submit_many": lambda: service.submit_many(
                    "m", [[1, 2], bad, [3, 4]]),
                "classify_many": lambda: service.classify_many(
                    "m", [[1, 2], [3, 4], bad]),
            }[call]
            with pytest.raises(ValidationError, match="is not an integer"):
                request()
            assert service.pending("m") == 0
            assert service.stats().scheduler.submitted == 0
            # whole numbers of an integer type still pass
            answer = service.classify_many(
                "m", [[np.int64(2), 1], np.array([1, 2])])
            assert [a.features for a in answer] == [[2, 1], [1, 2]]
            assert all(type(v) is int for a in answer for v in a.features)


class TestAdmittedBlockIsTheServices:
    """Defect lock: an int64 array given to ``submit_many`` was queued
    as it was, not copied, and its rows were read again at the cut, the
    oracle and the answer.  A caller that refilled its buffer before
    the futures resolved got answers to the new rows, and the oracle,
    reading the same rows, agreed."""

    def test_refilled_buffer_changes_no_answer(self, example_forest):
        queries = queries_for(example_forest, 6, seed=3)
        refill = [0] * example_forest.n_features
        wanted = [example_forest.label_bitvector(q) for q in queries]
        assert example_forest.label_bitvector(refill) in wanted
        assert any(bits != example_forest.label_bitvector(refill)
                   for bits in wanted)
        block = np.array(queries, dtype=np.int64)
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            futures = service.submit_many("m", block)
            assert service.pending("m") == 6  # nothing cut yet
            block[:] = refill
            service.flush("m")
            results = [future.result(timeout=60) for future in futures]
        assert [r.features for r in results] == queries
        assert [r.bitvector for r in results] == wanted
        assert all(r.oracle_ok for r in results)


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestClassifyManyLeavesNothingQueued:
    """Defect lock: ``classify_many`` admitted queries ``0..k-1``,
    raised at ``k`` and returned without a flush — ``k`` tickets sat in
    the queue behind futures nobody held."""

    @pytest.mark.parametrize("bad", [[1], [0, 999]])
    def test_invalid_query_admits_nothing(self, transport, example_forest,
                                          bad):
        with open_service(transport) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            with pytest.raises(ValidationError) as many:
                service.classify_many("m", [[1, 2], [3, 4], bad, [5, 6]])
            assert service.pending("m") == 0
            with pytest.raises(ValidationError) as single:
                service.submit("m", bad)
            assert str(many.value) == str(single.value)
            stats = service.stats().scheduler
            assert stats.submitted == stats.rejected == 0
            # and the service still serves
            assert len(service.classify_many("m", [[1, 2], [3, 4]])) == 2

    def test_refused_admission_serves_what_was_admitted(
        self, transport, example_forest
    ):
        queries = queries_for(example_forest, 5)
        with open_service(transport, max_queue=2) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            with pytest.raises(RejectedQuery) as excinfo:
                service.classify_many("m", queries)
            assert excinfo.value.queue_depth == 2
            assert service.pending("m") == 0
            assert service.drain(timeout=120)
            stats = service.stats().scheduler
        # The twin makes the same three submit calls by hand.
        with open_service(transport, max_queue=2) as twin:
            twin.register_model("m", example_forest, max_batch_size=8)
            futures = [twin.submit("m", q) for q in queries[:2]]
            with pytest.raises(RejectedQuery):
                twin.submit("m", queries[2])
            twin.flush("m")
            assert all(f.result(timeout=120).oracle_ok for f in futures)
            twin_stats = twin.stats().scheduler
        assert conserved(stats)
        assert (stats.submitted, stats.rejected, stats.completed) == (3, 1, 2)
        assert (stats.submitted, stats.rejected, stats.completed) == (
            twin_stats.submitted, twin_stats.rejected, twin_stats.completed
        )


class TestOneFacade:
    """The locks that keep the two constructions from drifting apart."""

    def test_public_surface_is_one_signature(self):
        thread, process = (
            public_methods(cls) for cls in (CopseService, ClusterService)
        )
        assert sorted(thread) == sorted(process)
        assert {"register_model", "unregister_model", "preload", "submit",
                "submit_many", "classify", "classify_many", "flush",
                "drain", "pending", "add_worker", "remove_worker", "stats",
                "metrics_snapshot", "render_prometheus", "dlq",
                "close"} <= set(thread)
        for name in thread:
            assert inspect.signature(thread[name]).parameters == (
                inspect.signature(process[name]).parameters
            ), name
        # ... because they *are* the same functions: the process pool's
        # name is only a constructor.
        assert [n for n in thread if thread[n] is not process[n]] == []
        # Its constructor takes what the in-thread one takes, in the
        # same order, plus what only a process pool has.
        pool_only = {"max_retries", "heartbeat_interval_s",
                     "heartbeat_timeout_s", "retry_policy", "breaker",
                     "dlq_limit", "worker_entry"}
        thread_init, process_init = (
            list(inspect.signature(cls.__init__).parameters.values())
            for cls in (CopseService, ClusterService)
        )
        assert [
            p.replace(name="threads") if p.name == "workers" else p
            for p in process_init if p.name not in pool_only
        ] == thread_init

    def test_one_answer_path(self):
        """Both transports reduce an assignment with the one worker
        function and answer it with the one completion handler: one
        call of each in ``transport.py``, and no second evaluation path
        left in the batcher."""
        import pathlib

        import repro.serve

        root = pathlib.Path(repro.serve.__file__).parent
        transport = (root / "transport.py").read_text()
        batcher = (root / "batcher.py").read_text()
        assert transport.count("_eval_result(") == 1
        assert transport.count("._result_event(") == 1
        assert transport.count("def receive(") == 1
        assert "evaluate_group" not in batcher
        assert "evaluate_batches_down_ladder" not in batcher

    def test_real_identical_bits_on_both_transports(self, example_forest):
        queries = queries_for(example_forest, 11, seed=5)
        answers = {}
        for transport in TRANSPORTS:
            with open_service(transport, workers=2) as service:
                service.register_model(
                    "bits", example_forest, precision=8, max_batch_size=4
                )
                results = service.classify_many("bits", queries)
            answers[transport] = [
                (r.bitvector, r.batch_id, r.batch_fill, r.amortized_ms)
                for r in results
            ]
        assert answers["in-thread"] == answers["real-process"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("bad", [
        {"engine": "tapee"}, {"backend": "nope"},
        {"default_deadline_ms": 0}, {"default_deadline_ms": -5.0},
        {"workers": 0},
    ], ids=lambda bad: next(iter(bad)))
    def test_bad_constructor_value_refused_before_anything_starts(
        self, transport, bad
    ):
        """A typo used to construct the process pool — after spawning a
        worker — where the in-process service raised."""
        import threading

        from repro.errors import ParameterError

        threads = threading.active_count()
        # (the backend registry's own typed refusal is a ParameterError)
        with pytest.raises((ValidationError, ParameterError)):
            open_service(transport, **bad)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("bad", [
        {"heartbeat_interval_s": "5"}, {"heartbeat_timeout_s": "60"},
        {"dlq_limit": "64"},
    ], ids=lambda bad: next(iter(bad)))
    def test_ill_typed_pool_value_refused_before_anything_starts(self, bad):
        """The pool's own liveness / fault-domain values used to raise a
        raw ``TypeError`` from their first comparison."""
        import threading

        threads = threading.active_count()
        with pytest.raises(ValidationError, match=next(iter(bad))):
            ClusterService(workers=1, **bad)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_decision_log_is_a_window(self, example_forest, monkeypatch):
        """The live router's log grew one tuple per batch forever; the
        simulator keeps its whole log (its replays are hashed)."""
        from repro.serve import ModelProfile, SimRunner, service

        monkeypatch.setattr(service, "DECISION_WINDOW", 6)
        with CopseService(threads=1, backend="vector") as live:
            live.register_model("m", example_forest, max_batch_size=2)
            live.classify_many("m", queries_for(example_forest, 40))
            window = live.decisions
            assert live.stats().scheduler.batches == 20
        assert len(window) == 6
        assert [d[0] for d in window] == ["assign"] * 6
        assert [d[1] for d in window] == list(range(15, 21))  # the latest
        sim = SimRunner(
            [ModelProfile(name="m", capacity=4, service_ms=50.0)], workers=1
        )
        assert type(sim.router.decisions) is list


class TestEngineLadder:
    """An engine that raises degrades to the next rung — by one walk
    (``evaluate_batches_down_ladder``), whoever evaluates the batch."""

    @staticmethod
    def break_engines(monkeypatch, *broken):
        """Running the cached artifact of a ``broken`` engine's table
        row now raises."""
        from repro.errors import RuntimeProtocolError
        from repro.serve import batched_runtime

        run = batched_runtime.run_artifact

        def run_unless_broken(row, *args, **kwargs):
            if row.name in broken:
                raise RuntimeProtocolError(f"engine {row.name!r} is broken")
            return run(row, *args, **kwargs)

        monkeypatch.setattr(
            batched_runtime, "run_artifact", run_unless_broken
        )

    def test_in_thread_degrade_is_recorded_once(self, example_forest,
                                                monkeypatch):
        queries = queries_for(example_forest, 10, seed=17)
        with CopseService(threads=1, engine="tape",
                          backend="vector") as service:
            registered = service.register_model(
                "m", example_forest, max_batch_size=4
            )
            self.break_engines(monkeypatch, "tape")
            results = service.classify_many("m", queries)
            stats = service.stats()
            decisions = service.decisions
            degraded = service.metrics.counter_value(
                "cluster_degraded", labels={"model": "m"}
            )
        assert registered.engine == "tape"  # the registration stands
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(features)
        degrades = [d for d in decisions if d[0] == "degrade"]
        assert [d[:4] for d in degrades] == [("degrade", "m", "tape", "plan")]
        assert degraded == stats.batches == 3  # every batch, counted
        assert stats.engine_ms("plan") > 0 and stats.engine_ms("tape") == 0
        assert stats.scheduler.failed == 0 and conserved(stats.scheduler)

    def test_the_walk(self, example_forest, monkeypatch):
        from repro.errors import RuntimeProtocolError
        from repro.fhe.context import FheContext
        from repro.serve import ModelRegistry
        from repro.core.engines import result_of
        from repro.serve.faults import evaluate_batches_down_ladder

        registered = ModelRegistry().register(
            "m", example_forest, max_batch_size=4, engine="megakernel",
            backend="vector",
        )
        features = queries_for(example_forest, 3)
        oracle = [example_forest.label_bitvector(f) for f in features]
        evaluation, degraded = result_of(
            evaluate_batches_down_ladder(registered, [features])[0]
        )
        assert (evaluation.engine, degraded) == ("megakernel", None)
        assert evaluation.bitvectors == oracle

        self.break_engines(monkeypatch, "megakernel", "tape")
        evaluation, degraded = result_of(evaluate_batches_down_ladder(
            registered, [features], verify_oracle=True
        )[0])
        assert degraded == ("megakernel", "plan")
        assert evaluation.engine == "plan"
        assert evaluation.bitvectors == oracle
        assert evaluation.oracle_ok == [True] * 3

        # Past the last rung: the registered engine's own refusal.
        self.break_engines(monkeypatch, "plan")
        # ... and eager meets keys the bundle was not encrypted under
        registered.keys = FheContext(
            registered.params, backend=registered.backend
        ).keygen()
        with pytest.raises(RuntimeProtocolError, match="'megakernel' is"):
            result_of(
                evaluate_batches_down_ladder(registered, [features])[0]
            )


class TestRoundTrip:
    def test_batched_multithreaded_round_trip(self, example_forest):
        """The PR acceptance round trip: one registration, >= 8 queries,
        batch_size > 1, threads > 1, every result oracle-exact."""
        queries = queries_for(example_forest, 9)
        with CopseService(threads=3) as service:
            registered = service.register_model(
                "rt", example_forest, precision=8, max_batch_size=4
            )
            assert registered.batch_capacity == 4 > 1
            results = service.classify_many("rt", queries)
            stats = service.stats()

        assert len(results) == 9
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(features)
            assert res.model == "rt"
            assert res.amortized_ms > 0
        # 9 queries across capacity-4 batches -> 3 batches (4+4+1).
        assert stats.queries == 9
        assert stats.batches == 3
        assert stats.oracle_failures == 0
        assert {r.batch_id for r in results} == {1, 2, 3}

    def test_results_keep_submission_order(self, example_forest):
        queries = queries_for(example_forest, 6, seed=5)
        with CopseService(threads=2) as service:
            service.register_model("m", example_forest, max_batch_size=2)
            results = service.classify_many("m", queries)
        assert [r.features for r in results] == queries


class TestDispatchPolicy:
    def test_full_batches_dispatch_without_flush(self, example_forest):
        with CopseService(threads=2) as service:
            service.register_model("m", example_forest, max_batch_size=2)
            futures = [
                service.submit("m", f) for f in queries_for(example_forest, 4)
            ]
            # Two full batches were cut; no flush needed for these.
            for future in futures:
                assert future.result(timeout=30).oracle_ok is True
            assert service.pending("m") == 0

    def test_partial_batch_waits_for_flush(self, example_forest):
        with CopseService(threads=2) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            future = service.submit("m", queries_for(example_forest, 1)[0])
            assert service.pending("m") == 1
            assert not future.done()
            service.flush("m")
            assert future.result(timeout=30).batch_fill == 1

    def test_classify_single_query(self, example_forest):
        with CopseService(threads=2) as service:
            service.register_model("m", example_forest)
            res = service.classify("m", [40, 200])
            assert res.bitvector == example_forest.label_bitvector([40, 200])


class TestErrors:
    def test_unknown_model_rejected(self, example_forest):
        with CopseService() as service:
            with pytest.raises(ValidationError):
                service.submit("ghost", [1, 2])
            with pytest.raises(ValidationError):
                service.flush("ghost")

    def test_flush_unknown_name_does_not_flush_others(self, example_forest):
        """Regression: flush('typo') used to silently flush everything."""
        with CopseService(threads=1) as service:
            service.register_model("real", example_forest, max_batch_size=4)
            future = service.submit("real", [1, 2])
            with pytest.raises(ValidationError):
                service.flush("typo")
            assert not future.done()
            assert service.pending("real") == 1

    def test_bad_query_rejected_at_submit(self, example_forest):
        with CopseService() as service:
            service.register_model("m", example_forest)
            with pytest.raises(ValidationError):
                service.submit("m", [1])  # wrong arity
            with pytest.raises(ValidationError):
                service.submit("m", [0, 999])  # out of domain
            # Nothing poisoned the queue.
            assert service.pending("m") == 0

    def test_cancelled_future_does_not_poison_batch(self, example_forest):
        """Regression: a cancelled future used to abort result delivery
        for the other queries packed into the same batch."""
        from concurrent.futures import CancelledError

        queries = queries_for(example_forest, 3)
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            futures = [service.submit("m", f) for f in queries]
            assert futures[1].cancel()
            service.flush("m")
            assert futures[0].result(timeout=30).oracle_ok is True
            assert futures[2].result(timeout=30).oracle_ok is True
            with pytest.raises(CancelledError):
                futures[1].result(timeout=30)
            stats = service.stats()
        assert stats.queries == 2  # the cancelled slot was never packed
        assert futures[0].result().batch_fill == 2

    def test_unregistered_model_stops_serving(self, example_forest):
        """Regression: registry.unregister left a stale servable batcher."""
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest)
            service.registry.unregister("m")
            with pytest.raises(ValidationError):
                service.submit("m", [1, 2])
            # flush() stops serving it, releasing the cached model.
            service.flush()
            assert service.router.queue_names() == []
            assert service.transport._staged == {}

    def test_unregister_model_releases_batcher(self, example_forest):
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest)
            service.unregister_model("m")
            assert service.router.queue_names() == []
            assert service.transport._staged == {}
            with pytest.raises(ValidationError):
                service.submit("m", [1, 2])

    def test_submit_after_close_rejected(self, example_forest):
        service = CopseService()
        service.register_model("m", example_forest)
        service.close()
        with pytest.raises(ServeError, match="closed"):
            service.submit("m", [1, 2])

    def test_service_close_is_idempotent(self, example_forest):
        service = CopseService()
        service.register_model("m", example_forest)
        future = service.submit("m", [1, 2])
        service.close()  # flushes the partial batch
        assert future.result(timeout=30).oracle_ok is True
        service.close()  # second close is a no-op
        service.close()


class TestBlockRequestsRefuseLikeSingles:
    """No raw exception out of ``submit_many`` / ``classify_many``: a
    ragged, out-of-range, non-integer or non-sequence query is the
    ``ValidationError`` a single ``submit`` gives, and admits nothing."""

    @pytest.mark.parametrize("bad", [
        [1], [1, 2, 3], [0, 999], [-1, 0], [1 << 70, 0], ["x", 1],
        [None, 1], [float("nan"), 1], 7, [[1], 2],
    ])
    def test_same_refusal_and_nothing_admitted(self, example_forest, bad):
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            with pytest.raises(ValidationError) as single:
                service.submit("m", bad)
            for call in (service.submit_many, service.classify_many):
                for block in ([bad], [[1, 2], bad, [3, 4]]):
                    with pytest.raises(ValidationError) as many:
                        call("m", block)
                    assert str(many.value) == str(single.value)
            assert service.pending("m") == 0
            assert service.stats().scheduler.submitted == 0

    def test_submit_many_is_n_submits(self, example_forest):
        queries = queries_for(example_forest, 5)
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            futures = service.submit_many(
                "m", queries, tenant="acme", deadline_ms=1e6, priority=2
            )
            assert service.submit_many("m", []) == []
            service.flush("m")
            results = [f.result(timeout=30) for f in futures]
            stats = service.stats().scheduler
        assert [r.features for r in results] == queries
        assert all(r.oracle_ok for r in results)
        # one full batch of four cut at admission, the fifth on flush
        assert [r.batch_fill for r in results] == [4, 4, 4, 4, 1]
        assert stats.per_tenant_completed == {"acme": 5}
        assert conserved(stats)


#: Forests the paper's level matrices cannot express: no branch above a
#: label.  Typed refusal at registration on every engine — never a raw
#: ``ValueError`` (``max()`` over zero branches), never at first query.
ALL_LEAF_FORESTS = {
    "one bare leaf": "labels: A B\nfeatures: 1\nl 0\n",
    "two bare leaves": "labels: A B\nfeatures: 1\nl 0\nl 1\n",
    "bare leaf beside a branching tree":
        "labels: A B\nfeatures: 1\nb 0 5 l 0 l 1\nl 1\n",
}


class TestAllLeafForestRefused:
    @pytest.mark.parametrize("engine", ["eager", "plan", "tape", "megakernel"])
    @pytest.mark.parametrize("shape", sorted(ALL_LEAF_FORESTS))
    def test_compile_error_at_registration(self, engine, shape):
        from repro.errors import CompileError
        from repro.forest.serialize import loads_forest

        forest = loads_forest(ALL_LEAF_FORESTS[shape])
        # the plaintext walk answers it: the refusal is the compiler's
        assert len(forest.label_bitvector([3])) == len(forest.all_leaves())
        with CopseService(engine=engine, backend="vector") as service:
            with pytest.raises(CompileError) as excinfo:
                service.register_model("leafy", forest)
            assert "leafy" not in service.registry
        message = str(excinfo.value)
        assert "has no ancestor branches" in message
        assert "level-matrix construction" in message
        assert "not of the input format" in message


class TestFlushAndWidthEdgeCases:
    def test_flush_empty_queue_is_noop(self, example_forest):
        """Regression: flushing with nothing pending must not dispatch
        an empty batch, hang, or disturb stats."""
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest)
            service.flush("m")
            service.flush()
            service.flush("m")
            stats = service.stats()
        assert stats.batches == 0
        assert stats.queries == 0
        assert stats.scheduler.submitted == 0

    def test_flush_empty_then_serve_still_works(self, example_forest):
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest)
            service.flush("m")
            result = service.classify("m", [40, 200])
            assert result.oracle_ok is True

    def test_query_wider_than_slots_rejected_at_submit(self, example_forest):
        """A layout whose per-query block exceeds the ciphertext width
        (only constructible by hand) fails at submit time with the width
        and the limit in the message — not deep inside evaluation."""
        import dataclasses

        from repro.serve.batcher import QueryBatcher

        with CopseService(threads=1) as service:
            registered = service.register_model("m", example_forest)
            slots = registered.params.slot_count
            registered.layout = dataclasses.replace(
                registered.layout, stride=slots + 17
            )
            batcher = QueryBatcher(registered)
            with pytest.raises(ValidationError) as excinfo:
                batcher.prepare([1, 2])
            message = str(excinfo.value)
            assert str(slots + 17) in message  # the offending width
            assert str(slots) in message  # the limit


class TestSchedulingFeatures:
    def test_rejected_query_when_bounded_queue_full(self, example_forest):
        from repro.errors import RejectedQuery

        with CopseService(threads=1, max_queue=2) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            service.submit("m", [1, 2])
            service.submit("m", [3, 4])
            with pytest.raises(RejectedQuery) as excinfo:
                service.submit("m", [5, 6], tenant="alice")
            assert excinfo.value.model == "m"
            assert excinfo.value.tenant == "alice"
            service.flush("m")
            stats = service.stats()
        assert stats.scheduler.rejected == 1
        assert stats.scheduler.completed == 2

    def test_per_model_max_queue_overrides_service_default(
        self, example_forest
    ):
        from repro.errors import RejectedQuery

        with CopseService(threads=1, max_queue=1) as service:
            service.register_model(
                "roomy", example_forest, max_batch_size=8, max_queue=4
            )
            for features in ([1, 2], [3, 4], [5, 6], [7, 8]):
                service.submit("roomy", features)
            with pytest.raises(RejectedQuery):
                service.submit("roomy", [9, 10])
            service.flush()

    def test_deadline_forces_partial_dispatch_without_flush(
        self, example_forest
    ):
        """A deadline-bearing query in a partial batch is served by the
        slack cut alone — no flush, no batch-filling traffic."""
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=8)
            future = service.submit("m", [40, 200], deadline_ms=50.0)
            result = future.result(timeout=30)
            assert result.oracle_ok is True
            assert result.batch_fill == 1

    def test_tenants_and_misses_reported_in_stats(self, example_forest):
        with CopseService(threads=2) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            for i in range(4):
                service.submit(
                    "m", [i, i], tenant="a" if i % 2 else "b",
                    deadline_ms=10_000.0,
                )
            service.flush("m")
            stats = service.stats()
        assert stats.scheduler.per_tenant_completed == {"a": 2, "b": 2}
        assert stats.deadline_miss_rate == 0.0
        assert "scheduling:" in stats.render()


class TestStats:
    @pytest.mark.parametrize("engine", ["plan", "eager"])
    def test_amortized_cost_and_fill(self, example_forest, engine):
        with CopseService(threads=2, engine=engine) as service:
            service.register_model("m", example_forest, max_batch_size=3)
            service.classify_many("m", queries_for(example_forest, 6))
            stats = service.stats()
        assert stats.queries == 6
        assert stats.batches == 2
        assert stats.avg_batch_fill == pytest.approx(1.0)
        assert stats.amortized_ms_per_query > 0
        assert stats.throughput_qps > 0
        assert stats.setup_ms > 0
        if engine == "plan":
            # The whole optimized pipeline records under one phase.
            assert stats.phase_ms["plan_inference"] > 0
            assert stats.engine_ms("plan") > 0
            assert stats.engine_ms("eager") == 0
            assert stats.engine_op_counts("plan")["multiply"] > 0
            assert stats.engine_op_counts("eager") == {}
        else:
            for phase in ("comparison", "reshuffle", "levels", "accumulate"):
                assert stats.phase_ms[phase] > 0
            assert stats.engine_ms("eager") > 0
            assert stats.engine_ms("plan") == 0
            assert stats.engine_op_counts("eager")["multiply"] > 0
            assert stats.engine_op_counts("plan") == {}
        assert stats.op_counts["multiply"] > 0
        assert "CopseService stats" in stats.render()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batching_pays_against_a_query_alone(self, example_forest, engine):
        """A query's share of a full batch costs less than the same
        query alone through the per-query path, on every engine."""
        queries = queries_for(example_forest, 6)
        with CopseService(threads=2, engine=engine) as service:
            registered = service.register_model(
                "m", example_forest, max_batch_size=3
            )
            results = service.classify_many("m", queries)
            stats = service.stats()
        assert all(r.oracle_ok is True for r in results)
        assert stats.batches == 2
        assert stats.amortized_ms_per_query < alone_ms(
            registered, queries[0], engine
        )

    def test_batching_pays_on_width78(self):
        """The paper's width78 workload: one batch absorbs 16 queries,
        each of which costs less than it would alone."""
        from repro.bench_harness.workloads import workload_by_name

        workload = workload_by_name("width78")
        queries = workload.query_features(16)
        with CopseService(threads=2) as service:
            registered = service.register_model(
                workload.name, workload.compiled
            )
            results = service.classify_many(workload.name, queries)
            stats = service.stats()
        assert all(r.oracle_ok is True for r in results)
        assert registered.batch_capacity > 16
        assert stats.batches == 1
        assert stats.amortized_ms_per_query < alone_ms(
            registered, queries[0], service.engine
        )

    def test_tape_engine_is_default_and_cheapest(self, example_forest):
        """The registry default is the compiled-tape engine; on the same
        queries it does strictly less simulated inference work than the
        plan engine, which does strictly less than eager."""

        def run(engine):
            with CopseService(threads=1, engine=engine) as service:
                registered = service.register_model(
                    "m", example_forest, max_batch_size=2
                )
                service.classify_many("m", queries_for(example_forest, 4))
                return registered, service.stats()

        default_service = CopseService(threads=1)
        try:
            assert default_service.engine == "tape"
        finally:
            default_service.close()

        tape_reg, tape_stats = run("tape")
        plan_reg, plan_stats = run("plan")
        eager_reg, eager_stats = run("eager")
        assert tape_reg.engine == "tape" and tape_reg.tape is not None
        assert plan_reg.engine == "plan" and plan_reg.plan is not None
        assert plan_reg.tape is None
        assert eager_reg.engine == "eager" and eager_reg.plan is None
        assert tape_stats.oracle_failures == 0
        assert plan_stats.oracle_failures == 0
        assert eager_stats.oracle_failures == 0
        assert tape_stats.engine_ms("tape") > 0
        assert tape_stats.engine_ms("plan") == 0
        assert tape_stats.engine_op_counts("tape")["multiply"] > 0
        assert tape_stats.inference_ms < plan_stats.inference_ms
        assert plan_stats.inference_ms < eager_stats.inference_ms

    def test_each_engine_keeps_the_recorded_seccomp_variant(
        self, example_forest
    ):
        """Bugfix lock: an engine's artifacts were once lowered under the
        default SecComp variant, so on an ``"optimized"`` service the
        first ``tape`` batch raised a variant refusal."""
        with CopseService(threads=1, engine="eager") as service:
            for engine in ("eager", "tape", "megakernel"):
                registered = service.register_model(
                    engine, example_forest, max_batch_size=4, engine=engine,
                    seccomp_variant="optimized",
                )
                results = service.classify_many(
                    engine, queries_for(example_forest, 5)
                )
                assert all(r.oracle_ok is True for r in results)
                assert registered.seccomp_variant == "optimized"
                if engine != "eager":  # the artifact is named after it
                    assert getattr(registered, engine).variant == "optimized"
            stats = service.stats()
        assert stats.oracle_failures == 0
        for engine in ("eager", "tape", "megakernel"):
            assert stats.engine_ms(engine) > 0
            assert stats.engine_op_counts(engine)["multiply"] > 0
        assert stats.engine_ms("plan") == 0

    def test_oracle_failures_counted_per_query(self, example_forest):
        """Regression: a bad batch used to count as one failure."""

        class WrongOracle:
            def __init__(self, forest):
                self._forest = forest

            def label_bitvectors(self, rows):
                real = self._forest.label_bitvectors(rows)
                return 1 - real  # always disagrees

        with CopseService(threads=1) as service:
            registered = service.register_model(
                "m", example_forest, max_batch_size=3
            )
            registered.forest = WrongOracle(example_forest)
            results = service.classify_many(
                "m", queries_for(example_forest, 3)
            )
            stats = service.stats()
        assert all(r.oracle_ok is False for r in results)
        assert stats.batches == 1
        assert stats.oracle_failures == 3  # one per query, not per batch

    def test_qps_accounts_for_remainder_round(self, example_forest):
        """3 batches on 2 workers take 2 rounds, not 1.5."""
        from repro.serve import ServiceStats

        stats = ServiceStats(
            queries=6, batches=3, capacity_total=6, phase_ms={},
            op_counts={}, inference_ms=300.0, data_encrypt_ms=0.0,
            setup_ms=0.0, oracle_failures=0, threads=2,
        )
        # makespan = ceil(3/2) rounds * 100 ms/batch = 200 ms.
        assert stats.throughput_qps == pytest.approx(6 * 1000.0 / 200.0)
        single = ServiceStats(
            queries=4, batches=1, capacity_total=4, phase_ms={},
            op_counts={}, inference_ms=100.0, data_encrypt_ms=0.0,
            setup_ms=0.0, oracle_failures=0, threads=4,
        )
        assert single.throughput_qps == pytest.approx(40.0)  # no 4x claim

    @staticmethod
    def served(forest, threads, count, max_batch_size=None):
        with CopseService(threads=threads) as service:
            service.register_model(
                "m", forest, max_batch_size=max_batch_size
            )
            results = service.classify_many("m", queries_for(forest, count))
            stats = service.stats()
        assert all(r.oracle_ok is True for r in results)
        return stats

    def test_qps_scales_with_workers(self, example_forest):
        """Four batches overlap more on four workers than on two."""
        two = self.served(example_forest, 2, 8, max_batch_size=2)
        four = self.served(example_forest, 4, 8, max_batch_size=2)
        assert two.batches == four.batches == 4
        assert four.throughput_qps > two.throughput_qps

    def test_single_batch_gains_nothing_from_idle_workers(
        self, example_forest
    ):
        """qps must not claim parallelism beyond the batch count."""
        one = self.served(example_forest, 1, 4)
        four = self.served(example_forest, 4, 4)
        assert one.batches == four.batches == 1
        assert four.throughput_qps == pytest.approx(one.throughput_qps)

    def test_batch_size_cap_leaves_a_partial_last_batch(self, example_forest):
        """5 queries under a cap of 2: three batches, the last half full."""
        stats = self.served(example_forest, 2, 5, max_batch_size=2)
        assert stats.batches == 3
        assert stats.capacity_total == 6
        assert stats.avg_batch_fill == pytest.approx(5 / 6)

    def test_plaintext_model_cheaper_than_encrypted(self, example_forest):
        def run(encrypted):
            with CopseService(threads=1) as service:
                service.register_model(
                    "m", example_forest, encrypted_model=encrypted,
                    max_batch_size=2,
                )
                service.classify_many("m", queries_for(example_forest, 2))
                return service.stats().amortized_ms_per_query

        assert run(False) < run(True)


class TestSharedBooks:
    """The batches of one kernel pass share their ``phase_ms`` and
    ``phase_op_counts`` objects (the routine prices a pass once, and
    ``BatchPart``'s ``{}`` default is one dict anyway): booking must not
    care whether ``k`` records share one book or carry equal copies,
    must add in the order per-record ``inc`` calls did, and must never
    change a record."""

    PHASE_MS = {"data_encrypt": 0.1, "megakernel_inference": 0.7}
    COUNTS = {
        "data_encrypt": {"encrypt": 8},
        "model_cache": {"load": 40},
        "megakernel_inference": {"multiply": 17, "add": 93, "rotate": 5},
        "unscoped": {"encrypt": 1, "decrypt": 1},
    }

    @classmethod
    def records(cls, shared, k=6):
        import copy

        from repro.serve.batcher import BatchRecord

        other_ms = {"data_encrypt": 0.3, "megakernel_inference": 0.2}
        records = []
        for i in range(k):
            phase_ms = cls.PHASE_MS if i % 3 else other_ms
            records.append(BatchRecord(
                model="m", batch_id=i, size=1 + i % 4, capacity=4,
                phase_op_counts=(
                    cls.COUNTS if shared else copy.deepcopy(cls.COUNTS)
                ),
                phase_ms=phase_ms if shared else dict(phase_ms),
                inference_ms=phase_ms["megakernel_inference"],
                data_encrypt_ms=phase_ms["data_encrypt"],
                oracle_failures=i % 2,
            ))
        return records

    @staticmethod
    def booked(groups):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.service import _StatsAggregator

        metrics = MetricsRegistry()
        aggregator = _StatsAggregator(threads=2, metrics=metrics)
        for group in groups:
            aggregator.record_batches(group)
        names = ("svc_ops", "svc_phase_ops", "svc_phase_ms")
        export = [
            line for line in metrics.render_prometheus().splitlines()
            if line.startswith(names)
        ]
        return aggregator.snapshot(), metrics.snapshot(), export

    @staticmethod
    def booked_one_inc_at_a_time(records):
        """What booking was: every record's instruments incremented
        one call at a time."""
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.counter("svc_setup_ms")
        for record in records:
            metrics.counter("svc_queries").inc(record.size)
            metrics.counter("svc_batches").inc()
            metrics.counter("svc_capacity_total").inc(record.capacity)
            metrics.histogram("svc_batch_fill").observe(
                record.size / record.capacity
            )
            for phase, ms in record.phase_ms.items():
                metrics.counter("svc_phase_ms", {"phase": phase}).inc(ms)
            for phase, counts in record.phase_op_counts.items():
                for op, n in counts.items():
                    metrics.counter("svc_ops", {"op": op}).inc(n)
                    metrics.counter(
                        "svc_phase_ops", {"phase": phase, "op": op}
                    ).inc(n)
            metrics.counter("svc_inference_ms").inc(record.inference_ms)
            metrics.counter("svc_data_encrypt_ms").inc(
                record.data_encrypt_ms
            )
            if record.oracle_failures:
                metrics.counter("svc_oracle_failures").inc(
                    record.oracle_failures
                )
        return metrics.snapshot()

    def test_shared_and_copied_books_book_alike(self):
        shared, copies = self.records(True), self.records(False)
        assert shared == copies
        for split in (1, 2, 6):  # completions of this many records
            groups = [
                shared[i : i + split] for i in range(0, len(shared), split)
            ]
            assert self.booked(groups) == self.booked(
                [copies[i : i + split] for i in range(0, 6, split)]
            )
        stats, snapshot, export = self.booked([shared])
        assert export and stats.phase_op_counts["model_cache"] == {
            "load": 240
        }
        # Float for float what one inc per instrument per record added.
        assert snapshot == self.booked_one_inc_at_a_time(shared)

    def test_booking_never_changes_a_record(self):
        import copy

        for shared in (True, False):
            records = self.records(shared)
            before = copy.deepcopy(records)
            self.booked([records[:2], records[2:]])
            assert records == before
        assert self.COUNTS["model_cache"] == {"load": 40}
        assert self.PHASE_MS == {
            "data_encrypt": 0.1, "megakernel_inference": 0.7
        }


class TestScheduler:
    # The scheduling behaviors (deadline cuts, fair sharing, admission,
    # retries, the pump's lifecycle) live in test_scheduler.py and
    # test_simulation.py; here we only keep the service-facing basics.

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValidationError, match="workers must be >= 1"):
            CopseService(threads=0)

    def test_failed_batch_does_not_kill_worker(self, example_forest):
        """An evaluation failure fails its own queries and nothing else."""
        with CopseService(threads=1) as service:
            service.register_model("m", example_forest, max_batch_size=2)
            # Sabotage the cached model so evaluation raises.
            broken = service.registry.get("m")
            real_model = broken.batched_model
            broken.batched_model = None
            bad = service.submit("m", [1, 2])
            service.flush("m")
            with pytest.raises(Exception):
                bad.result(timeout=30)
            # The worker survived: restore the model and serve again.
            broken.batched_model = real_model
            ok = service.submit("m", [1, 2])
            service.flush("m")
            assert ok.result(timeout=30).oracle_ok is True
            stats = service.stats()
        assert stats.scheduler.failed == 1
        assert stats.scheduler.completed == 1
