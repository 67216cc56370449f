"""Cluster invariants: determinism, crash/epoch protocol, real workers.

Three layers, mirroring the module's pure-core/thin-engine split:

* **RouterCore unit tests** — placement, ship-once, epochs, stale
  completions, crash restarts, heartbeats, all driven
  with explicit timestamps and no engine at all.
* **Simulated soaks** (:class:`~repro.serve.loadgen.SimRunner`)
  — seeded 10^5-query timelines with injected mid-run worker crashes:
  byte-identical decisions and stats per seed, conservation, and
  1-worker vs N-worker accounting equivalence.  ``REPRO_BENCH_QUICK=1``
  trims the big soak for CI replays.
* **Real multiprocessing tests** (``real`` in the name, so CI's smoke
  step can select them with ``-k real``) — pickling of the
  :class:`~repro.serve.transport.ShippedModel` envelope, a 2-worker
  round trip, 1-vs-2-worker bit identity, a mid-soak ``kill()`` with
  full recovery, and how a worker starts (forked from one preloaded
  server, spawned where there is none, a start that raises).
"""

import dataclasses
import errno
import functools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import time
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    ServeError,
    ValidationError,
    WorkerPoolExhaustedError,
)
from repro.serve import (
    ClusterService,
    FaultPlan,
    ModelProfile,
    ModelRegistry,
    RouterCore,
    ShippedModel,
    SimRunner,
    TenantSpec,
    generate_arrivals,
)
from repro.serve.cluster import AssignAction, ShipAction
from repro.serve.scheduler import OUTCOME_OK, QueryFuture
from tests.conftest import bench_quick
from tests.serve.worker_probe import probe_worker_main, probes

#: The acceptance soak: 10^5 queries full, trimmed for CI replays.
SOAK_QUERIES = 20_000 if bench_quick() else 100_000


# ---------------------------------------------------------------------------
# RouterCore: pure placement/failover, no engine
# ---------------------------------------------------------------------------


def seqs_of(assignment):
    """The assignment's queries, by seq, in order."""
    return [seq for run in assignment.runs() for seq in run.seqs()]


def futures_of(assignment):
    return [future for run in assignment.runs() for future in run.futures]


def payloads_of(runs):
    return [payload for run in runs for payload in run.payloads]


class FakeQuery:
    """Minimal router payload (just the future the core resolves)."""

    def __init__(self):
        self.future = QueryFuture()


def full_batch(router, name="m", now=0.0, capacity=2):
    for _ in range(capacity):
        router.submit(name, FakeQuery(), now)


class TestRouterCore:
    def make(self, workers=2, **kwargs):
        router = RouterCore(workers=workers, **kwargs)
        router.add_model("m", capacity=2, service_ms=10.0)
        for w in range(workers):
            router.worker_started(w, 0.0)
        return router

    def test_placement_is_deterministic_and_salted_hash_free(self):
        router = self.make(workers=4)
        order = router.placement_order("m")
        assert sorted(order) == [0, 1, 2, 3]
        # Stable across router instances (zlib.crc32, not hash()).
        assert order == self.make(workers=4).placement_order("m")

    def test_placement_order_is_memoised_until_the_pool_changes(self):
        """The rotation is computed once per model, and again after
        anything that could change it; decisions are what they were."""
        router = self.make(workers=3)
        order = router.placement_order("m")
        assert router.placement_order("m") is order
        assert order == [
            (order[0] + k) % 3 for k in range(3)
        ]
        fresh = router.add_worker(0.0)
        grown = router.placement_order("m")
        assert grown is not order and sorted(grown) == [0, 1, 2, fresh]
        router.retire_worker(fresh, 0.1)
        assert router.placement_order("m") is not grown
        kept = router.placement_order("m")
        router.crash_worker(0, 0.2)
        router.abandon_worker(0, 3, 0.3)
        assert router.placement_order("m") is not kept
        router.remove_model("m", 0.4)
        assert "m" not in router._placements

    def test_dispatch_ships_then_assigns(self):
        router = self.make()
        full_batch(router)
        actions = router.dispatch(0.0)
        assert [type(a) for a in actions] == [ShipAction, AssignAction]
        ship, assign = actions
        assert ship.worker == assign.assignment.worker
        assert ship.epoch == assign.epoch == 0
        assert assign.newly_shipped

    def test_ship_exactly_once_per_worker_epoch(self):
        router = self.make(workers=1)
        full_batch(router)
        first = router.dispatch(0.0)
        router.complete(first[1].assignment, 0, 0.1)
        full_batch(router, now=0.2)
        second = router.dispatch(0.2)
        assert [type(a) for a in first] == [ShipAction, AssignAction]
        assert [type(a) for a in second] == [AssignAction]
        assert not second[0].newly_shipped

    def test_stale_epoch_completion_dropped(self):
        router = self.make(workers=2)
        full_batch(router)
        actions = router.dispatch(0.0)
        assignment = actions[-1].assignment
        victim = assignment.worker
        router.crash_worker(victim, 0.5)
        # The dead incarnation's completion arrives late: dropped.
        assert router.complete(assignment, 0, 1.0) is False
        assert router.metrics.counter_value(
            "cluster_epoch_invalidated") == 1
        assert ("stale", assignment.batch_id, victim, 0, 1.0) in (
            router.decisions
        )

    def test_crash_parks_then_other_worker_completes(self):
        router = self.make(workers=2)
        full_batch(router)
        first = router.dispatch(0.0)[-1]
        victim = first.assignment.worker
        router.crash_worker(victim, 0.5)
        # Backoff: the crashed queries park instead of requeueing at
        # the crash instant...
        assert [
            a for a in router.dispatch(0.5)
            if isinstance(a, AssignAction)
        ] == []
        assert {d[0] for d in router.decisions} >= {"crash", "park"}
        release = max(d[4] for d in router.decisions if d[0] == "park")
        assert 0.5 < release <= 0.5 + 2 * 0.025 * 1.25
        assert router.next_wake_time(0.5) == pytest.approx(
            min(d[4] for d in router.decisions if d[0] == "park")
        )
        # ...and release deterministically once the backoff elapses.
        retry = [
            a for a in router.dispatch(release)
            if isinstance(a, AssignAction)
        ]
        assert len(retry) == 1
        assert retry[0].assignment.worker != victim  # victim not alive
        # Original submission order survives the park/requeue.
        assert seqs_of(retry[0].assignment) == seqs_of(first.assignment)
        assert router.complete(
            retry[0].assignment, retry[0].epoch, 1.0, OUTCOME_OK
        ) is True
        stats = router.stats()
        assert stats.completed == 2
        assert stats.retries == 2
        assert stats.worker_crashes == 1

    def test_crash_exhausting_retries_quarantines_then_dead_letters(self):
        from repro.errors import PoisonQueryError

        router = self.make(workers=2, max_retries=0)
        full_batch(router)
        actions = router.dispatch(0.0)
        victim = actions[-1].assignment.worker
        router.crash_worker(victim, 0.5)
        router.restart_worker(victim, 0.5)
        # Retry-exhausted queries are NOT failed outright: they bisect
        # into singleton quarantine cohorts that re-execute solo.
        assert router.drain_failures() == []
        bisects = [d for d in router.decisions if d[0] == "bisect"]
        assert len(bisects) == 1 and bisects[0][3] == 2  # group of 2
        release = bisects[0][6]
        solo = [
            a for a in router.dispatch(release)
            if isinstance(a, AssignAction)
        ]
        assert [a.assignment.size for a in solo] == [1, 1]
        # One cohort completes — its query was innocent all along; the
        # other kills its second worker and is convicted as poison.
        assert router.complete(solo[0].assignment, solo[0].epoch,
                               release + 0.01) is True
        router.crash_worker(solo[1].assignment.worker, release + 0.02)
        failures = router.drain_failures()
        assert len(failures) == 1
        assert isinstance(failures[0][1], PoisonQueryError)
        assert len(router.dlq) == 1
        entry = router.dlq.entries()[0]
        assert entry.model == "m" and entry.attempts == 2
        assert any(d[0] == "dead_letter" for d in router.decisions)
        stats = router.stats()
        assert stats.completed == 1
        assert stats.dead_lettered == 1
        assert stats.failed == 0
        assert stats.submitted == (
            stats.completed + stats.rejected + stats.failed
            + stats.dead_lettered
        )

    def test_restart_with_inflight_batch_refused(self):
        router = self.make()
        full_batch(router)
        actions = router.dispatch(0.0)
        with pytest.raises(ValidationError, match="crash it first"):
            router.restart_worker(actions[-1].assignment.worker, 0.5)

    def test_restart_of_a_retired_or_abandoned_worker_refused(self):
        """The scheduler core has forgotten the id: flipping ``alive``
        back on would place batches on a slot that no longer exists."""
        router = self.make(workers=3)
        router.retire_worker(2, 0.5)
        router.crash_worker(1, 0.6)
        router.abandon_worker(1, 3, 0.6)
        for gone in (2, 1):
            with pytest.raises(ValidationError, match="never reused"):
                router.restart_worker(gone, 1.0)
        # ... and only a crashed, not yet given-up worker is abandoned
        for worker in (0, 1, 2):
            with pytest.raises(ValidationError, match="only a crashed"):
                router.abandon_worker(worker, 3, 1.0)
        assert router.alive == [True, False, False]
        assert router.retirable_worker() == 0
        full_batch(router)
        (_, assign) = router.dispatch(1.0)
        assert assign.assignment.worker == 0

    def test_restart_after_a_crash_reships(self):
        router = self.make(workers=1)
        full_batch(router)
        first = router.dispatch(0.0)
        router.complete(first[-1].assignment, 0, 0.1)
        router.crash_worker(0, 0.2)
        assert router.restart_worker(0, 0.3) == 2  # crash + restart
        assert router.shipped[0] == set()  # ledger cleared: re-ship
        full_batch(router, now=0.4)
        second = router.dispatch(0.4)
        assert [type(a) for a in second] == [ShipAction, AssignAction]
        assert second[0].epoch == second[1].epoch == 2
        decisions = [d[0] for d in router.decisions]
        assert decisions.count("ship") == 2 and "restart" in decisions

    def test_add_worker_takes_a_fresh_id_and_ships_on_first_use(self):
        router = self.make(workers=1)
        fresh = router.add_worker(0.5)
        assert fresh == 1
        assert (router.epochs[fresh], router.shipped[fresh]) == (0, set())
        assert router.idle_workers() == [0, 1]
        assert router.metrics.family("cluster_workers")[()].value == 2
        assert router.decisions[-1] == ("add_worker", 1, 0.5)
        full_batch(router, now=1.0)
        full_batch(router, now=1.0)
        ships = [
            a.worker for a in router.dispatch(1.0)
            if isinstance(a, ShipAction)
        ]
        assert sorted(ships) == [0, 1]

    def test_retirable_worker_is_the_highest_idle_id(self):
        router = self.make(workers=3)
        assert router.retirable_worker() == 2
        full_batch(router)
        busy = router.dispatch(0.0)[-1].assignment.worker
        assert router.retirable_worker() == max({0, 1, 2} - {busy})
        full_batch(router, now=0.1)
        full_batch(router, now=0.1)
        router.dispatch(0.1)
        assert router.idle_workers() == []
        with pytest.raises(ValidationError, match="no idle worker"):
            router.retirable_worker()

    def test_retire_refuses_a_busy_dead_or_last_worker(self):
        router = self.make(workers=2)
        full_batch(router)
        assignment = router.dispatch(0.0)[-1].assignment
        busy = assignment.worker
        with pytest.raises(ValidationError, match="in flight"):
            router.retire_worker(busy, 0.1)
        router.crash_worker(1 - busy, 0.2)
        with pytest.raises(ValidationError, match="not alive"):
            router.retire_worker(1 - busy, 0.3)
        assert router.complete(assignment, 0, 0.4) is True
        with pytest.raises(ValidationError, match="last live worker"):
            router.retire_worker(busy, 0.5)
        assert router.alive[busy] and not router.retired

    def test_a_retired_worker_is_never_placed_again(self):
        router = self.make(workers=2)
        router.retire_worker(1, 0.0)
        assert router.decisions[-1] == ("retire", 1, 1, 0.0)
        assert (router.alive, router.retired) == ([True, False], {1})
        assert router.live_workers == 1
        for k in range(1, 4):
            full_batch(router, now=float(k))
            (assign,) = [
                a for a in router.dispatch(float(k))
                if isinstance(a, AssignAction)
            ]
            assert assign.assignment.worker == 0
            assert router.complete(assign.assignment, assign.epoch,
                                   k + 0.5) is True

    def test_heartbeat_and_health_check(self):
        router = self.make(workers=2, heartbeat_timeout_s=10.0)
        assert router.heartbeat(0, 0, 5.0) is True
        assert router.heartbeat(1, 7, 5.0) is False  # wrong epoch
        # Worker 1's clock still reads its start at t=0: silent too long.
        assert router.check_health(11.0) == [1]
        assert router.heartbeat(1, 0, 11.5) is True
        assert router.check_health(12.0) == []

    def test_abandoned_worker_leaves_placement_to_the_survivor(self):
        router = self.make(workers=2)
        full_batch(router)
        router.crash_worker(0, 1.0)
        router.abandon_worker(0, 3, 1.0)
        assert router.decisions[-1] == ("abandon", 0, 1, 3, 1.0)
        assert router.alive == [False, True]
        assert router.live_workers == 1
        assigned = [
            a for a in router.dispatch(2.0) if isinstance(a, AssignAction)
        ]
        assert [a.assignment.worker for a in assigned] == [1]

    def test_abandoning_the_last_worker_fails_everything_typed(self):
        """Pool exhausted: queued *and* parked queries fail with the
        typed error, admission closes, conservation holds."""
        router = self.make(workers=1, max_retries=3)
        running = [FakeQuery(), FakeQuery()]
        for query in running:
            router.submit("m", query, 0.0)
        assert len(router.dispatch(0.0)) == 2  # ship + assign
        queued = FakeQuery()
        router.submit("m", queued, 0.5)
        router.crash_worker(0, 1.0)  # the running pair parks for retry
        assert len(router._parked) == 2
        router.abandon_worker(0, 3, 1.0)
        failures = router.drain_failures()
        assert len(failures) == 3
        for _, exc in failures:
            assert isinstance(exc, WorkerPoolExhaustedError)
            assert "died at start-up 3 times" in str(exc)
        assert router.outstanding == 0
        stats = router.stats()
        assert_conserved(stats)
        assert stats.failed == 3
        with pytest.raises(ServeError):
            router.submit("m", FakeQuery(), 2.0)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValidationError):
            RouterCore(workers=0)
        with pytest.raises(ValidationError):
            RouterCore(workers=1, heartbeat_timeout_s=0.0)
        with pytest.raises(ValidationError):
            SimRunner([], workers=2)


# ---------------------------------------------------------------------------
# Simulated soaks: determinism, conservation, crash handling
# ---------------------------------------------------------------------------

PROFILES = [
    ModelProfile(name="credit", capacity=4, service_ms=60.0,
                 max_pending=64),
    ModelProfile(name="fraud", capacity=8, service_ms=150.0, weight=2.0,
                 max_pending=64),
]
TENANTS = [
    TenantSpec(name="acme", model="credit", rate_qps=40.0,
               deadline_ms=500.0),
    TenantSpec(name="globex", model="fraud", rate_qps=25.0),
    TenantSpec(name="spiky", model="credit", rate_qps=5.0,
               burst_every_s=1.0, burst_size=12, priority=1),
]


def cluster_soak(seed, queries, workers=3, faults=None, ship_ms=25.0):
    if faults is None:
        duration = queries / 70.0  # ~offered aggregate qps
        faults = FaultPlan(
            worker_crashes=(duration * 0.25, duration * 0.5,
                            duration * 0.75),
            slow_every=7,
            slow_factor=2.5,
        )
    arrivals = generate_arrivals(TENANTS, seed=seed,
                                 total_queries=queries)
    runner = SimRunner(PROFILES, workers=workers, max_retries=2,
                              ship_ms=ship_ms)
    return runner.run(arrivals, faults)


def assert_conserved(stats):
    assert stats.submitted == (
        stats.completed + stats.rejected + stats.failed + stats.cancelled
        + stats.dead_lettered
    ), "conservation violated"


class TestClusterSimulation:
    def test_same_seed_byte_identical(self):
        a = cluster_soak(seed=7, queries=3000)
        b = cluster_soak(seed=7, queries=3000)
        assert json.dumps(a.decisions) == json.dumps(b.decisions)
        assert a.stats == b.stats
        assert a.packed_order == b.packed_order

    def test_different_seeds_diverge(self):
        a = cluster_soak(seed=7, queries=2000)
        b = cluster_soak(seed=8, queries=2000)
        assert a.decisions != b.decisions

    def test_crashes_recorded_and_conserved(self):
        report = cluster_soak(seed=11, queries=3000)
        assert_conserved(report.stats)
        kinds = {d[0] for d in report.decisions}
        assert {"ship", "assign", "crash", "restart"} <= kinds
        assert report.stats.worker_crashes == 3

    def test_mid_soak_crash_epoch_invalidates_inflight_completion(self):
        # Crash times chosen inside the busy phase: some worker is
        # mid-batch, so its completion must come back stale-epoch.
        report = cluster_soak(seed=3, queries=4000)
        stales = [d for d in report.decisions if d[0] == "stale"]
        crashes = [d for d in report.decisions if d[0] == "crash"]
        assert crashes, "fault plan injected no crashes?"
        assert stales, (
            "no stale completion: crashes never caught a busy worker"
        )
        assert_conserved(report.stats)

    def test_one_vs_many_workers_same_accounting(self):
        # No crashes and unbounded queues: every admitted query
        # completes no matter the pool size — the cluster only changes
        # *where* batches run, never *what* completes.
        profiles = [
            ModelProfile(name="credit", capacity=4, service_ms=60.0),
            ModelProfile(name="fraud", capacity=8, service_ms=150.0,
                         weight=2.0),
        ]
        arrivals = generate_arrivals(TENANTS, seed=21,
                                     total_queries=2500)
        per_pool = {}
        for workers in (1, 4):
            runner = SimRunner(profiles, workers=workers,
                                      ship_ms=25.0)
            report = runner.run(arrivals, FaultPlan())
            assert_conserved(report.stats)
            per_pool[workers] = report.stats
        assert per_pool[1].submitted == per_pool[4].submitted == 2500
        assert per_pool[1].completed == per_pool[4].completed
        assert per_pool[1].failed == per_pool[4].failed == 0

    def test_acceptance_soak_byte_identical_with_crashes(self):
        """The PR acceptance artifact: a 10^5-query cluster soak with
        seeded mid-run worker crashes replays byte-identically."""
        a = cluster_soak(seed=42, queries=SOAK_QUERIES)
        b = cluster_soak(seed=42, queries=SOAK_QUERIES)
        assert json.dumps(a.decisions) == json.dumps(b.decisions)
        assert a.stats == b.stats
        assert_conserved(a.stats)
        assert a.stats.worker_crashes == 3
        assert a.stats.completed > 0.9 * a.stats.submitted

    def test_runner_is_single_use(self):
        runner = SimRunner(PROFILES, workers=2)
        arrivals = generate_arrivals(TENANTS, seed=1, total_queries=50)
        runner.run(arrivals)
        with pytest.raises(ValidationError):
            runner.run(arrivals)

    def test_ship_latency_charged_per_worker_epoch(self):
        free = cluster_soak(seed=5, queries=1000, ship_ms=0.0,
                            faults=FaultPlan())
        costly = cluster_soak(seed=5, queries=1000, ship_ms=500.0,
                              faults=FaultPlan())
        ships = sum(1 for d in costly.decisions if d[0] == "ship")
        assert ships >= 2  # two models over the pool
        # Identical routing, but each first batch per (worker, epoch,
        # model) carries the 500 ms shipping charge on its service time.
        assert costly.service_ms_total == pytest.approx(
            free.service_ms_total + 500.0 * ships
        )


# ---------------------------------------------------------------------------
# Spawn-grade pickling: the envelope survives the process boundary
# ---------------------------------------------------------------------------


class TestShippedModelPickle:
    @pytest.fixture()
    def registered(self, example_forest):
        return ModelRegistry().register(
            "pickle-me", example_forest, precision=8, max_batch_size=4,
            backend="vector",
        )

    def test_envelope_round_trips_and_verifies(self, registered):
        envelope = ShippedModel.from_registered(registered)
        # Highest protocol — exactly what multiprocessing spawn uses.
        clone = pickle.loads(
            pickle.dumps(envelope, pickle.HIGHEST_PROTOCOL)
        )
        assert clone.verify() == registered.compiled.fingerprint()
        rebuilt = clone.to_registered()
        assert rebuilt.layout.capacity == registered.layout.capacity
        assert rebuilt.tape.num_instructions == (
            registered.tape.num_instructions
        )

    def test_compiled_tape_round_trips(self, registered):
        from repro.fhe.ciphertext import PlainVector
        from repro.ir.tape import OP_FUSED, FusedSpec

        tape = registered.tape
        clone = pickle.loads(pickle.dumps(tape,
                                          pickle.HIGHEST_PROTOCOL))
        assert clone.model_fingerprint == tape.model_fingerprint
        assert clone.num_slots == tape.num_slots
        assert clone.peak_live == tape.peak_live
        assert len(clone.instructions) == len(tape.instructions)
        fused_seen = 0
        for got, want in zip(clone.instructions, tape.instructions):
            assert got[0] == want[0] and got[1] == want[1]
            if want[0] != OP_FUSED:
                continue
            # Fused specs drop their lazy gather caches in transit
            # (__getstate__) and rebuild worker-side; the terms — the
            # semantics — survive bit-for-bit.
            fused_seen += 1
            spec, orig = got[2], want[2]
            assert isinstance(spec, FusedSpec)
            assert spec.width == orig.width and spec.kind == orig.kind
            assert len(spec.terms) == len(orig.terms)
            for (a1, s1, op1), (a2, s2, op2) in zip(spec.terms,
                                                    orig.terms):
                assert a1 == a2 and s1 == s2
                assert type(op1) is type(op2)
                if isinstance(op1, PlainVector):
                    assert op1.bits() == op2.bits()
                else:
                    assert op1 == op2
        assert fused_seen > 0, "tape has no fused instructions to check"

    def test_tampered_fingerprint_fails_closed(self, registered):
        envelope = ShippedModel.from_registered(registered)
        forged = dataclasses.replace(envelope, fingerprint="f" * 16)
        with pytest.raises(ServeError, match="fails verification"):
            forged.verify()
        with pytest.raises(ServeError):
            forged.to_registered()

    def test_mismatched_tape_fails_closed(self, registered,
                                          small_random_forest):
        other = ModelRegistry().register(
            "other", small_random_forest, precision=8, backend="vector",
        )
        franken = dataclasses.replace(
            ShippedModel.from_registered(registered), tape=other.tape
        )
        with pytest.raises(ServeError, match="tape fingerprint"):
            franken.verify()


# ---------------------------------------------------------------------------
# The assignment on the wire: request out, result back, nothing spawned
# ---------------------------------------------------------------------------


class PipeEnd:
    """What a worker's pipe received, pickled as the pipe would."""

    def __init__(self):
        self.blobs = []

    def send(self, message):
        self.blobs.append(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))

    def received(self):
        return pickle.loads(self.blobs[-1])


class TestAssignmentOnTheWire:
    """:class:`ProcessTransport` and the worker's ``_eval_result`` joined
    back to back in this process, every message through ``pickle``."""

    CAPACITY = 4

    @pytest.fixture()
    def registered(self, example_forest):
        return ModelRegistry().register(
            "m", example_forest, precision=8, max_batch_size=self.CAPACITY,
            engine="megakernel", backend="vector",
        )

    def wire(self, registered, verify_oracle=True):
        from repro.serve.simclock import RealClock
        from repro.serve.transport import ProcessTransport

        transport = ProcessTransport(verify_oracle, RealClock(), 5.0)
        transport.stage(registered)
        transport._conns = [PipeEnd()]  # worker 0, never spawned
        return transport

    def assignment(self, registered, fills, seed=0, batch_id=7):
        from repro.serve.batcher import prepare_queries
        from repro.serve.scheduler import Assignment, QueryRun

        rng = np.random.default_rng(seed)
        features = rng.integers(
            0, 256, (sum(fills), registered.layout.n_features)
        ).tolist()
        payloads = prepare_queries(registered, features)
        run = QueryRun("m", "acme", 0.0, None, 0, 0,
                       [payload.future for payload in payloads], None,
                       payloads, None, 0)
        starts = np.cumsum((0,) + tuple(fills)).tolist()
        return Assignment(
            batch_id=batch_id, queue="m", worker=0,
            parts=[[run.piece(lo, hi)] for lo, hi in zip(starts, starts[1:])],
            cut_time=0.0,
        )

    def round_trip(self, transport, registered, assignment):
        """Send, evaluate as the worker would, and carry the result
        back: ``(request, result)`` as their receivers unpickled them."""
        from repro.serve.transport import MSG_EVAL
        from repro.serve.worker import _eval_result

        transport.send(AssignAction(assignment=assignment, epoch=3))
        tag, request = transport._conns[0].received()
        assert tag == MSG_EVAL
        result = _eval_result(0, request, {"m": registered})
        return request, pickle.loads(
            pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        )

    # (the registered model is read, never changed, by an example)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        fills=st.lists(st.integers(1, CAPACITY), min_size=1, max_size=8),
        verify=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def test_request_and_result_round_trip_under_pickle(
        self, registered, example_forest, fills, verify, seed
    ):
        transport = self.wire(registered, verify_oracle=verify)
        assignment = self.assignment(registered, fills, seed)
        request, result = self.round_trip(transport, registered, assignment)
        features = [p.features for p in payloads_of(assignment.runs())]
        assert request.fills == assignment.fills
        assert request.features.dtype == np.int64
        assert request.features.tolist() == features
        assert [len(batch) for batch in request.batches()] == fills
        assert np.concatenate(request.batches()).tolist() == features
        assert (request.batch_id, request.epoch, request.verify_oracle) == (
            7, 3, verify
        )
        parts = result.parts()
        assert len(parts) == len(fills) and len(result.rest) == len(fills) - 1
        assert [list(b) for b in result.bitvectors] == [
            example_forest.label_bitvector(f) for f in features
        ]
        assert result.oracle_ok == ((True,) * sum(fills) if verify else None)
        assert all(
            part.error is None and part.degraded_engine is None
            and part.oracle_failures == (0 if verify else None)
            for part in parts
        )
        completion = transport._result_event(result)
        assert (completion.worker, completion.epoch) == (0, 3)
        assert transport._inflight == {}
        assert [
            (r.batch_id, r.size, r.capacity, r.oracle_failures)
            for r in completion.records
        ] == [
            (7 + j, fill, self.CAPACITY, 0 if verify else None)
            for j, fill in enumerate(fills)
        ]
        assert [
            (r.phase_ms, r.inference_ms, r.data_encrypt_ms, r.phase_op_counts)
            for r in completion.records
        ] == [
            (p.phase_ms, p.inference_ms, p.data_encrypt_ms, p.phase_op_counts)
            for p in parts
        ]
        assert all(p.phase_op_counts for p in parts)
        assert not any(f.done() for f in futures_of(assignment))
        completion.resolve()
        at = 0
        for batch_id, runs, part in zip(
            count(assignment.batch_id), assignment.parts, parts
        ):
            members = payloads_of(runs)
            for payload in members:
                answer = payload.future.result(timeout=0)
                assert answer.features == payload.features
                assert answer.bitvector == list(result.bitvectors[at])
                assert (answer.batch_id, answer.batch_fill) == (
                    batch_id, len(members)
                )
                assert answer.amortized_ms == part.inference_ms / len(members)
                assert answer.oracle_ok is (True if verify else None)
                at += 1

    @pytest.mark.parametrize("lie", ["parts", "bitvectors", "oracle"])
    def test_a_result_of_another_shape_is_a_worker_fault(self, registered,
                                                         lie):
        """Fail closed: nothing is resolved from it, and the assignment
        stays in flight for the crash path to re-place."""
        from repro.serve.transport import WorkerDied

        transport = self.wire(registered)
        assignment = self.assignment(registered, (4, 4, 2))
        _, result = self.round_trip(transport, registered, assignment)
        forged = dataclasses.replace(result, **{
            "parts": {"rest": result.rest[:-1]},
            "bitvectors": {"bitvectors": result.bitvectors[:-1]},
            "oracle": {"oracle_ok": result.oracle_ok + (True,)},
        }[lie])
        assert transport._result_event(forged) == WorkerDied(0, 3)
        assert transport._inflight == {7: assignment}
        assert not any(f.done() for f in futures_of(assignment))
        # ... and the honest result still resolves it (a hedge replica)
        transport._result_event(result).resolve()
        assert all(f.done() for f in futures_of(assignment))

    def test_a_batch_the_worker_could_not_evaluate_has_no_record(
        self, registered, monkeypatch
    ):
        from repro.errors import RuntimeProtocolError
        from repro.serve import batched_runtime

        from repro.serve.packing import pack_group_planes

        assignment = self.assignment(registered, (4, 4, 3))
        poisoned = pack_group_planes(registered.layout, [[
            payload.features for payload in payloads_of(assignment.runs())[4:8]
        ]])[0]
        encrypt = batched_runtime.encrypt_planes

        def encrypt_unless_poisoned(ctx, block, keys):
            if any(np.array_equal(planes, poisoned) for planes in block):
                raise RuntimeProtocolError("this ciphertext is poison")
            return encrypt(ctx, block, keys)

        monkeypatch.setattr(
            batched_runtime, "encrypt_planes", encrypt_unless_poisoned
        )
        transport = self.wire(registered)
        _, result = self.round_trip(transport, registered, assignment)
        assert [part.error is None for part in result.parts()] == [
            True, False, True,
        ]
        assert result.parts()[1].error.startswith("RuntimeProtocolError")
        assert len(result.bitvectors) == len(result.oracle_ok) == 7
        completion = transport._result_event(result)
        assert [r and r.batch_id for r in completion.records] == [7, None, 9]
        completion.resolve()
        assert [f.done() for f in futures_of(assignment)] == (
            [True] * 4 + [False] * 4 + [True] * 3
        )
        assert futures_of(assignment)[-1].result(timeout=0).batch_fill == 3

    def test_a_model_the_worker_does_not_hold_fails_every_batch(
        self, registered
    ):
        from repro.serve.worker import _eval_result

        transport = self.wire(registered)
        assignment = self.assignment(registered, (4, 1))
        request, _ = self.round_trip(transport, registered, assignment)
        result = _eval_result(0, request, {})
        assert result.bitvectors is None and result.oracle_ok is None
        assert [p.error.split(":")[0] for p in result.parts()] == [
            "KeyError"] * 2
        completion = transport._result_event(result)
        assert completion.records == [None, None]

    def test_one_batch_by_the_keywords_the_benchmark_uses(self, registered):
        """``perf/layers.py`` builds both wire types by keyword, with no
        ``fills`` and no ``rest``: that spelling is one full batch, and
        what the transport makes of it is what it made of a batch before
        assignments could hold several."""
        from repro.serve.batcher import BatchRecord, classification_results
        from repro.serve.transport import BatchRequest, BatchResult
        from repro.serve.worker import _eval_result, evaluate_batch

        assignment = self.assignment(registered, (self.CAPACITY,), batch_id=1)
        features = [p.features for p in payloads_of(assignment.runs())]
        bitvectors, phase_ms, inference_ms, encrypt_ms, oracle_ok = (
            evaluate_batch(registered, features, verify_oracle=True)
        )
        request = BatchRequest(
            batch_id=1, model=registered.name, epoch=0,
            features=tuple(tuple(f) for f in features), verify_oracle=True,
        )
        result = BatchResult(
            batch_id=1, model=registered.name, worker=0, epoch=0,
            bitvectors=tuple(tuple(b) for b in bitvectors), phase_ms=phase_ms,
            inference_ms=inference_ms, data_encrypt_ms=encrypt_ms,
            oracle_ok=tuple(oracle_ok), oracle_failures=0,
        )
        for message in (request, result):
            assert pickle.loads(pickle.dumps(message)) == message
        assert [[list(f) for f in b] for b in request.batches()] == [
            features
        ]
        # the worker answers that request with that result, plus the
        # batch's op counts (bitvectors as the lists the routine made)
        answer = _eval_result(0, request, {registered.name: registered})
        assert answer.phase_op_counts
        assert dataclasses.replace(
            answer, phase_op_counts={},
            bitvectors=tuple(tuple(b) for b in answer.bitvectors),
        ) == result
        transport = self.wire(registered)
        transport._inflight[1] = assignment
        completion = transport._result_event(result)
        assert completion.records == [BatchRecord(
            model="m", batch_id=1, size=self.CAPACITY,
            capacity=self.CAPACITY, phase_op_counts={}, phase_ms=phase_ms,
            inference_ms=inference_ms, data_encrypt_ms=encrypt_ms,
            oracle_failures=0, degraded=None,
        )]
        completion.resolve()
        assert [
            f.result(timeout=0) for f in futures_of(assignment)
        ] == classification_results(
            registered, 1, features, bitvectors, inference_ms, oracle_ok
        )


# ---------------------------------------------------------------------------
# Real multiprocessing engine (CI selects these with -k real)
# ---------------------------------------------------------------------------


def real_queries(forest, count, seed=21, precision=8):
    import numpy as np

    rng = np.random.default_rng(seed)
    limit = 1 << precision
    return [
        [int(v) for v in rng.integers(0, limit, forest.n_features)]
        for _ in range(count)
    ]


def dies_at_startup(conn, worker, epoch):
    """A pool worker whose start-up raises before ``MSG_READY``."""
    raise SystemExit(3)


class TestRealCluster:
    def test_real_startup_crash_loop_is_bounded(self, example_forest):
        """Defect lock: a worker that died before its first
        ``MSG_READY`` was respawned forever.  Now each slot is given up
        on after MAX_STARTUP_DEATHS incarnations, with a decision
        record; once none is left the waiting queries fail typed."""
        from repro.serve.cluster import MAX_STARTUP_DEATHS

        queries = real_queries(example_forest, 3, seed=5)
        # Retries outlast the pool, so no query is blamed as poison for
        # the crashes: all of them are still waiting when it runs dry.
        with ClusterService(workers=2, backend="vector", max_retries=10,
                            worker_entry=dies_at_startup) as service:
            service.register_model(
                "doomed", example_forest, precision=8, max_batch_size=4
            )
            futures = []
            for q in queries:
                try:
                    futures.append(service.submit("doomed", q))
                except ServeError:
                    pass  # the pool was already exhausted: refused typed
            try:
                service.flush("doomed")
            except ServeError:
                pass
            for future in futures:
                with pytest.raises(WorkerPoolExhaustedError):
                    future.result(timeout=120)
            assert service.drain(timeout=120)
            assert service.workers == 0
            with pytest.raises(ServeError):
                service.submit("doomed", queries[0])
            stats = service.stats().scheduler
            decisions = service.decisions
        assert_conserved(stats)
        assert stats.failed == len(futures)
        abandoned = [d for d in decisions if d[0] == "abandon"]
        assert sorted(d[1] for d in abandoned) == [0, 1]
        assert all(d[3] == MAX_STARTUP_DEATHS for d in abandoned)
        # Bounded: every slot crashed exactly its budget, then stopped.
        assert sum(d[0] == "crash" for d in decisions) == (
            2 * MAX_STARTUP_DEATHS
        )
        assert sum(d[0] == "restart" for d in decisions) == (
            2 * (MAX_STARTUP_DEATHS - 1)
        )

    @pytest.mark.parametrize("text", [
        "labels: A B\nfeatures: 1\nl 0\n",
        "labels: A B\nfeatures: 1\nl 0\nl 1\n",
        "labels: A B\nfeatures: 1\nb 0 5 l 0 l 1\nl 1\n",
    ])
    def test_real_all_leaf_forest_refused_at_registration(self, text):
        """Known-defect lock: a raw ``ValueError`` (``max()`` over zero
        branches) escaped ``register_model``.  Typed, at registration,
        on every engine — and nothing is announced to the router."""
        from repro.errors import CompileError
        from repro.forest.serialize import loads_forest

        forest = loads_forest(text)
        with ClusterService(workers=1, backend="vector") as service:
            for engine in ("eager", "plan", "tape", "megakernel"):
                with pytest.raises(
                    CompileError, match="level-matrix construction"
                ):
                    service.register_model("leafy", forest, engine=engine)
                assert "leafy" not in service.registry
                with pytest.raises(ValidationError):
                    service.submit("leafy", [3])

    def test_real_two_worker_round_trip(self, example_forest):
        """The acceptance smoke: 2 workers, >= 32 queries, every result
        oracle-exact, accounting conserved."""
        queries = real_queries(example_forest, 33)
        with ClusterService(workers=2, backend="vector") as service:
            service.register_model(
                "rt", example_forest, precision=8, max_batch_size=4
            )
            results = service.classify_many("rt", queries)
            stats = service.stats().scheduler
        assert len(results) == 33
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(
                features
            )
        assert_conserved(stats)
        assert stats.completed == 33

    def test_real_megakernel_engine_round_trip(self, example_forest):
        """Bugfix lock: workers must seat the shipped megakernel in
        their BatchedCopseServer (evaluate_batch once dropped it, so
        every engine="megakernel" batch failed cluster-side)."""
        queries = real_queries(example_forest, 9, seed=11)
        with ClusterService(workers=2, backend="vector") as service:
            service.register_model(
                "mk", example_forest, precision=8, max_batch_size=4,
                engine="megakernel",
            )
            results = service.classify_many("mk", queries)
            stats = service.stats().scheduler
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(
                features
            )
        assert_conserved(stats)
        assert stats.completed == 9

    def test_real_optimized_variant_serves_on_its_registered_engine(
        self, example_forest
    ):
        """Bugfix lock: the worker's copy of the batch pipeline never
        passed the SecComp variant to its server, so a model registered
        with ``seccomp_variant="optimized"`` was refused by tape/plan
        and silently degraded every batch to the eager rung."""
        from repro.serve import CopseService

        queries = real_queries(example_forest, 7, seed=3)
        with ClusterService(workers=1, engine="tape",
                            backend="vector") as service:
            registered = service.register_model(
                "m", example_forest, precision=8, max_batch_size=4,
                seccomp_variant="optimized",
            )
            results = service.classify_many("m", queries)
            assert service.drain(timeout=60)
            stats = service.stats().scheduler
            decisions = service.decisions
        assert [d for d in decisions if d[0] == "degrade"] == []
        assert all(res.oracle_ok is True for res in results)
        assert_conserved(stats)
        assert registered.seccomp_variant == "optimized"
        with CopseService(threads=1, engine="tape",
                          backend="vector") as local:
            local.register_model(
                "m", example_forest, precision=8, max_batch_size=4,
                seccomp_variant="optimized",
            )
            expected = local.classify_many("m", queries)
        assert [r.amortized_ms for r in results] == [
            r.amortized_ms for r in expected
        ]
        assert [r.bitvector for r in results] == [
            r.bitvector for r in expected
        ]

    def test_real_rejected_registration_rolls_back(self, example_forest):
        """Bugfix lock: a registration the router rejected used to stay
        in the registry, so every retry failed 'already registered'."""
        with ClusterService(workers=1, backend="vector") as service:
            for _ in range(2):
                with pytest.raises(ValidationError, match="max_pending"):
                    service.register_model(
                        "m", example_forest, precision=8, max_queue=0
                    )
                assert "m" not in service.registry
            service.register_model(
                "m", example_forest, precision=8, max_batch_size=4
            )
            res = service.classify_many(
                "m", real_queries(example_forest, 2)
            )
        assert all(r.oracle_ok is True for r in res)

    def test_real_one_vs_two_workers_identical_bits(self, example_forest):
        queries = real_queries(example_forest, 12, seed=5)
        bits = {}
        for workers in (1, 2):
            with ClusterService(workers=workers,
                                backend="vector") as service:
                service.register_model(
                    "bits", example_forest, precision=8, max_batch_size=4
                )
                results = service.classify_many("bits", queries)
                stats = service.stats().scheduler
            bits[workers] = [r.bitvector for r in results]
            assert_conserved(stats)
        assert bits[1] == bits[2]

    def test_real_worker_kill_mid_soak_recovers(self, example_forest):
        queries = real_queries(example_forest, 24, seed=9)
        with ClusterService(workers=2, backend="vector",
                            max_retries=3) as service:
            service.register_model(
                "kill", example_forest, precision=8, max_batch_size=4
            )
            futures = [service.submit("kill", q) for q in queries]
            # Kill a live worker process mid-stream, bluntly.
            victim = service.transport._procs[0]
            victim.kill()
            service.flush("kill")
            results = [f.result(timeout=120) for f in futures]
            assert service.drain(timeout=60)
            stats = service.stats().scheduler
            decisions = service.decisions
        assert len(results) == 24
        for features, res in zip(queries, results):
            assert res.oracle_ok is True
            assert res.bitvector == example_forest.label_bitvector(
                features
            )
        assert_conserved(stats)
        kinds = {d[0] for d in decisions}
        assert "crash" in kinds and "restart" in kinds

    def test_real_worker_dead_before_first_ship_takes_crash_path(
        self, example_forest
    ):
        """Bugfix lock: the ``MSG_LOAD`` sends were unguarded, so a pool
        that died before a model's first ship leaked a raw
        ``BrokenPipeError`` out of ``preload()`` / ``submit()``.

        The receive loop is parked inside a done-callback (which it runs
        outside the service lock), so it cannot notice the deaths first:
        both ships below are guaranteed to hit dead pipes."""
        import threading

        from repro.errors import CopseError

        queries = real_queries(example_forest, 5, seed=17)
        parked, gate = threading.Event(), threading.Event()
        with ClusterService(workers=2, backend="vector",
                            max_retries=3) as service:
            for name in ("warm", "cold-preload", "cold-submit"):
                service.register_model(
                    name, example_forest, precision=8, max_batch_size=4
                )
            warm = service.submit("warm", queries[0])
            warm.add_done_callback(
                lambda _: (parked.set(), gate.wait(timeout=60))
            )
            service.flush("warm")
            assert parked.wait(timeout=60)
            try:
                for proc in list(service.transport._procs):
                    proc.kill()
                    proc.join(timeout=10)
                service.preload("cold-preload")
                futures = [
                    service.submit("cold-submit", q) for q in queries[1:]
                ]
            finally:
                gate.set()
            # flush waits for the pump, so only once it is un-parked
            service.flush("cold-submit")
            for features, future in zip(queries[1:], futures):
                try:
                    res = future.result(timeout=120)
                except CopseError:
                    continue  # a typed failure is an accounted outcome
                assert res.bitvector == example_forest.label_bitvector(
                    features
                )
            assert service.drain(timeout=60)
            stats = service.stats().scheduler
            decisions = service.decisions
        assert_conserved(stats)
        assert stats.submitted == 5
        assert "crash" in {d[0] for d in decisions}

    def test_real_sigstop_worker_detected_by_heartbeat(
        self, example_forest
    ):
        """A hung worker (SIGSTOP: pipe stays open, so no EOF arrives)
        must be detected by heartbeat liveness, its in-flight work
        requeued onto the survivor, and accounting conserved."""
        import signal

        queries = real_queries(example_forest, 16, seed=13)
        with ClusterService(workers=2, backend="vector", max_retries=3,
                            heartbeat_interval_s=0.25,
                            heartbeat_timeout_s=2.0) as service:
            service.register_model(
                "hang", example_forest, precision=8, max_batch_size=4
            )
            futures = [service.submit("hang", q) for q in queries]
            victim = service.transport._procs[0]
            os.kill(victim.pid, signal.SIGSTOP)
            service.flush("hang")
            try:
                results = [f.result(timeout=120) for f in futures]
                assert service.drain(timeout=60)
                stats = service.stats().scheduler
                decisions = service.decisions
            finally:
                try:
                    os.kill(victim.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
        victim.join(timeout=10)
        assert len(results) == 16
        for features, res in zip(queries, results):
            assert res.bitvector == example_forest.label_bitvector(
                features
            )
        assert_conserved(stats)
        assert stats.worker_crashes >= 1
        assert "crash" in {d[0] for d in decisions}


# ---------------------------------------------------------------------------
# How a worker is started: the preloaded fork server, the spawn
# fallback, and a start that raises
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[2]

has_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="the platform has no fork server",
)


class StartFails:
    """A start context whose ``Process.start`` raises
    ``OSError(EMFILE)`` from the ``fail_from``-th process on."""

    def __init__(self, context, fail_from):
        self._context, self.fail_from = context, fail_from
        self.procs = []

    def __getattr__(self, name):
        return getattr(self._context, name)

    def Process(self, *args, **kwargs):
        proc = self._context.Process(*args, **kwargs)
        self.procs.append(proc)
        if len(self.procs) >= self.fail_from:
            def start():
                raise OSError(errno.EMFILE, "Too many open files")

            proc.start = start
        return proc


def probed(out_dir):
    return functools.partial(probe_worker_main, str(out_dir))


def assert_oracle_exact(forest, queries, results):
    assert len(results) == len(queries)
    for features, res in zip(queries, results):
        assert res.oracle_ok is True
        assert res.bitvector == forest.label_bitvector(features)


class TestRealWorkerStart:
    @has_forkserver
    def test_real_server_preloads_with_src_only_on_sys_path(self, tmp_path):
        """The benchmark's configuration: no ``PYTHONPATH``, ``src/``
        put on ``sys.path`` by the script.  The fork server must still
        import the worker before it forks one (before Python 3.12 it
        drops the ``sys.path`` it is handed and swallows the preload's
        ``ImportError``), so a worker finds ``repro.serve.worker``
        already imported, and its parent is the server."""
        script = textwrap.dedent(f"""
            import functools, json, os, sys
            sys.path[:0] = [{str(REPO / "src")!r}, {str(REPO)!r}]
            from repro.serve.cluster import ClusterService
            from tests.serve.worker_probe import probe_worker_main, probes
            out = {str(tmp_path)!r}
            with ClusterService(
                workers=2, backend="vector",
                worker_entry=functools.partial(probe_worker_main, out),
            ):
                records = probes(out, 2)
            print(json.dumps({{"pid": os.getpid(), "records": records}}))
        """)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        records = report["records"]
        assert len(records) == 2
        assert [r["preloaded"] for r in records] == [True, True]
        assert records[0]["ppid"] == records[1]["ppid"] != report["pid"]

    @has_forkserver
    def test_real_services_fork_from_one_server(self, tmp_path):
        """Two services in one interpreter: all four workers are
        children of the same preloaded server, not of this process."""
        records = []
        for i in range(2):
            out = tmp_path / str(i)
            out.mkdir()
            with ClusterService(workers=2, backend="vector",
                                worker_entry=probed(out)) as service:
                assert service.transport._mp.get_start_method() == (
                    "forkserver"
                )
                records += probes(str(out), 2)
        assert len(records) == 4
        assert all(r["preloaded"] for r in records)
        assert len({r["ppid"] for r in records}) == 1
        assert records[0]["ppid"] != os.getpid()

    def test_real_spawn_fallback_answers_oracle_exact(
        self, monkeypatch, tmp_path, example_forest
    ):
        """Where the platform has no fork server, workers are spawned
        by this process, import for themselves, and answer the same."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["fork", "spawn"],
        )
        queries = real_queries(example_forest, 12, seed=31)
        with ClusterService(workers=2, backend="vector",
                            worker_entry=probed(tmp_path)) as service:
            assert service.transport._mp.get_start_method() == "spawn"
            service.register_model(
                "m", example_forest, precision=8, max_batch_size=4
            )
            results = service.classify_many("m", queries)
            records = probes(str(tmp_path), 2)
            stats = service.stats().scheduler
        assert_oracle_exact(example_forest, queries, results)
        assert_conserved(stats)
        assert [(r["preloaded"], r["ppid"]) for r in records] == [
            (False, os.getpid())
        ] * 2

    def test_real_failed_start_in_constructor_raises_typed(
        self, monkeypatch
    ):
        """Defect lock: the second worker's ``Process.start`` raising
        escaped the constructor as a raw ``OSError`` and left worker 0
        running.  Now it is a :class:`ServeError`, and worker 0 is
        stopped."""
        from repro.serve import transport

        contexts = []
        pool_context = transport._pool_context

        def failing_second():
            contexts.append(StartFails(pool_context(), fail_from=2))
            return contexts[-1]

        monkeypatch.setattr(transport, "_pool_context", failing_second)
        with pytest.raises(
            ServeError, match=r"worker 1 \(epoch 0\) could not be "
                              r"started: OSError"
        ):
            ClusterService(workers=2, backend="vector")
        first = contexts[0].procs[0]
        first.join(timeout=10)
        assert first.exitcode == 0  # stopped, not left running

    def test_real_failed_add_worker_raises_typed(self, example_forest):
        """``add_worker`` whose start raises: a :class:`ServeError`, the
        new id given up on, and the pool serving on as it was."""
        queries = real_queries(example_forest, 6, seed=23)
        with ClusterService(workers=1, backend="vector") as service:
            service.register_model(
                "m", example_forest, precision=8, max_batch_size=4
            )
            service.transport._mp = StartFails(service.transport._mp, 1)
            with pytest.raises(ServeError, match="worker 1 .*could not"):
                service.add_worker()
            assert service.workers == 1
            results = service.classify_many("m", queries)
            stats = service.stats().scheduler
            decisions = service.decisions
        # close() above skipped the empty slot.
        assert_oracle_exact(example_forest, queries, results)
        assert_conserved(stats)
        assert lifecycle(decisions, 1) == ["add_worker", "crash", "abandon"]
        assert [d[3] for d in decisions if d[0] == "abandon"] == [1]

    def test_real_failed_restart_is_a_startup_death(self, example_forest):
        """Defect lock: a killed worker whose restart raised killed the
        pump thread, and every pending future waited forever.  Now each
        failed start is a death at start-up: after
        ``MAX_STARTUP_DEATHS`` the slot is abandoned, and the pool
        serves on."""
        from repro.serve.cluster import MAX_STARTUP_DEATHS

        queries = real_queries(example_forest, 12, seed=29)
        with ClusterService(workers=2, backend="vector") as service:
            service.register_model(
                "m", example_forest, precision=8, max_batch_size=4
            )
            transport = service.transport
            wait_until(lambda: not any(
                transport.startup_deaths(w) for w in (0, 1)
            ))
            transport._mp = StartFails(transport._mp, 1)
            transport._procs[0].kill()
            wait_until(lambda: any(
                d[0] == "abandon" for d in service.decisions
            ))
            results = service.classify_many("m", queries)
            assert service._pump.is_alive()
            assert service.workers == 1
            stats = service.stats().scheduler
            decisions = service.decisions
        assert_oracle_exact(example_forest, queries, results)
        assert_conserved(stats)
        assert lifecycle(decisions, 0) == (
            ["crash"] + ["restart", "crash"] * MAX_STARTUP_DEATHS
            + ["abandon"]
        )
        assert [d[3] for d in decisions if d[0] == "abandon"] == [
            MAX_STARTUP_DEATHS
        ]


def lifecycle(decisions, worker):
    """The kinds of ``worker``'s pool-membership decisions, in order."""
    return [
        d[0] for d in decisions
        if d[0] in ("add_worker", "crash", "restart", "abandon")
        and d[1] == worker
    ]


def wait_until(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# Fault-domain satellites: constructor validation and close-leak
# detection
# ---------------------------------------------------------------------------


class TestClusterGuards:
    def test_sim_rejects_nonpositive_heartbeat_interval(self):
        with pytest.raises(ValidationError,
                           match="heartbeat_interval_s"):
            SimRunner(PROFILES, workers=2,
                             heartbeat_interval_s=0.0)

    def test_service_rejects_nonpositive_heartbeat_interval(self):
        with pytest.raises(ValidationError,
                           match="heartbeat_interval_s"):
            ClusterService(workers=1, heartbeat_interval_s=-1.0)

    def test_service_rejects_interval_at_or_past_timeout(self):
        with pytest.raises(ValidationError,
                           match="heartbeat_timeout_s"):
            ClusterService(workers=1, heartbeat_interval_s=30.0,
                           heartbeat_timeout_s=10.0)

    def test_close_counts_and_warns_on_leaked_receiver(self):
        service = ClusterService(workers=1, backend="vector")

        class StuckThread:
            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        real = service._pump
        service._pump = StuckThread()
        try:
            with pytest.warns(RuntimeWarning, match="pump thread"):
                service.close()
            assert service.router.metrics.counter_value(
                "cluster_receiver_leaked"
            ) == 1
        finally:
            real.join(timeout=10.0)
        assert not real.is_alive()
