"""The deterministic chaos matrix, simulated and real.

The acceptance soak for the fault-domain hardening PR: a seeded
10^4+-query timeline with >= 4 concurrent fault kinds (worker crashes,
hung workers, slow-factor ramps, corrupted ships, corrupted / dropped /
duplicated completions, poison queries) must

* replay **byte-identical** decision logs run-to-run (and pinned),
* conserve accounting (``submitted == completed + rejected + failed +
  cancelled + dead_lettered``),
* serve every non-poison query with **bits identical** to the
  fault-free run of the same arrival schedule, and
* isolate exactly the poison queries in the dead-letter queue, with
  the quarantine/bisection trail in the decision log.

The real-process half drives the same fault kinds, from the same
:class:`~repro.serve.faults.FaultPlan`, through
:func:`~repro.serve.faults.chaos_worker_main` — the production
:func:`worker_main` behind a deliberately misbehaving pipe — so the
recovery paths are exercised end-to-end, not just in simulation
(CI selects these with ``-k real``).
"""

import collections
import dataclasses
import functools
import json

import pytest

from repro.errors import PoisonQueryError
from repro.serve import (
    ClusterService,
    FaultPlan,
    ModelProfile,
    RetryPolicy,
    SimRunner,
    TenantSpec,
    chaos_worker_main,
    generate_arrivals,
)
from tests.conftest import digest

# Open-loop load light enough that a cluster losing workers to the
# full chaos matrix still drains its backlog: the acceptance bar is
# "every non-poison query served", so admission shedding is sized out.
PROFILES = [
    ModelProfile(name="credit", capacity=4, service_ms=40.0,
                 max_pending=100_000),
    ModelProfile(name="fraud", capacity=8, service_ms=100.0, weight=2,
                 max_pending=100_000),
]
TENANTS = [
    TenantSpec(name="acme", model="credit", rate_qps=25.0),
    TenantSpec(name="globex", model="fraud", rate_qps=15.0),
    TenantSpec(name="spiky", model="credit", rate_qps=3.0,
               burst_every_s=2.0, burst_size=8, priority=1),
]
SOAK_QUERIES = 12_000
POISON = (1234, 5678)


def chaos_plan(duration):
    return FaultPlan(
        worker_crashes=(duration * 0.2, duration * 0.45,
                        duration * 0.7),
        worker_hangs=(duration * 0.3, duration * 0.6),
        slow_every=11,
        slow_factor=2.0,
        slow_ramp=0.2,
        corrupt_ship_every=5,
        corrupt_completion_every=97,
        drop_completion_every=131,
        duplicate_completion_every=61,
        poison_queries=POISON,
    )


def chaos_soak(faults, queries=SOAK_QUERIES, seed=42, **runner_kwargs):
    kwargs = dict(
        workers=4,
        max_retries=2,
        retry_policy=RetryPolicy(hedge_factor=3.0),
        heartbeat_interval_s=0.25,
        heartbeat_timeout_s=0.6,
    )
    kwargs.update(runner_kwargs)
    arrivals = generate_arrivals(TENANTS, seed=seed,
                                 total_queries=queries)
    return SimRunner(PROFILES, **kwargs).run(arrivals, faults)


def assert_conserved(stats):
    assert stats.submitted == (
        stats.completed + stats.rejected + stats.failed
        + stats.cancelled + stats.dead_lettered
    ), "conservation violated"


class TestChaosSoakAcceptance:
    """One soak, all four acceptance properties."""

    @pytest.fixture(scope="class")
    def soak(self):
        duration = SOAK_QUERIES / 45.0
        faults = chaos_plan(duration)
        return (
            chaos_soak(faults),
            chaos_soak(faults),
            chaos_soak(FaultPlan()),  # the fault-free twin
        )

    def test_replay_is_byte_identical(self, soak):
        first, second, _ = soak
        assert json.dumps(first.decisions) == json.dumps(
            second.decisions
        )
        assert first.stats == second.stats
        assert first.results == second.results
        assert first.dead_letters == second.dead_letters
        # ... and the same as pinned: sha256 prefixes of the decision
        # log and the stats repr, under every FHE backend.
        assert (
            digest(json.dumps(first.decisions)), digest(repr(first.stats))
        ) == ("50a5d8316da165d5", "94a3e67010f33116")

    def test_conservation_under_chaos(self, soak):
        first, _, clean = soak
        assert first.stats.submitted == SOAK_QUERIES
        assert first.stats.rejected == 0
        assert first.stats.failed == 0
        assert_conserved(first.stats)
        assert clean.stats.completed == SOAK_QUERIES

    def test_non_poison_bits_identical_to_fault_free_run(self, soak):
        first, _, clean = soak
        served = set(first.results)
        assert not served & set(POISON), "served a poison query"
        assert set(clean.results) - set(POISON) <= served
        for index in set(clean.results) - set(POISON):
            assert first.results[index] == clean.results[index]

    def test_poison_isolated_in_dlq_with_bisection_trail(self, soak):
        first, _, _ = soak
        assert first.stats.dead_lettered == len(POISON)
        assert sorted(e["value"] for e in first.dead_letters) == (
            sorted(POISON)
        )
        for entry in first.dead_letters:
            assert entry["attempts"] >= 2
            assert "quarantine" in entry["reason"]
        kinds = [d[0] for d in first.decisions]
        assert "bisect" in kinds and "dead_letter" in kinds
        # The chaos matrix actually fired: every fault family left its
        # signature in the decision log.
        assert {"crash", "restart", "park", "hedge", "stale"} <= (
            set(kinds)
        )


class TestChaosFaultKinds:
    """Each new fault kind in isolation, against the same load."""

    def test_hung_worker_detected_by_heartbeat_and_drained(self):
        report = chaos_soak(
            FaultPlan(worker_hangs=(20.0, 40.0)), queries=3000
        )
        assert report.stats.worker_crashes == 2
        assert {"crash", "restart"} <= {d[0] for d in report.decisions}
        assert report.stats.completed == 3000
        assert_conserved(report.stats)

    def test_dropped_completions_recovered_by_hedging(self):
        report = chaos_soak(
            FaultPlan(drop_completion_every=37), queries=3000
        )
        kinds = {d[0] for d in report.decisions}
        assert "hedge" in kinds and "hedge_win" in kinds
        assert report.stats.completed == 3000
        assert_conserved(report.stats)

    def test_dropped_completions_without_hedging_are_refused(self):
        """Nothing but a hedge resolves a lost completion: without one
        the run used to strand the batch's worker and return 100
        submitted, 32 completed and none failed (and, with hangs
        planned, never return).  It is refused, naming both fields."""
        from repro.errors import ValidationError

        runner = SimRunner(PROFILES, workers=4, retry_policy=RetryPolicy())
        arrivals = generate_arrivals(TENANTS, seed=42, total_queries=100)
        with pytest.raises(ValidationError,
                           match="drop_completion_every=5.*hedge_factor"):
            runner.run(arrivals, FaultPlan(drop_completion_every=5))
        # The refusal comes first: the runner has not run.
        report = runner.run(arrivals, FaultPlan())
        assert report.stats.completed == 100
        assert_conserved(report.stats)

    def test_duplicate_completions_dropped_as_stale(self):
        report = chaos_soak(
            FaultPlan(duplicate_completion_every=23), queries=3000,
            retry_policy=RetryPolicy(),  # no hedging needed
        )
        assert any(d[0] == "stale" for d in report.decisions)
        assert report.stats.completed == 3000
        assert_conserved(report.stats)

    def test_corrupt_completions_crash_the_sender(self):
        report = chaos_soak(
            FaultPlan(corrupt_completion_every=151), queries=3000,
            retry_policy=RetryPolicy(),
        )
        assert report.stats.worker_crashes >= 1
        assert report.stats.completed == 3000
        assert_conserved(report.stats)

    def test_corrupt_ships_crash_fail_closed(self):
        report = chaos_soak(
            FaultPlan(corrupt_ship_every=4), queries=3000,
            retry_policy=RetryPolicy(),
        )
        assert report.stats.worker_crashes >= 1
        assert report.stats.completed == 3000
        assert_conserved(report.stats)

    def test_poison_alone_lands_in_dlq(self):
        report = chaos_soak(
            FaultPlan(poison_queries=(100,)), queries=3000,
            retry_policy=RetryPolicy(),
        )
        assert report.stats.completed == 2999
        assert report.stats.dead_lettered == 1
        assert [e["value"] for e in report.dead_letters] == [100]
        assert_conserved(report.stats)


def kinds(report):
    return collections.Counter(d[0] for d in report.decisions)


def slower(report, reference):
    return report.service_ms_total > reference.service_ms_total


HANGS = (8.0, 16.0)


def found_by_heartbeat(report, reference):
    # Nobody tells the router about a hang: each one becomes a
    # ("crash", worker, epoch, t) only past the 0.6 s heartbeat timeout.
    crashes = [d for d in report.decisions if d[0] == "crash"]
    return [d[1] for d in crashes] == [0, 1] and all(
        d[3] > hang + 0.6 for d, hang in zip(crashes, HANGS)
    )


#: FaultPlan field -> (a plan that sets it, the plan it is read against,
#: what its docstring says must then show in the run).  The reference is
#: the same plan without the field, so the evidence is the field's own.
_SLOW = dict(slow_every=5, slow_factor=2.0)
FAULT_EVIDENCE = {
    "worker_crashes": (
        # t=8.05 is mid-batch on worker 0 (an 8-query fraud batch).
        dict(worker_crashes=(8.05,)), {},
        lambda r, ref: kinds(r)["crash"] == kinds(r)["restart"] == 1
        and kinds(r)["park"] == r.stats.retries == 8,
    ),
    "slow_every": (_SLOW, {}, slower),
    "slow_factor": (dict(_SLOW, slow_factor=4.0), _SLOW, slower),
    "slow_ramp": (dict(_SLOW, slow_ramp=0.5), _SLOW, slower),
    "worker_hangs": (dict(worker_hangs=HANGS), {}, found_by_heartbeat),
    "corrupt_ship_every": (
        dict(corrupt_ship_every=2), {},
        lambda r, ref: kinds(r)["crash"] >= 1
        and kinds(r)["ship"] > kinds(ref)["ship"],
    ),
    "corrupt_completion_every": (
        dict(corrupt_completion_every=50), {},
        lambda r, ref: kinds(r)["crash"] >= 1 and kinds(r)["park"] >= 1,
    ),
    "drop_completion_every": (
        dict(drop_completion_every=37), {},
        lambda r, ref: kinds(r)["hedge"] >= 1
        and kinds(r)["hedge_win"] >= 1,
    ),
    "duplicate_completion_every": (
        dict(duplicate_completion_every=23), {},
        lambda r, ref: kinds(r)["stale"] == r.stats.batches // 23,
    ),
    "poison_queries": (
        dict(poison_queries=(100,)), {},
        lambda r, ref: min(
            kinds(r)[k] for k in ("park", "bisect", "dead_letter")
        ) >= 1
        and [e["value"] for e in r.dead_letters] == [100],
    ),
}


class TestEveryFaultFieldInjects:
    """No field of the chaos matrix may be silently ignored."""

    def test_every_field_has_a_case(self):
        assert sorted(FAULT_EVIDENCE) == sorted(
            f.name for f in dataclasses.fields(FaultPlan)
        )

    @pytest.mark.parametrize("field", sorted(FAULT_EVIDENCE))
    def test_field_shows_in_the_decisions(self, field):
        faulted, reference, shows = FAULT_EVIDENCE[field]
        report = chaos_soak(FaultPlan(**faulted), queries=1500)
        ref = chaos_soak(FaultPlan(**reference), queries=1500)
        # A fault plan that injects nothing is a failure.
        assert report.decisions != ref.decisions
        assert shows(report, ref), kinds(report)
        assert_conserved(report.stats)
        assert report.stats.failed == 0


class TestChaosShim:
    def test_the_plans_the_process_tests_pass_drive_the_shim(self):
        """The shim reads the one :class:`FaultPlan`, so the plans the
        worker-process tests below pass to ``chaos_worker_main`` are
        checked where they are built — a negative count used to be
        obeyed as every |N|-th — and act on a worker's pipe as the
        simulator's counts do: per process, 1-based."""
        from repro.errors import ValidationError
        from repro.serve.faults import _ChaosConnection
        from repro.serve.transport import BatchResult

        for bad in (dict(drop_completion_every=-2),
                    dict(corrupt_ship_every=-1)):
            with pytest.raises(ValidationError, match=next(iter(bad))):
                FaultPlan(**bad)

        class Pipe:
            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

        def results(plan, count=6):
            pipe = Pipe()
            shim = _ChaosConnection(pipe, plan)
            for k in range(1, count + 1):
                shim.send(("result", BatchResult(
                    k, "m", 0, 0, ((1,), (0,)), {}, 0.0, 0.0,
                )))
            return [(m[1].batch_id, len(m[1].bitvectors)) for m in pipe.sent]

        assert results(FaultPlan(drop_completion_every=2)) == [
            (1, 2), (3, 2), (5, 2),
        ]
        assert results(FaultPlan(corrupt_completion_every=3,
                                 duplicate_completion_every=2)) == [
            (1, 2), (2, 2), (2, 2), (3, 1), (4, 2), (4, 2), (5, 2),
            (6, 1), (6, 1),
        ]
        poison = FaultPlan(poison_queries=((255, 255),))
        assert _ChaosConnection(Pipe(), poison)._poison == {(255, 255)}



# ---------------------------------------------------------------------------
# Real multiprocessing chaos (CI selects with -k real)
# ---------------------------------------------------------------------------


def real_queries(forest, count, seed=21, precision=8):
    import numpy as np

    rng = np.random.default_rng(seed)
    limit = 1 << precision
    return [
        [int(v) for v in rng.integers(0, limit - 1, forest.n_features)]
        for _ in range(count)
    ]


def chaos_service(plan, **kwargs):
    defaults = dict(
        workers=2,
        backend="vector",
        max_retries=1,
        retry_policy=RetryPolicy(base_delay_ms=10.0),
        worker_entry=functools.partial(chaos_worker_main, plan),
    )
    defaults.update(kwargs)
    return ClusterService(**defaults)


class TestRealChaos:
    def test_real_poison_query_quarantined_to_dlq(self, example_forest):
        queries = real_queries(example_forest, 8)
        limit = 1 << 8
        poison = [limit - 1] * example_forest.n_features
        queries[5] = poison
        plan = FaultPlan(poison_queries=(tuple(poison),))
        with chaos_service(plan) as service:
            service.register_model(
                "toxic", example_forest, precision=8, max_batch_size=4
            )
            futures = [service.submit("toxic", q) for q in queries]
            service.flush("toxic")
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=180))
                except PoisonQueryError as exc:
                    outcomes.append(exc)
            snapshot = service.stats()
            stats = snapshot.scheduler
            decisions = service.decisions
            dlq = service.dlq()
        # what perf/ reads off the pool's stats is the scheduler's count
        assert snapshot.retries == stats.retries > 0
        for k, outcome in enumerate(outcomes):
            if k == 5:
                assert isinstance(outcome, PoisonQueryError)
            else:
                assert outcome.bitvector == (
                    example_forest.label_bitvector(queries[k])
                )
        assert stats.dead_lettered == 1
        assert stats.completed == 7
        assert_conserved(stats)
        assert len(dlq) == 1 and dlq[0]["model"] == "toxic"
        kinds = {d[0] for d in decisions}
        assert {"crash", "park", "bisect", "dead_letter"} <= kinds

    def test_real_poison_in_a_four_batch_assignment_is_bisected_out(
        self, example_forest
    ):
        """A worker dies holding four ciphertexts whose tickets are out
        of retries.  The cohorts quarantine bisects them into are larger
        than a batch until the third round, so each re-executes as an
        assignment of several (``assign_direct`` bound any cohort as
        one batch, which a worker can only refuse: sixteen innocent
        queries would have failed with the poison)."""
        queries = real_queries(example_forest, 32, seed=11)
        poison = [(1 << 8) - 1] * example_forest.n_features
        queries[21] = poison
        plan = FaultPlan(poison_queries=(tuple(poison),))
        with chaos_service(
            plan, engine="megakernel", max_retries=0
        ) as service:
            service.register_model(
                "toxic", example_forest, precision=8, max_batch_size=4
            )
            futures = service.submit_many("toxic", queries)
            assert service.drain(timeout=180)
            stats = service.stats().scheduler
            decisions = service.decisions
            dlq = service.dlq()
        for k, future in enumerate(futures):
            if k == 21:
                with pytest.raises(PoisonQueryError):
                    future.result(timeout=0)
            else:
                assert future.result(timeout=0).bitvector == (
                    example_forest.label_bitvector(queries[k])
                )
        assert (stats.completed, stats.dead_lettered, stats.failed) == (
            31, 1, 0
        )
        assert_conserved(stats)
        assert [entry["seq"] for entry in dlq] == [21]
        # 4 + 4 on the two workers; the second four die with the poison
        assigns = [d for d in decisions if d[0] == "assign"]
        assert sorted((d[1], d[5], d[6]) for d in assigns[:2]) == [
            (1, 16, 0), (5, 16, 16),
        ]
        # ... and are narrowed 16 -> 8 -> 4 -> 2 -> 1, every cohort of
        # more than a batch cut into batches of four
        bisects = [d for d in decisions if d[0] == "bisect"]
        assert [d[3] for d in bisects] == [16, 8, 4, 2]
        assert {d[5] for d in assigns[2:]} == {8, 4, 2, 1}
        # ids: 8 batches, then one per batch of each cohort (2+2, 1+1,
        # 1+1, 1+1)
        assert stats.batches == 8 + 4 + 2 + 2 + 2

    def test_real_corrupt_and_duplicate_results_recover(
        self, example_forest
    ):
        plan = FaultPlan(corrupt_completion_every=3,
                         duplicate_completion_every=2)
        queries = real_queries(example_forest, 24, seed=5)
        with chaos_service(plan, max_retries=3) as service:
            service.register_model(
                "scramble", example_forest, precision=8,
                max_batch_size=4
            )
            results = service.classify_many("scramble", queries)
            stats = service.stats().scheduler
            decisions = service.decisions
        for features, res in zip(queries, results):
            assert res.bitvector == example_forest.label_bitvector(
                features
            )
        assert_conserved(stats)
        # A truncated result is a fail-closed kill, not a bad answer.
        assert stats.worker_crashes >= 1
        assert "crash" in {d[0] for d in decisions}

    def test_real_dropped_results_recovered_by_hedging(
        self, example_forest
    ):
        # Waves keep at most one batch in flight, so the hedge of the
        # dropped batch always finds a free worker whose per-process
        # result counter is NOT at a drop point: wave 1 completes on
        # the sticky first-choice worker (its result #1), wave 2 lands
        # there too and its result #2 is silently dropped — recovery
        # must come from the hedge on the idle second worker
        # (result #1, delivered).  hedge_min_ms sits well above the
        # cold-start evaluation time: a spurious hedge on wave 1
        # (the registry's cost-model estimate undershoots real wall
        # time) would advance both workers' counters in lockstep and
        # put the wave-2 hedge at a drop point too.
        plan = FaultPlan(drop_completion_every=2)
        queries = real_queries(example_forest, 12, seed=7)
        with chaos_service(
            plan,
            retry_policy=RetryPolicy(hedge_factor=2.0,
                                     hedge_min_ms=5000.0),
        ) as service:
            service.register_model(
                "ghost", example_forest, precision=8, max_batch_size=4
            )
            results = []
            for wave in range(3):
                futures = [
                    service.submit("ghost", q)
                    for q in queries[4 * wave:4 * wave + 4]
                ]
                service.flush("ghost")
                results.extend(f.result(timeout=120) for f in futures)
            stats = service.stats().scheduler
            decisions = service.decisions
        for features, res in zip(queries, results):
            assert res.bitvector == example_forest.label_bitvector(
                features
            )
        assert_conserved(stats)
        assert stats.completed == 12
        kinds = {d[0] for d in decisions}
        assert "hedge" in kinds and "hedge_win" in kinds
