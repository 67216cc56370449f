"""Scheduler invariants under deterministic simulated load.

Everything here runs the *production* decision cores
(:class:`repro.serve.cluster.RouterCore` over
:class:`repro.serve.scheduler.SchedulerCore`) under a virtual clock via
:class:`repro.serve.loadgen.SimRunner` — thousands of queries, bursts,
crashes, and overload, with zero wall-clock sleeps and zero flakiness.
The locked invariants:

* **Determinism** — same seed, same fault plan => identical routing
  decisions and byte-identical stats; the acceptance soak's are pinned.
* **Conservation** — submitted == completed + rejected + failed +
  cancelled + dead_lettered, always, including under crashes and
  admission rejections.
* **No starvation** — every tenant's accepted queries complete, even
  when a hot tenant offers 10x the load.
* **FIFO-within-tenant** — equal-priority queries of one tenant are
  packed in submission order (first packing; a crash retry may repack).
* **Deadline-miss monotonicity** — the miss rate never decreases as
  offered load grows, all else equal.

``REPRO_BENCH_QUICK=1`` (the CI quick mode) trims the big soak.
"""

import json
import re
from pathlib import Path

import pytest

import repro

from repro.errors import ValidationError
from repro.serve import (
    FaultPlan,
    ModelProfile,
    SimRunner,
    TenantSpec,
    generate_arrivals,
    offered_load,
)
from tests.conftest import bench_quick, digest

#: The acceptance soak's size (quick mode trims it for CI replays).
SOAK_QUERIES = 1500 if bench_quick() else 5000
#: Its pinned output per size: sha256 prefixes of the decision log and
#: the stats repr, the same under every FHE backend.
SOAK_DIGESTS = {
    1500: ("00bbf9c7ee56c580", "c9c7b7b63d99910f"),
    5000: ("c2d51f3d6c2a72db", "264ab9cde8a439c2"),
}


def first_pack_order(report):
    """Each tenant's pack order with crash repacks collapsed to the
    first attempt (retries legitimately repack out of order)."""
    out = {}
    for tenant, seqs in report.packed_order.items():
        seen = set()
        firsts = []
        for seq in seqs:
            if seq not in seen:
                seen.add(seq)
                firsts.append(seq)
        out[tenant] = firsts
    return out


def check_invariants(report):
    """The invariant bundle every simulation must satisfy."""
    stats = report.stats
    assert stats.submitted == (
        stats.completed + stats.rejected + stats.failed + stats.cancelled
        + stats.dead_lettered
    ), "conservation violated"
    for tenant, seqs in first_pack_order(report).items():
        assert seqs == sorted(seqs), f"FIFO violated within tenant {tenant}"
    # No starvation: every admitted query reached a terminal state.
    assert stats.completed + stats.failed + stats.dead_lettered == (
        stats.submitted - (stats.rejected + stats.cancelled)
    )


def two_model_setup():
    profiles = [
        ModelProfile(name="credit", capacity=4, service_ms=60.0,
                     max_pending=64),
        ModelProfile(name="fraud", capacity=8, service_ms=150.0,
                     weight=2.0, max_pending=64),
    ]
    tenants = [
        TenantSpec(name="acme", model="credit", rate_qps=30.0,
                   deadline_ms=400.0),
        TenantSpec(name="globex", model="fraud", rate_qps=20.0,
                   deadline_ms=900.0),
        TenantSpec(name="spiky", model="credit", burst_every_s=0.5,
                   burst_size=6, deadline_ms=500.0, priority=1),
    ]
    return profiles, tenants


class TestDeterminism:
    def test_same_seed_identical_decisions_and_stats(self):
        profiles, tenants = two_model_setup()
        faults = FaultPlan(worker_crashes=(0.8,), slow_every=9,
                           slow_factor=2.0)

        def run():
            arrivals = generate_arrivals(tenants, seed=7,
                                         total_queries=800)
            return SimRunner(profiles, workers=3).run(arrivals, faults)

        first, second = run(), run()
        assert first.decisions == second.decisions
        assert first.stats == second.stats
        assert (
            first.service_stats().render()
            == second.service_stats().render()
        )

    def test_different_seeds_differ(self):
        profiles, tenants = two_model_setup()
        runs = []
        for seed in (1, 2):
            arrivals = generate_arrivals(tenants, seed=seed,
                                         total_queries=300)
            runs.append(SimRunner(profiles, workers=2).run(arrivals))
        assert runs[0].decisions != runs[1].decisions

    def test_adding_a_tenant_preserves_other_streams(self):
        profiles, tenants = two_model_setup()
        base = generate_arrivals(tenants, seed=3, duration_s=5.0)
        more = generate_arrivals(
            tenants + [TenantSpec(name="late", model="credit",
                                  rate_qps=5.0)],
            seed=3, duration_s=5.0,
        )
        assert [a for a in more if a.tenant != "late"] == base


class TestInvariants:
    def test_invariant_bundle_under_faults(self):
        profiles, tenants = two_model_setup()
        arrivals = generate_arrivals(tenants, seed=11, total_queries=1000)
        report = SimRunner(profiles, workers=3).run(
            arrivals,
            FaultPlan(worker_crashes=(0.5, 1.5, 2.5), slow_every=5,
                      slow_factor=3.0),
        )
        check_invariants(report)
        assert report.stats.completed > 0
        assert report.stats.worker_crashes == 3

    def test_no_starvation_under_10x_tenant_skew(self):
        profiles = [
            ModelProfile(name="hot", capacity=4, service_ms=80.0),
            ModelProfile(name="cold", capacity=4, service_ms=80.0),
        ]
        tenants = [
            TenantSpec(name="whale", model="hot", rate_qps=100.0,
                       deadline_ms=400.0),
            TenantSpec(name="minnow", model="cold", rate_qps=10.0,
                       deadline_ms=400.0),
        ]
        arrivals = generate_arrivals(tenants, seed=5, total_queries=1100)
        report = SimRunner(profiles, workers=2).run(arrivals)
        check_invariants(report)
        stats = report.stats
        assert stats.per_tenant_completed["minnow"] == (
            stats.per_tenant_submitted["minnow"]
        )
        # Fair sharing also keeps the small tenant's latency sane: it
        # must not queue behind the whale's whole backlog.
        assert stats.per_tenant_completed["whale"] > 0

    def test_deadline_miss_rate_monotone_in_offered_load(self):
        profiles = [
            ModelProfile(name="m", capacity=4, service_ms=100.0,
                         max_pending=256),
        ]
        miss_rates = []
        loads = []
        for rate in (20.0, 60.0, 120.0, 240.0):
            tenants = [
                TenantSpec(name="t", model="m", rate_qps=rate,
                           deadline_ms=300.0),
            ]
            arrivals = generate_arrivals(tenants, seed=13,
                                         total_queries=600)
            report = SimRunner(profiles, workers=2).run(arrivals)
            check_invariants(report)
            miss_rates.append(report.stats.deadline_miss_rate)
            loads.append(offered_load(tenants, profiles, threads=2))
        assert loads == sorted(loads)
        assert miss_rates == sorted(miss_rates), (
            f"deadline-miss rate not monotone in load: {miss_rates}"
        )
        assert miss_rates[-1] > miss_rates[0]

    def test_overload_rejects_instead_of_growing_queue(self):
        profiles = [
            ModelProfile(name="m", capacity=2, service_ms=200.0,
                         max_pending=8),
        ]
        tenants = [
            TenantSpec(name="flood", model="m", rate_qps=200.0,
                       deadline_ms=250.0),
        ]
        arrivals = generate_arrivals(tenants, seed=17, total_queries=500)
        report = SimRunner(profiles, workers=1).run(arrivals)
        check_invariants(report)
        assert report.stats.rejected > 100  # overload actually shed
        assert report.stats.completed > 0

    def test_crash_retries_complete_or_fail_loudly(self):
        profiles = [ModelProfile(name="m", capacity=4, service_ms=100.0)]
        tenants = [
            TenantSpec(name="t", model="m", rate_qps=50.0,
                       deadline_ms=500.0),
        ]
        arrivals = generate_arrivals(tenants, seed=23, total_queries=400)
        report = SimRunner(profiles, workers=2, max_retries=1).run(
            arrivals,
            FaultPlan(worker_crashes=(0.2, 0.4, 0.6, 0.8, 1.0)),
        )
        check_invariants(report)
        stats = report.stats
        assert stats.worker_crashes == 5
        assert stats.retries > 0
        # The one crash policy: every interrupted ticket parks behind
        # the retry backoff and is served after its release — nothing
        # is requeued on the spot and nothing fails.
        kinds = [d[0] for d in report.decisions]
        assert kinds.count("park") == stats.retries
        assert kinds.count("crash") == kinds.count("restart") == 5
        assert stats.failed == 0 and stats.dead_lettered == 0
        assert stats.completed == stats.submitted

    def test_slack_cuts_bound_latency_under_trickle_load(self):
        """A huge batch capacity must not hold a trickle of deadline-
        bearing queries hostage: slack cuts dispatch partial batches."""
        profiles = [ModelProfile(name="m", capacity=64, service_ms=50.0)]
        tenants = [
            TenantSpec(name="t", model="m", rate_qps=5.0,
                       deadline_ms=200.0),
        ]
        arrivals = generate_arrivals(tenants, seed=29, total_queries=100)
        report = SimRunner(profiles, workers=1).run(arrivals)
        check_invariants(report)
        # Count-only cutting would wait ~13 s to fill 64 slots; the
        # slack cut caps every query's latency at deadline scale.
        assert report.stats.latency_max_ms <= 200.0 + 50.0 + 1e-6
        assert report.stats.deadline_misses == 0
        assert report.stats.batches >= 3  # genuinely partial batches


class TestLiveness:
    def test_no_false_deaths_without_heartbeats(self):
        """A plan without hangs has no heartbeat rounds, so liveness is
        never checked: the liveness clocks that start and restart set
        run out (after 1 s here) without anyone declaring a worker
        dead.  Checked on every pump step instead, each worker would
        "die" a second after it came up."""
        profiles = [ModelProfile(name="m", capacity=4, service_ms=50.0)]
        tenants = [TenantSpec(name="t", model="m", rate_qps=40.0)]
        arrivals = generate_arrivals(tenants, seed=31, duration_s=15.0)
        report = SimRunner(
            profiles, workers=2, heartbeat_interval_s=0.25,
            heartbeat_timeout_s=1.0,
        ).run(arrivals, FaultPlan(worker_crashes=(2.0,)))
        assert report.duration_s > 10.0
        kinds = [d[0] for d in report.decisions]
        assert kinds.count("crash") == kinds.count("restart") == 1
        check_invariants(report)
        assert report.stats.completed == report.stats.submitted


class TestRetiredWorkers:
    def test_scheduled_faults_skip_a_retired_worker(self):
        """A fault-plan entry aimed at a worker the controller has
        retired meanwhile is skipped: the id is gone for good, and
        resurrecting it would place batches on a slot the scheduler
        core no longer has."""
        from repro.control import (
            Controller, GuardConfig, GuardRail, Plant, Policy,
            ScaleWorkers,
        )

        class RetireOnce(Policy):
            name = "retire_once"
            done = False

            def propose(self, snapshot):
                if self.done:
                    return []
                self.done = True
                return [ScaleWorkers(delta=-1, reason="shrink")]

        profiles = [ModelProfile(name="m", capacity=4, service_ms=100.0)]
        tenants = [TenantSpec(name="t", model="m", rate_qps=50.0)]
        arrivals = generate_arrivals(tenants, seed=23, total_queries=400)
        controller = Controller(
            None, [RetireOnce()],
            GuardRail(GuardConfig(workers_min=1, workers_max=3)),
        )
        # The first tick precedes the first arrival, so the whole pool
        # is idle and worker 2 — the head of the model's placement
        # rotation, where a resurrected id would be picked first — goes.
        runner = SimRunner(
            profiles, workers=3, controller=controller,
            control_interval_s=0.02, heartbeat_interval_s=0.25,
            heartbeat_timeout_s=0.6,
        )
        assert runner.router.placement_order("m")[0] == 2
        controller.plant = Plant(runner.service)
        # Entry k targets worker k % 3: the third of each hits worker 2.
        report = runner.run(arrivals, FaultPlan(
            worker_crashes=(1.0, 1.0, 1.0),
            worker_hangs=(2.0, 2.0, 2.0),
        ))
        assert report.decisions[0][:2] == ("retire", 2)
        after = report.decisions[1:]
        assert not any(
            d[0] in ("crash", "restart") and d[1] == 2 for d in after
        )
        assert not any(d[0] == "assign" and d[3] == 2 for d in after)
        # The two survivors each took their scheduled crash and hang.
        assert sorted(d[1] for d in after if d[0] == "crash") == (
            [0, 0, 1, 1]
        )
        check_invariants(report)
        assert report.stats.completed == report.stats.submitted == 400


class TestAcceptanceSoak:
    """The PR acceptance scenario: a seeded mixed-tenant soak with a
    mid-run worker crash and burst arrivals, replayed twice."""

    def build(self):
        profiles = [
            ModelProfile(name="credit", capacity=6, service_ms=55.0,
                         max_pending=96),
            ModelProfile(name="fraud", capacity=12, service_ms=140.0,
                         weight=2.0, max_pending=96),
            ModelProfile(name="churn", capacity=4, service_ms=35.0,
                         max_pending=96),
        ]
        tenants = [
            TenantSpec(name="acme", model="credit", rate_qps=45.0,
                       deadline_ms=350.0),
            TenantSpec(name="globex", model="fraud", rate_qps=35.0,
                       deadline_ms=900.0),
            TenantSpec(name="initech", model="churn", rate_qps=25.0,
                       deadline_ms=250.0, priority=1),
            TenantSpec(name="spiky", model="credit", burst_every_s=0.75,
                       burst_size=15, deadline_ms=500.0),
        ]
        # The crash lands just after the t=2.25 burst, when the pool is
        # provably busy — so it interrupts a batch, not an idle worker.
        faults = FaultPlan(worker_crashes=(2.27,), slow_every=11,
                           slow_factor=2.5)
        return profiles, tenants, faults

    def run_soak(self):
        profiles, tenants, faults = self.build()
        arrivals = generate_arrivals(tenants, seed=4242,
                                     total_queries=SOAK_QUERIES)
        return SimRunner(profiles, workers=4).run(arrivals, faults)

    def test_soak_invariants_and_determinism(self):
        import time

        start = time.perf_counter()
        first = self.run_soak()
        elapsed = time.perf_counter() - start
        second = self.run_soak()

        # Full-size runs must replay thousands of queries in seconds.
        assert elapsed < 10.0, f"soak took {elapsed:.1f}s of real time"
        stats = first.stats
        assert stats.submitted == SOAK_QUERIES
        assert stats.worker_crashes == 1
        check_invariants(first)
        check_invariants(second)

        # Byte-identical stats + identical decisions across runs, and
        # the same as they were pinned.
        assert first.stats == second.stats
        assert first.decisions == second.decisions
        assert (
            digest(json.dumps(first.decisions)), digest(repr(stats))
        ) == SOAK_DIGESTS[SOAK_QUERIES]
        render = first.service_stats().render()
        assert render == second.service_stats().render()
        assert "deadline misses" in render

        # The soak actually exercised the interesting machinery.
        assert stats.batches > SOAK_QUERIES // 12
        assert stats.retries > 0 or stats.failed > 0
        assert stats.latency_p99_ms >= stats.latency_p50_ms > 0


class TestOneOfEach:
    """Source scan: the simulator, its payload class, its event table
    and the control plant each exist once, and the names of the copies
    they replaced are gone — a second one is a place to drift."""

    ONCE = {
        "simulator": r"^class \w*SimRunner\b",
        "plant": r"^class \w*Plant\b",
        "future-only payload": r"__slots__ = \(\"future\",\)",
        "event table": r"^EVENT_TABLE\b.*=",
        "virtual transport": r"^class VirtualTransport\b",
        "restart call": r"\.restart_worker\(",
    }
    GONE = re.compile(
        r"OUTCOME_CRASH|ClusterSimRunner|SimPlant|ServicePlant"
        r"|ClusterPlant|_COMPLETION\b|class Scheduler\b|_ClusterQuery"
        r"|TransportFaultPlan|_crash_and_respawn|_on_completion|_on_health"
    )

    def sources(self):
        root = Path(repro.__file__).parent
        return {
            path.relative_to(root).as_posix(): path.read_text()
            for path in sorted(root.rglob("*.py"))
        }

    def test_each_occurs_once(self):
        sources = self.sources()
        found = {
            what: [
                name for name, text in sources.items()
                for _ in re.finditer(pattern, text, re.MULTILINE)
            ]
            for what, pattern in self.ONCE.items()
        }
        assert found == {
            "simulator": ["serve/loadgen.py"],
            "plant": ["control/actuator.py"],
            "future-only payload": ["serve/loadgen.py"],
            "event table": ["serve/loadgen.py"],
            "virtual transport": ["serve/loadgen.py"],
            # one crash -> restart path, whichever driver steps it
            "restart call": ["serve/service.py"],
        }

    def test_replaced_names_are_gone(self):
        sources = self.sources()
        assert [n for n, t in sources.items() if self.GONE.search(t)] == []
        # The crash policy has one owner: the router.
        for name in ("serve/scheduler.py", "serve/service.py"):
            assert "max_retries" not in sources[name]

    def test_one_serve_facade(self):
        """Each serving method is written once: on the facade, over
        the one core's (and the batcher's) own — ``RouterCore``
        inherits the ``SchedulerCore``'s."""
        sources = self.sources()

        def defined(method):
            return {
                name: len(re.findall(rf"^    def {method}\(", text, re.M))
                for name, text in sources.items()
                if re.search(rf"^    def {method}\(", text, re.M)
            }

        core = {"serve/scheduler.py": 1}
        assert defined("register_model") == {"serve/service.py": 1}
        assert defined("classify_many") == {"serve/service.py": 1}
        assert defined("submit_many") == {**core, "serve/service.py": 1}
        assert defined("flush") == {**core, "serve/service.py": 1}
        # The pool's actuators, which the simulator's plant uses too
        # (the router's add_worker is the core's).
        assert defined("add_worker") == {
            "serve/cluster.py": 1, "serve/service.py": 1,
        }
        assert defined("remove_worker") == {"serve/service.py": 1}
        # ... and what is left of the second facade defines none of it.
        cluster = sources["serve/cluster.py"]
        below_the_router = cluster[cluster.index("class ClusterService"):]
        assert re.findall(r"^    def (\w+)\(", below_the_router, re.M) == [
            "__init__",
        ]
        # One pump, and one place that resolves futures, whichever
        # transport evaluated the batch: ``settle``, called by the
        # completion handler and by ``deliver_failures``.
        everything = "\n".join(sources.values())
        assert everything.count("threading.Thread(") == 1
        assert everything.count(".set_result(") == 0
        assert everything.count(".set_exception(") == 0
        assert len(re.findall(r"\bsettle\(", everything)) == 3


class TestRealServiceWithVirtualClock:
    """The sim profile and the live service agree on the seams: a real
    model served under a virtual clock with deadlines and tenants."""

    def test_profile_from_registered_model(self, example_forest):
        from repro.serve import CopseService

        with CopseService(threads=1) as service:
            registered = service.register_model(
                "m", example_forest, max_batch_size=4
            )
            profile = ModelProfile.from_registered(
                registered, max_pending=32
            )
        assert profile.capacity == 4
        assert profile.service_ms == pytest.approx(
            registered.estimated_batch_ms
        )
        assert profile.service_ms > 0

    def test_eager_model_has_no_estimate(self, example_forest):
        from repro.serve import CopseService

        with CopseService(threads=1, engine="eager") as service:
            registered = service.register_model("m", example_forest)
            assert registered.estimated_batch_ms is None
            with pytest.raises(ValidationError, match="no cached plan"):
                ModelProfile.from_registered(registered)

    def test_service_under_virtual_clock_with_tenants(self, example_forest):
        from repro.serve import CopseService, VirtualClock

        clock = VirtualClock()
        with CopseService(
            threads=2, clock=clock, default_deadline_ms=1000.0
        ) as service:
            service.register_model("m", example_forest, max_batch_size=3)
            futures = [
                service.submit(
                    "m", features, tenant=f"tenant-{i % 2}",
                )
                for i, features in enumerate(
                    [[i * 7 % 256, i * 31 % 256] for i in range(9)]
                )
            ]
            service.flush("m")
            results = [f.result(timeout=60) for f in futures]
            stats = service.stats()
        assert all(r.oracle_ok for r in results)
        sched = stats.scheduler
        assert sched.completed == 9
        assert sched.per_tenant_completed == {
            "tenant-0": 5, "tenant-1": 4,
        }
        # Virtual time never advanced, so nothing missed its deadline
        # and every recorded latency is exactly zero.
        assert sched.deadline_misses == 0
        assert sched.latency_p99_ms == 0.0
