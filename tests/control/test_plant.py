"""Plant conformance: one actuation seam over three serve targets.

The same proposals go through :class:`~repro.control.Plant` — via a
Controller and its guards, as in production — over the live facade on
each transport (:class:`~repro.serve.CopseService` in-thread, a 1-worker
:class:`~repro.serve.ClusterService`) and the simulator.  The observable
effect is the same on all three: the pool grows by one and shrinks again
via the highest-id idle worker, and every query still decrypts to the
oracle's bits.  A proposal kind the plant does not know is refused with
the typed "cannot apply" naming the target.
"""

import contextlib
import functools
import threading

import numpy as np
import pytest

from repro.control import (
    AutoscalePolicy,
    Controller,
    GuardConfig,
    GuardRail,
    Plant,
    Policy,
    Proposal,
    ScaleWorkers,
)
from repro.errors import ValidationError
from repro.serve import (
    ClusterService,
    CopseService,
    FaultPlan,
    ModelProfile,
    RouterCore,
    SimRunner,
    chaos_worker_main,
)
from repro.serve.scheduler import QueryFuture

TARGETS = ["service", "cluster", "sim"]


def queries_for(forest, count, seed=21, precision=8):
    rng = np.random.default_rng(seed)
    limit = 1 << precision
    return [
        [int(v) for v in rng.integers(0, limit, forest.n_features)]
        for _ in range(count)
    ]


class _Script(Policy):
    """Emit one fixed proposal list per tick, then go quiet."""

    name = "script"

    def __init__(self, *ticks):
        self._ticks = [list(proposals) for proposals in ticks]

    def propose(self, snapshot):
        return self._ticks.pop(0) if self._ticks else []


class _Mystery(Proposal):
    """A proposal kind no plant applies."""

    kind = "mystery"


class _Payload:
    """Minimal router payload for occupying a simulated worker."""

    def __init__(self):
        self.future = QueryFuture()


class _Target:
    """One serve target plus what the test needs to read back from it."""

    def __init__(self, kind, target):
        self.kind = kind
        self.target = target

    def idle_workers(self):
        return self.target.router.idle_workers()

    def occupy(self, forest, gate):
        """Put a batch in flight on the (one) worker and keep it there
        until ``gate`` is set; returns the real targets' futures."""
        if self.kind == "sim":
            for _ in range(4):
                self.target.router.submit("m", _Payload(), 0.0)
            self.target.router.dispatch(0.0)
            return []
        queries = queries_for(forest, 4)
        futures = [self.target.submit("m", q) for q in queries[:3]]
        # In-thread, a batch stays in flight until its futures are
        # resolved, which is when their callbacks run: on the pump.
        # (The cluster target's completions are lost in transit.)
        futures[0].add_done_callback(lambda _: gate.wait(timeout=60))
        futures.append(self.target.submit("m", queries[3]))  # it fills
        for _ in range(200):  # until the router has cut the batch
            if not self.idle_workers():
                break
            gate.wait(0.05)
        return futures

    def serve(self, forest, count, seed):
        """Real targets answer ``count`` queries oracle-exactly."""
        if self.kind == "sim":
            return
        results = self.target.classify_many(
            "m", queries_for(forest, count, seed=seed)
        )
        assert all(r.oracle_ok for r in results)


def open_target(kind, forest, workers, **cluster_kwargs):
    """Context manager yielding a fresh :class:`_Target` of ``kind``."""

    @contextlib.contextmanager
    def opened():
        if kind == "sim":
            profile = ModelProfile(name="m", capacity=4, service_ms=50.0)
            yield _Target(kind, SimRunner([profile], workers=workers).service)
            return
        service = (
            CopseService(threads=workers, engine="eager")
            if kind == "service"
            else ClusterService(workers=workers, engine="eager",
                                **cluster_kwargs)
        )
        with service:
            service.register_model("m", forest, max_batch_size=4)
            yield _Target(kind, service)

    return opened()


@pytest.mark.parametrize("kind", TARGETS)
class TestConformance:
    def test_scale_up_then_down(self, kind, example_forest):
        start = 1 if kind == "cluster" else 2
        with open_target(kind, example_forest, start) as t:
            plant = Plant(t.target)
            t.serve(example_forest, 4, seed=21)
            before = t.idle_workers()

            # The plant refuses a kind it does not know, typed.
            name = type(t.target).__name__
            with pytest.raises(
                ValidationError,
                match=f"{name} cannot apply 'mystery' proposals",
            ):
                plant.apply(_Mystery(reason="r"), 0.0)

            guards = GuardRail(GuardConfig(
                workers_min=1, workers_max=4, cooldown_s=0.0,
            ))
            controller = Controller(
                plant,
                [_Script([
                    ScaleWorkers(delta=1, reason="warm up"),
                ], [
                    ScaleWorkers(delta=-1, reason="idle"),
                ])],
                guards,
            )
            controller.tick(0.0)
            assert controller.applied()[-1][2:4] == ("scale_workers", 1)

            # Same observable effect on every target.
            assert plant.observe(1.0).live_workers == start + 1
            assert t.idle_workers() == before + [start]
            t.serve(example_forest, 5, seed=9)

            # Scale-down retires the highest-id idle worker: the one
            # just added, never a placement anchor.
            controller.tick(2.0)
            assert controller.applied()[-1][2:4] == ("scale_workers", -1)
            assert plant.observe(3.0).live_workers == start
            assert t.idle_workers() == before
            t.serve(example_forest, 3, seed=5)

    def test_scale_down_with_every_worker_busy_refused(
        self, kind, example_forest
    ):
        """The mechanism fails closed on its own, whatever the guards
        would have said: no idle worker, nothing retired."""
        # Every completion is lost in transit, so the cluster's one
        # worker stays busy from the router's point of view.
        stuck = dict(
            backend="vector",
            worker_entry=functools.partial(
                chaos_worker_main,
                FaultPlan(drop_completion_every=1),
            ),
        ) if kind == "cluster" else {}
        gate = threading.Event()
        with open_target(kind, example_forest, 1, **stuck) as t:
            futures = t.occupy(example_forest, gate)
            try:
                assert t.idle_workers() == []
                plant = Plant(t.target)
                with pytest.raises(ValidationError,
                                   match="no idle worker to retire"):
                    plant.apply(
                        ScaleWorkers(delta=-1, reason="shrink"), 0.0
                    )
                assert plant.observe(0.0).live_workers == 1
            finally:
                gate.set()
            if kind == "service":
                assert all(
                    f.result(timeout=60).oracle_ok for f in futures
                )


class TestGuardedOnTheLiveService:
    def test_observe_reads_live_metrics(self, example_forest):
        with CopseService(threads=2) as service:
            service.register_model("m", example_forest, max_batch_size=4)
            service.classify_many("m", queries_for(example_forest, 4))
            snapshot = Plant(service).observe(1.0)
        assert snapshot.live_workers == 2
        assert snapshot.submitted == 4
        assert snapshot.completed == 4
        assert snapshot.total_depth == 0


class TestBacklogSignal:
    def test_a_removed_model_leaves_no_backlog(self):
        """The backlog is what is pending now.  A model unregistered
        with queries queued leaves its last per-queue depth gauge in the
        registry; that stale depth must not keep the autoscaler's
        backlog up."""
        router = RouterCore(workers=1)
        router.add_model("a", capacity=8)
        router.add_model("b", capacity=8)
        router.submit_many("b", [_Payload() for _ in range(5)], 0.0)
        plant = Plant(router)
        assert plant.observe(0.0).total_depth == 5
        router.remove_model("b", now=0.5)
        snapshot = plant.observe(1.0)
        assert snapshot.total_depth == 0
        policy = AutoscalePolicy(backlog_high=2.0, sustain_up=1)
        assert policy.propose(snapshot) == []
