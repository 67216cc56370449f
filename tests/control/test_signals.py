"""Snapshot capture: what the controller sees is what the registry holds.

:meth:`~repro.control.ControlSnapshot.capture` reads only unlabeled
registry values, after the plant's ``stats()`` refreshed the gauges, so
these tests drive a bare :class:`~repro.serve.RouterCore` (no engine)
and an empty registry.
"""

import dataclasses

import pytest

from repro.control import ControlSnapshot, Plant
from repro.obs import MetricsRegistry
from repro.serve import RouterCore
from repro.serve.scheduler import QueryFuture


class _Payload:
    def __init__(self):
        self.future = QueryFuture()


class TestCapture:
    def test_an_empty_registry_reads_all_zero(self):
        snapshot = ControlSnapshot.capture(MetricsRegistry(), 0.0)
        assert dataclasses.astuple(snapshot) == (0.0,) + (0,) * 9 + (
            0.0, 0.0,
        )

    def test_now_is_rounded(self):
        snapshot = ControlSnapshot.capture(MetricsRegistry(), 0.1 + 0.2)
        assert snapshot.now == 0.3

    def test_a_snapshot_is_frozen(self, make_snapshot):
        snapshot = make_snapshot()
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.total_depth = 5

    def test_backlog_counts_every_queue(self):
        router = RouterCore(workers=2)
        router.add_model("a", capacity=8)
        router.add_model("b", capacity=8)
        router.submit_many("a", [_Payload() for _ in range(3)], 0.0)
        router.submit_many("b", [_Payload() for _ in range(5)], 0.0)
        snapshot = Plant(router).observe(0.0)
        assert snapshot.total_depth == 8
        assert snapshot.submitted == 8
        assert (snapshot.live_workers, snapshot.free_workers) == (2, 2)
        assert snapshot.backlog_per_worker == 4.0


class TestBacklogPerWorker:
    def test_no_live_worker_reads_the_whole_backlog(self, make_snapshot):
        snapshot = make_snapshot(live_workers=0, total_depth=6)
        assert snapshot.backlog_per_worker == 6.0

    def test_backlog_is_shared_by_the_live_workers(self, make_snapshot):
        snapshot = make_snapshot(live_workers=4, total_depth=6)
        assert snapshot.backlog_per_worker == 1.5
