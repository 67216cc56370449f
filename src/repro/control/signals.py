"""Control-plane observations: one consistent snapshot per tick.

The controller never pokes scheduler internals.  Everything it can see
is read from the shared :class:`~repro.obs.metrics.MetricsRegistry` —
the same store ``repro metrics`` and the Prometheus export read — after
the plant has refreshed its point-in-time gauges (``stats()`` does
that).  This keeps one source of truth: if a signal is not a metric, the
controller cannot act on it, and anything the controller acted on can be
inspected after the fact with the standard observability tooling.

A :class:`ControlSnapshot` is frozen and built from unlabeled registry
values, so two runs that produced identical metric values produce
identical snapshots — the first link in the control loop's determinism
chain (snapshot -> policy -> guard -> actuation, each pure).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ControlSnapshot"]


@dataclass(frozen=True)
class ControlSnapshot:
    """Everything the policies may react to, captured at one instant.

    Counter fields are cumulative (policies needing rates keep the
    previous snapshot and difference them); gauges and percentiles are
    point-in-time.
    """

    now: float
    live_workers: int
    free_workers: int
    #: Queries pending across every queue (the backlog).
    total_depth: int
    submitted: int
    completed: int
    rejected: int
    failed: int
    deadline_misses: int
    worker_crashes: int
    latency_p50_ms: float
    latency_p99_ms: float

    @classmethod
    def capture(cls, metrics, now: float) -> "ControlSnapshot":
        """Read the registry into a snapshot.

        The caller must refresh point-in-time gauges first (the plants'
        ``observe`` call ``stats()`` before capturing, which is what
        writes ``sched_pending`` / ``sched_live_workers`` /
        ``sched_free_workers``).
        """
        def gauge(name: str) -> float:
            family = metrics.family(name)
            inst = family.get(())
            return inst.value if inst is not None else 0.0

        def counter(name: str) -> int:
            return int(metrics.counter_value(name))

        latency = metrics.family("sched_latency_ms").get(())
        return cls(
            now=round(now, 9),
            live_workers=int(gauge("sched_live_workers")),
            free_workers=int(gauge("sched_free_workers")),
            total_depth=int(gauge("sched_pending")),
            submitted=counter("sched_submitted"),
            completed=counter("sched_completed"),
            rejected=counter("sched_rejected"),
            failed=counter("sched_failed"),
            deadline_misses=counter("sched_deadline_misses"),
            worker_crashes=counter("cluster_crashes"),
            latency_p50_ms=(
                round(latency.percentile(0.5), 9) if latency else 0.0
            ),
            latency_p99_ms=(
                round(latency.percentile(0.99), 9) if latency else 0.0
            ),
        )

    # -- derived views -------------------------------------------------

    @property
    def backlog_per_worker(self) -> float:
        """Pending queries per live worker — the scale pressure signal."""
        return self.total_depth / max(1, self.live_workers)
