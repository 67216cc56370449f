"""Policy behavior: hysteresis and windowed signals.

A policy is a pure function of the snapshot sequence it has seen — each
test drives the autoscaler with hand-built snapshots and checks exactly
when (and what) it proposes.
"""

import pytest

from repro.control import AutoscalePolicy, ScaleWorkers
from repro.errors import ValidationError


class TestAutoscalePolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AutoscalePolicy(slo_p99_ms=0)
        with pytest.raises(ValidationError):
            AutoscalePolicy(backlog_high=1.0, backlog_low=2.0)
        with pytest.raises(ValidationError):
            AutoscalePolicy(sustain_up=0)
        with pytest.raises(ValidationError):
            AutoscalePolicy(step=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo_p99_ms": -5.0},
            {"backlog_high": 2.0, "backlog_low": 2.0},  # no dead band
            {"sustain_down": 0},
            {"step": -1},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            AutoscalePolicy(**kwargs)

    def test_step_sets_both_deltas(self, make_snapshot):
        policy = AutoscalePolicy(sustain_up=1, sustain_down=1, step=3)
        up = policy.propose(make_snapshot(live_workers=1, total_depth=9))
        down = policy.propose(
            make_snapshot(live_workers=6, free_workers=5)
        )
        assert [p.delta for p in up + down] == [3, -3]

    def test_backlog_high_is_inclusive(self, make_snapshot):
        policy = AutoscalePolicy(backlog_high=4.0, sustain_up=1)
        at = make_snapshot(live_workers=2, total_depth=8)
        assert [p.delta for p in policy.propose(at)] == [1]
        below = make_snapshot(live_workers=2, total_depth=7)
        assert policy.propose(below) == []

    def test_middle_band_resets_both_streaks(self, make_snapshot):
        """Backlog between the thresholds is neither pressure: it breaks
        an up streak and a down streak alike."""
        policy = AutoscalePolicy(
            backlog_high=4.0, backlog_low=0.5,
            sustain_up=2, sustain_down=2,
        )
        hot = make_snapshot(live_workers=2, total_depth=10)
        idle = make_snapshot(live_workers=2, free_workers=1)
        middle = make_snapshot(live_workers=2, total_depth=4)
        for streak in (hot, idle):
            assert policy.propose(streak) == []
            assert policy.propose(middle) == []
            assert policy.propose(streak) == []

    def test_fresh_misses_veto_scale_down(self, make_snapshot):
        """An empty queue with deadlines still being missed is not
        spare capacity."""
        policy = AutoscalePolicy(sustain_down=2)
        quiet = make_snapshot(live_workers=3, free_workers=2,
                              deadline_misses=1)
        missing = make_snapshot(live_workers=3, free_workers=2,
                                deadline_misses=2)
        assert policy.propose(quiet) == []  # first tick: no window
        assert policy.propose(missing) == []  # a miss: streak broken
        assert policy.propose(missing) == []  # streak restarts at one
        assert [p.delta for p in policy.propose(missing)] == [-1]

    def test_without_an_slo_latency_never_scales_up(self, make_snapshot):
        policy = AutoscalePolicy(sustain_up=1)
        for misses in (0, 5, 10):
            slow = make_snapshot(live_workers=2, free_workers=0,
                                 latency_p99_ms=1e6,
                                 deadline_misses=misses)
            assert policy.propose(slow) == []

    def test_same_snapshots_same_proposals(self, make_snapshot):
        """The determinism contract: two policies fed the same sequence
        propose the same things, reasons included."""
        sequence = [
            make_snapshot(live_workers=2, total_depth=depth,
                          free_workers=free, latency_p99_ms=p99,
                          deadline_misses=misses)
            for depth, free, p99, misses in [
                (10, 0, 50.0, 0), (12, 0, 150.0, 2), (9, 0, 150.0, 4),
                (10, 0, 150.0, 5), (0, 1, 150.0, 5), (0, 2, 150.0, 5),
                (0, 2, 150.0, 5), (0, 2, 150.0, 5),
            ]
        ]
        runs = []
        for _ in range(2):
            policy = AutoscalePolicy(slo_p99_ms=100.0)
            runs.append([
                (p.kind, p.delta, p.reason)
                for snapshot in sequence
                for p in policy.propose(snapshot)
            ])
        assert runs[0] == runs[1]
        assert [delta for _, delta, _ in runs[0]] == [1, 1, -1]

    def test_backlog_scale_up_needs_sustain(self, make_snapshot):
        policy = AutoscalePolicy(backlog_high=4.0, sustain_up=2)
        hot = make_snapshot(live_workers=2, total_depth=10)
        assert policy.propose(hot) == []  # one tick is noise
        proposals = policy.propose(hot)  # second consecutive tick fires
        assert len(proposals) == 1
        assert isinstance(proposals[0], ScaleWorkers)
        assert proposals[0].delta == 1
        assert "backlog" in proposals[0].reason
        # The counter reset after proposing: no double-fire.
        assert policy.propose(hot) == []

    def test_noisy_tick_resets_sustain(self, make_snapshot):
        policy = AutoscalePolicy(backlog_high=4.0, sustain_up=2)
        hot = make_snapshot(live_workers=2, total_depth=10)
        calm = make_snapshot(live_workers=2, total_depth=2)
        assert policy.propose(hot) == []
        assert policy.propose(calm) == []
        assert policy.propose(hot) == []  # streak restarted

    def test_slo_gate_is_windowed_by_fresh_misses(self, make_snapshot):
        """Cumulative p99 above the SLO only counts while misses accrue.

        After a burst the latency histogram keeps its historical tail
        forever; without fresh deadline misses that must read as
        healthy, not as chronic overload."""
        policy = AutoscalePolicy(slo_p99_ms=100.0, sustain_up=1)
        burst = make_snapshot(
            live_workers=2, latency_p99_ms=250.0, deadline_misses=5,
        )
        after = make_snapshot(
            live_workers=2, latency_p99_ms=250.0, deadline_misses=9,
        )
        calm = make_snapshot(
            live_workers=2, latency_p99_ms=250.0, deadline_misses=9,
        )
        assert policy.propose(burst) == []  # first tick has no window
        up = policy.propose(after)  # misses accrued: live overload
        assert len(up) == 1 and up[0].delta == 1
        assert "slo" in up[0].reason
        # Same elevated p99, but no new misses: not overload anymore.
        assert policy.propose(calm) == []

    def test_scale_down_needs_idle_and_quiet(self, make_snapshot):
        policy = AutoscalePolicy(
            backlog_low=0.5, sustain_down=2, slo_p99_ms=100.0,
        )
        idle = make_snapshot(
            live_workers=3, free_workers=2, latency_p99_ms=250.0,
            deadline_misses=7,
        )
        assert policy.propose(idle) == []
        down = policy.propose(idle)
        assert len(down) == 1 and down[0].delta == -1
        # No idle head-room: never propose a scale-down.
        busy = make_snapshot(
            live_workers=3, free_workers=0, deadline_misses=7,
        )
        assert policy.propose(busy) == []
        assert policy.propose(busy) == []

