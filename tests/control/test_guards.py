"""Guard-rail invariants: every proposal vetted, every veto explained.

The rail must fail closed — anything it cannot vouch for is rejected
with a human-readable reason, never silently dropped or waved through.
"""

import pytest

from repro.control import GuardConfig, GuardRail, Proposal, ScaleWorkers
from repro.errors import ValidationError


class Mystery(Proposal):
    """A proposal kind the rail does not know."""

    kind = "mystery"


class TestGuardConfigValidation:
    def test_defaults_are_valid(self):
        GuardConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers_min": 0},
            {"workers_min": 4, "workers_max": 2},
            {"cooldown_s": -1.0},
            {"workers_min": -1},
            {"workers_max": 0},  # below the default workers_min
            {"workers_min": 9},  # above the default workers_max
            {"workers_min": 0, "workers_max": 0},
            {"cooldown_s": -1e-9},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            GuardConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers_min": 1, "workers_max": 1},
            {"workers_min": 8, "workers_max": 8},
            {"cooldown_s": 0.0},
        ],
    )
    def test_boundary_configs_accepted(self, kwargs):
        config = GuardConfig(**kwargs)
        for field, value in kwargs.items():
            assert getattr(config, field) == value


class TestScaleGuards:
    def test_in_range_scale_up_passes(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=1, workers_max=4))
        snap = make_snapshot(live_workers=2)
        assert rail.check(ScaleWorkers(delta=1, reason="r"), snap, 0.0) is None

    def test_above_workers_max_rejected(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=1, workers_max=4))
        snap = make_snapshot(live_workers=4)
        reason = rail.check(ScaleWorkers(delta=1, reason="r"), snap, 0.0)
        assert reason is not None and "workers_max" in reason

    def test_below_workers_min_rejected(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=2, workers_max=4))
        snap = make_snapshot(live_workers=2, free_workers=2)
        reason = rail.check(ScaleWorkers(delta=-1, reason="r"), snap, 0.0)
        assert reason is not None and "workers_min" in reason

    def test_zero_delta_rejected(self, make_snapshot):
        rail = GuardRail()
        reason = rail.check(
            ScaleWorkers(delta=0, reason="r"), make_snapshot(), 0.0
        )
        assert reason is not None

    def test_scale_down_never_exceeds_idle_workers(self, make_snapshot):
        # In-flight epoch safety: a busy worker is never torn down.
        rail = GuardRail(GuardConfig(workers_min=1, workers_max=8))
        snap = make_snapshot(live_workers=4, free_workers=1)
        reason = rail.check(ScaleWorkers(delta=-2, reason="r"), snap, 0.0)
        assert reason is not None and "epoch safety" in reason

    def test_scale_down_within_idle_passes(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=1, workers_max=8))
        snap = make_snapshot(live_workers=4, free_workers=2)
        assert rail.check(
            ScaleWorkers(delta=-2, reason="r"), snap, 0.0
        ) is None

    def test_scale_up_landing_on_workers_max_passes(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=1, workers_max=4))
        snap = make_snapshot(live_workers=2)
        assert rail.check(ScaleWorkers(delta=2, reason="r"), snap, 0.0) is None

    def test_scale_down_landing_on_workers_min_passes(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=2, workers_max=8))
        snap = make_snapshot(live_workers=4, free_workers=2)
        assert rail.check(
            ScaleWorkers(delta=-2, reason="r"), snap, 0.0
        ) is None

    def test_multi_step_overshoot_rejected(self, make_snapshot):
        """The bound applies to where the whole step lands, not to its
        first worker."""
        rail = GuardRail(GuardConfig(workers_min=1, workers_max=4))
        snap = make_snapshot(live_workers=2)
        reason = rail.check(ScaleWorkers(delta=3, reason="r"), snap, 0.0)
        assert reason == "target 5 above workers_max 4"

    def test_bounds_are_checked_before_head_room(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_min=2, workers_max=8))
        snap = make_snapshot(live_workers=2, free_workers=0)
        reason = rail.check(ScaleWorkers(delta=-1, reason="r"), snap, 0.0)
        assert reason == "target 1 below workers_min 2"


class TestCooldownAndFailClosed:
    def test_cooldown_blocks_within_window_only(self, make_snapshot):
        rail = GuardRail(GuardConfig(workers_max=8, cooldown_s=5.0))
        snap = make_snapshot(live_workers=2)
        up = ScaleWorkers(delta=1, reason="r")
        assert rail.check(up, snap, 10.0) is None
        rail.record_applied(up, 10.0)
        blocked = rail.check(up, snap, 12.0)
        assert blocked is not None and "cooldown" in blocked
        assert rail.check(up, snap, 15.0) is None

    def test_cooldown_is_per_kind(self, make_snapshot):
        rail = GuardRail(GuardConfig(cooldown_s=5.0))
        snap = make_snapshot(live_workers=2)
        rail.record_applied(Mystery(reason="r"), 0.0)
        # The scale kind is not gated by another kind's cooldown.
        assert rail.check(ScaleWorkers(delta=1, reason="r"), snap, 1.0) is None

    def test_check_alone_never_arms_the_cooldown(self, make_snapshot):
        """Only an applied actuation consumes the window: a vetted
        proposal the plant then refused may be retried at once."""
        rail = GuardRail(GuardConfig(cooldown_s=5.0))
        snap = make_snapshot(live_workers=2)
        up = ScaleWorkers(delta=1, reason="r")
        for now in (0.0, 0.1, 0.2):
            assert rail.check(up, snap, now) is None

    def test_cooldown_spans_both_directions(self, make_snapshot):
        """Scale-up and scale-down are one kind, so a shrink right after
        a growth waits out the window: the pool cannot flap."""
        rail = GuardRail(GuardConfig(cooldown_s=5.0))
        snap = make_snapshot(live_workers=3, free_workers=2)
        rail.record_applied(ScaleWorkers(delta=1, reason="r"), 0.0)
        down = ScaleWorkers(delta=-1, reason="r")
        assert rail.check(down, snap, 4.0) == (
            "cooldown: scale_workers applied at t=0.0, 5.0s window"
        )
        assert rail.check(down, snap, 5.0) is None

    def test_zero_cooldown_never_blocks(self, make_snapshot):
        rail = GuardRail(GuardConfig(cooldown_s=0.0))
        snap = make_snapshot(live_workers=2)
        up = ScaleWorkers(delta=1, reason="r")
        rail.record_applied(up, 1.0)
        assert rail.check(up, snap, 1.0) is None

    def test_unknown_proposal_kind_fails_closed(self, make_snapshot):
        rail = GuardRail()
        reason = rail.check(Mystery(reason="r"), make_snapshot(), 0.0)
        assert reason is not None and "mystery" in reason

