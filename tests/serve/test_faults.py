"""Unit tests for the pure fault-domain policy objects.

Everything in :mod:`repro.serve.faults` must be a deterministic
function of its inputs — the decision-core discipline — because the
chaos soaks assert byte-identical replays, and any live randomness or
clock here would break them.  These tests pin that purity down
directly: backoff with seeded jitter, the breaker state machine
(including the probe-release healing path), dead-letter bounding, and
the degradation ladder.
"""

import pytest

from repro.errors import ValidationError
from repro.serve.cluster import RouterCore
from repro.serve.faults import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    ENGINE_LADDER,
    CircuitBreaker,
    DeadLetter,
    DeadLetterQueue,
    RetryPolicy,
    degrade_engine,
)
from repro.serve.simclock import RealClock
from repro.serve.transport import ProcessTransport


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        for attempt in range(1, 6):
            assert a.backoff_s(attempt, key="m:7") == (
                b.backoff_s(attempt, key="m:7")
            )

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy()
        for attempt in range(1, 6):
            delay = policy.backoff_s(attempt, key="q")
            base = min(0.025 * 2.0 ** (attempt - 1), 1.0)
            assert base <= delay <= base * 1.25

    def test_backoff_caps_at_max_delay(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.backoff_s(30) == pytest.approx(1.0)

    def test_jitter_varies_by_key_seed_and_attempt(self):
        policy = RetryPolicy()
        assert policy.backoff_s(1, key="a") != policy.backoff_s(
            1, key="b"
        )
        assert policy.backoff_s(1, key="a") != RetryPolicy(
            seed=1
        ).backoff_s(1, key="a")

    def test_immediate_policy_never_waits(self):
        policy = RetryPolicy.immediate()
        assert policy.backoff_s(1) == 0.0
        assert policy.backoff_s(9, key="x") == 0.0

    def test_hedging_disabled_by_default(self):
        assert RetryPolicy().hedging_enabled is False
        assert RetryPolicy(hedge_factor=3.0).hedging_enabled is True

    def test_hedge_after_respects_floor(self):
        policy = RetryPolicy(hedge_factor=2.0, hedge_min_ms=50.0)
        assert policy.hedge_after_s(0.0) == pytest.approx(0.050)
        assert policy.hedge_after_s(1.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValidationError, match="base_delay_ms"):
            RetryPolicy(base_delay_ms=-1.0)
        with pytest.raises(ValidationError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValidationError, match="max_delay_ms"):
            RetryPolicy(base_delay_ms=10.0, max_delay_ms=5.0)
        with pytest.raises(ValidationError, match="jitter"):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValidationError, match="hedge_factor"):
            RetryPolicy(hedge_factor=-1.0)
        with pytest.raises(ValidationError, match="attempt"):
            RetryPolicy().backoff_s(0)


class TestCircuitBreaker:
    KEY = ("m", 0)

    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, open_s=2.0)
        assert breaker.allow(self.KEY, 0.0) == (True, None)
        breaker.record_failure(self.KEY, 0.0)
        breaker.record_failure(self.KEY, 0.1)
        assert breaker.state(self.KEY) == BREAKER_CLOSED
        assert breaker.record_failure(self.KEY, 0.2) == BREAKER_OPEN
        assert breaker.allow(self.KEY, 0.3) == (False, None)
        assert breaker.next_transition_time() == pytest.approx(2.2)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(self.KEY, 0.0)
        breaker.record_success(self.KEY, 0.1)
        assert breaker.record_failure(self.KEY, 0.2) is None
        assert breaker.state(self.KEY) == BREAKER_CLOSED

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, open_s=1.0)
        breaker.record_failure(self.KEY, 0.0)
        assert breaker.allow(self.KEY, 0.5) == (False, None)
        # The first allow() past open_s takes the single probe slot.
        assert breaker.allow(self.KEY, 1.5) == (True, BREAKER_HALF_OPEN)
        assert breaker.allow(self.KEY, 1.6) == (False, None)
        assert breaker.record_success(self.KEY, 1.7) == BREAKER_CLOSED
        assert breaker.allow(self.KEY, 1.8) == (True, None)

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, open_s=1.0)
        breaker.record_failure(self.KEY, 0.0)
        assert breaker.allow(self.KEY, 1.5)[0] is True
        assert breaker.record_failure(self.KEY, 1.6) == BREAKER_OPEN
        assert breaker.allow(self.KEY, 1.7) == (False, None)
        # The re-open restarts the open_s window from the probe failure.
        assert breaker.next_transition_time() == pytest.approx(2.6)

    def test_release_probe_reopens_the_slot(self):
        # A probe taken by a placement that never actually assigned
        # (the cut was cancelled) must be releasable, or the key can
        # never heal.
        breaker = CircuitBreaker(failure_threshold=1, open_s=1.0)
        breaker.record_failure(self.KEY, 0.0)
        assert breaker.allow(self.KEY, 1.5)[0] is True
        assert breaker.allow(self.KEY, 1.6) == (False, None)
        breaker.release_probe(self.KEY)
        assert breaker.allow(self.KEY, 1.7) == (True, None)

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(("m", 0), 0.0)
        assert breaker.allow(("m", 0), 0.1) == (False, None)
        assert breaker.allow(("m", 1), 0.1) == (True, None)
        assert breaker.allow(("other", 0), 0.1) == (True, None)

    def test_validation(self):
        with pytest.raises(ValidationError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValidationError, match="open_s"):
            CircuitBreaker(open_s=0.0)


def letter(seq, **kwargs):
    fields = dict(model="m", tenant="t", seq=seq, origin_batch=1,
                  attempts=3, reason="poison", time=0.5)
    fields.update(kwargs)
    return DeadLetter(**fields)


class TestDeadLetterQueue:
    def test_bounded_fifo_counts_drops(self):
        dlq = DeadLetterQueue(limit=2)
        for seq in range(3):
            dlq.append(letter(seq))
        assert len(dlq) == 2
        assert [e.seq for e in dlq.entries()] == [1, 2]
        assert dlq.dropped == 1 and dlq.total == 3

    def test_as_dicts_round_trip(self):
        dlq = DeadLetterQueue()
        dlq.append(letter(7))
        (entry,) = dlq.as_dicts()
        assert entry == {
            "model": "m", "tenant": "t", "seq": 7, "origin_batch": 1,
            "attempts": 3, "reason": "poison", "time": 0.5,
        }

    def test_limit_validation(self):
        with pytest.raises(ValidationError, match="limit"):
            DeadLetterQueue(limit=0)


ILL_TYPED = [
    ("heartbeat_timeout_s",
     lambda: RouterCore(workers=1, heartbeat_timeout_s="60")),
    ("dlq_limit", lambda: RouterCore(workers=1, dlq_limit="64")),
    ("base_delay_ms", lambda: RetryPolicy(base_delay_ms="25")),
    ("max_delay_ms", lambda: RetryPolicy(max_delay_ms=None)),
    ("open_s", lambda: CircuitBreaker(open_s="1")),
    ("failure_threshold", lambda: CircuitBreaker(failure_threshold="3")),
    ("heartbeat_interval_s",
     lambda: ProcessTransport(False, RealClock(), "5")),
]


@pytest.mark.parametrize("argument, build", ILL_TYPED,
                         ids=[argument for argument, _ in ILL_TYPED])
def test_ill_typed_liveness_and_fault_values_are_typed_refusals(
    argument, build
):
    """Each raised a raw ``TypeError`` from its first comparison."""
    with pytest.raises(ValidationError, match=argument):
        build()


class TestDegradationLadders:
    def test_engine_ladder_walks_to_eager(self):
        chain = []
        engine = ENGINE_LADDER[0]
        while engine is not None:
            chain.append(engine)
            engine = degrade_engine(engine)
        assert chain == ["megakernel", "tape", "plan", "eager"]

    def test_unknown_rungs_have_no_fallback(self):
        assert degrade_engine("warp-drive") is None
