"""The load generator's public refusals.

A spec the generator or the simulator cannot honour is refused where it
is built, as a :class:`~repro.errors.ValidationError` — never as a loop
that does not end, a silently lost query, or a raw ``KeyError`` /
``ZeroDivisionError`` from deep inside a call.  Each case builds the
bad input and stops: none generates or simulates from it.
"""

import math

import pytest

from repro.errors import ValidationError
from repro.serve import (
    FaultPlan,
    ModelProfile,
    TenantSpec,
    generate_arrivals,
    offered_load,
)

TENANT = TenantSpec(name="a", model="m", rate_qps=10.0)
PROFILE = ModelProfile(name="m", capacity=4, service_ms=5.0)


class TestTenantSpec:
    def test_a_negative_burst_is_refused(self):
        # generate_arrivals(total_queries=3) would spin forever on it
        with pytest.raises(ValidationError, match="burst_size > 0"):
            TenantSpec("a", "m", burst_every_s=1.0, burst_size=-1)

    @pytest.mark.parametrize("every", [0.0, -1.0, math.nan])
    def test_a_burst_needs_a_positive_period(self, every):
        # -1.0 with duration_s=1.0 would append arrivals without bound
        with pytest.raises(ValidationError, match="burst_every_s"):
            TenantSpec("a", "m", burst_every_s=every, burst_size=2)

    def test_a_burst_without_a_period_is_still_refused(self):
        with pytest.raises(ValidationError, match="burst_every_s"):
            TenantSpec("a", "m", rate_qps=1.0, burst_size=2)

    @pytest.mark.parametrize("field, value", [
        # NaN would time arrivals at NaN, inf would never return
        ("rate_qps", math.nan), ("rate_qps", math.inf),
        ("rate_qps", -1.0),
        # a deadline already past, or one that would fail mid-run
        ("deadline_ms", -5.0), ("deadline_ms", 0.0),
        ("deadline_ms", math.nan), ("deadline_ms", math.inf),
    ])
    def test_a_rate_and_a_deadline_must_be_finite(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TenantSpec("a", "m", **{"rate_qps": 1.0, field: value})


class TestModelProfile:
    # NaN would fail mid-run rewinding the clock, inf would report an
    # infinite duration
    @pytest.mark.parametrize("service_ms", [math.nan, math.inf, 0.0, -2.0])
    def test_a_service_time_must_be_finite_and_positive(self, service_ms):
        with pytest.raises(ValidationError, match="service_ms"):
            ModelProfile(name="m", capacity=4, service_ms=service_ms)


class TestFaultPlan:
    @pytest.mark.parametrize("field", ["worker_crashes", "worker_hangs"])
    @pytest.mark.parametrize("at", [math.nan, -0.5, math.inf])
    def test_a_fault_time_must_be_finite_and_not_negative(self, field, at):
        with pytest.raises(ValidationError, match=field):
            FaultPlan(**{field: (0.25, at)})

    @pytest.mark.parametrize("field", [
        "slow_every", "corrupt_ship_every", "corrupt_completion_every",
        "drop_completion_every", "duplicate_completion_every",
    ])
    @pytest.mark.parametrize("every", [-1, -2, 2.5])
    def test_a_count_is_a_whole_number_not_below_zero(self, field, every):
        # n % -2 == 0 would fire the fault on every 2nd event
        with pytest.raises(ValidationError, match=field):
            FaultPlan(**{field: every})

    @pytest.mark.parametrize("poison", [(-1,), ((3, -1),)])
    def test_a_poison_query_names_no_negative(self, poison):
        with pytest.raises(ValidationError, match="poison_queries"):
            FaultPlan(poison_queries=poison)


class TestArrivalsAndLoad:
    @pytest.mark.parametrize("total", [0, -3])
    def test_total_queries_must_be_at_least_one(self, total):
        with pytest.raises(ValidationError, match="total_queries"):
            generate_arrivals([TENANT], seed=1, total_queries=total)

    def test_total_queries_one_is_one_arrival(self):
        assert len(generate_arrivals([TENANT], seed=1, total_queries=1)) == 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_offered_load_needs_a_thread(self, threads):
        with pytest.raises(ValidationError, match="threads"):
            offered_load([TENANT], [PROFILE], threads=threads)

    def test_a_tenant_of_an_unprofiled_model_is_named(self):
        stray = TenantSpec(name="b", model="ghost", rate_qps=1.0)
        with pytest.raises(ValidationError, match="'ghost'.*no profile"):
            offered_load([TENANT, stray], [PROFILE], threads=2)

    def test_offered_load_is_rho(self):
        # 10 qps / 4 per batch * 5 ms = 0.0125 s of work per second
        assert offered_load([TENANT], [PROFILE], threads=2) == (
            pytest.approx(0.0125 / 2)
        )
