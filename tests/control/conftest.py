"""Shared builders for the control-plane tests."""

import pytest

from repro.control import ControlSnapshot


def check_audit_grammar(controller):
    """Every applied actuation passed a guard; every veto has a reason."""
    preceding_pass = None
    for record in controller.decision_log:
        if record[0] == "guard" and record[3] == "passed":
            preceding_pass = (record[1], record[2])  # (tick, kind)
        elif record[0] == "applied":
            assert preceding_pass == (record[1], record[2]), (
                f"applied without a preceding guard pass: {record}"
            )
            preceding_pass = None
        elif record[0] == "guard" and record[3] == "rejected":
            assert isinstance(record[4], str) and record[4], (
                f"rejection without a reason: {record}"
            )
        elif record[0] == "apply_failed":
            assert isinstance(record[3], str) and record[3], (
                f"apply failure without a reason: {record}"
            )


@pytest.fixture
def audit_grammar():
    return check_audit_grammar


@pytest.fixture
def make_snapshot():
    """Build a ControlSnapshot with only the interesting fields set."""

    def build(
        now=0.0,
        live_workers=2,
        free_workers=1,
        total_depth=0,
        submitted=0,
        completed=0,
        rejected=0,
        failed=0,
        deadline_misses=0,
        worker_crashes=0,
        latency_p50_ms=0.0,
        latency_p99_ms=0.0,
    ):
        return ControlSnapshot(
            now=now,
            live_workers=live_workers,
            free_workers=free_workers,
            total_depth=total_depth,
            submitted=submitted,
            completed=completed,
            rejected=rejected,
            failed=failed,
            deadline_misses=deadline_misses,
            worker_crashes=worker_crashes,
            latency_p50_ms=latency_p50_ms,
            latency_p99_ms=latency_p99_ms,
        )

    return build

