"""Trace determinism and span conservation under the simulator.

The tracer follows the scheduler's explicit-clock discipline, so a
:class:`~repro.serve.loadgen.SimRunner` soak under a fixed seed must
export **byte-identical** traces across runs — both the JSONL and the
Chrome trace-event document.  And every submitted query must leave
exactly one root ``query`` span ending in a terminal outcome: the
span-level mirror of the scheduler's conservation invariant.
"""

import json

from repro.obs.trace import QUERY_OUTCOMES, Tracer, chrome_json
from repro.serve import (
    FaultPlan,
    ModelProfile,
    SimRunner,
    TenantSpec,
    generate_arrivals,
)

FAULTS = FaultPlan(
    worker_crashes=(0.5, 1.5, 2.5), slow_every=5, slow_factor=3.0
)


def soak_setup():
    profiles = [
        ModelProfile(name="credit", capacity=4, service_ms=60.0,
                     max_pending=24),
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


def traced_soak(seed: int = 7, queries: int = 600):
    profiles, tenants = soak_setup()
    arrivals = generate_arrivals(tenants, seed=seed,
                                 total_queries=queries)
    tracer = Tracer()
    runner = SimRunner(profiles, workers=3, tracer=tracer)
    report = runner.run(arrivals, FAULTS)
    return tracer, report


class TestByteIdenticalExports:
    def test_jsonl_identical_across_same_seed_runs(self):
        first, _ = traced_soak()
        second, _ = traced_soak()
        a, b = first.to_jsonl(), second.to_jsonl()
        assert a.encode() == b.encode()
        assert a  # the soak actually traced something

    def test_chrome_identical_across_same_seed_runs(self):
        first, _ = traced_soak()
        second, _ = traced_soak()
        assert chrome_json(first.spans()).encode() == chrome_json(
            second.spans()
        ).encode()

    def test_different_seeds_diverge(self):
        first, _ = traced_soak(seed=7)
        second, _ = traced_soak(seed=8)
        assert first.to_jsonl() != second.to_jsonl()


class TestProfilerClockDeterminism:
    """The profiler half of the byte-identity contract.

    ``TapeProfiler`` reads its ``clock=`` and nothing else, so a
    profile of a run driven by a
    :class:`~repro.serve.simclock.VirtualClock` carries no
    nondeterministic wall time: the same execution is byte-identical
    across runs.
    """

    @staticmethod
    def profiled_run(clock):
        import numpy as np

        from repro.core.compiler import CopseCompiler
        from repro.fhe.context import FheContext
        from repro.forest.synthetic import random_forest
        from repro.ir.plan import bind_model_query
        from repro.obs.profiler import TapeProfiler
        from repro.serve.batched_runtime import encrypt_batch
        from repro.serve.registry import ModelRegistry

        forest = random_forest(
            np.random.default_rng(7), branches_per_tree=[7, 8],
            max_depth=5,
        )
        compiled = CopseCompiler(precision=8).compile(forest)
        registered = ModelRegistry().register(
            "prof-det", compiled, engine="tape", backend="vector"
        )
        tape = registered.tape
        ctx = FheContext(registered.params, backend=registered.backend)
        rng = np.random.default_rng(3)
        queries = [
            [int(v) for v in rng.integers(0, 256, compiled.n_features)]
            for _ in range(registered.layout.capacity)
        ]
        query = encrypt_batch(
            ctx, registered.layout, queries, registered.keys
        )
        bindings = bind_model_query(
            ctx,
            tape.input_widths,
            tape.encrypted_model,
            tape.model_fingerprint,
            registered.batched_model,
            query,
        )
        profiler = TapeProfiler(clock=clock)
        tape.execute(ctx, bindings, profiler=profiler)
        return profiler

    def test_virtual_clock_profile_byte_identical(self):
        from repro.serve import VirtualClock

        first = self.profiled_run(VirtualClock())
        second = self.profiled_run(VirtualClock())
        a = json.dumps(first.as_dict(), sort_keys=True)
        b = json.dumps(second.as_dict(), sort_keys=True)
        assert a.encode() == b.encode()
        assert first.samples, "the profiled run recorded nothing"
        # Virtual time never advanced: zero wall, real op counts.
        assert first.total_wall_s == 0.0
        assert first.op_totals()

    def test_clock_is_the_one_time_source(self):
        from repro.obs.profiler import TapeProfiler
        from repro.serve import RealClock, VirtualClock

        clock = VirtualClock()
        assert TapeProfiler(clock=clock).clock is clock
        # No clock means real wall time.
        assert isinstance(TapeProfiler().clock, RealClock)


class TestSpanConservation:
    def test_every_submission_ends_in_exactly_one_outcome(self):
        tracer, report = traced_soak()
        roots = [s for s in tracer.spans() if s.name == "query"]
        assert len(roots) == report.stats.submitted
        by_outcome = {outcome: 0 for outcome in QUERY_OUTCOMES}
        for span in roots:
            assert span.end is not None, f"span {span.span_id} never ended"
            outcome = span.attrs.get("outcome")
            assert outcome in QUERY_OUTCOMES, (
                f"span {span.span_id} ended with outcome {outcome!r}"
            )
            by_outcome[outcome] += 1
        stats = report.stats
        assert by_outcome["completed"] == stats.completed
        assert by_outcome["rejected"] == stats.rejected
        assert by_outcome["failed"] == stats.failed
        assert by_outcome["cancelled"] == stats.cancelled
        assert sum(by_outcome.values()) == stats.submitted

    def test_no_spans_left_open_after_drain(self):
        tracer, _ = traced_soak()
        assert tracer.open_spans == 0

    def test_batch_spans_link_member_queries(self):
        tracer, report = traced_soak()
        spans = tracer.spans()
        roots = {s.span_id for s in spans if s.name == "query"}
        batches = [s for s in spans if s.name == "batch"]
        assert len(batches) == report.stats.batches
        for batch in batches:
            members = batch.attrs.get("members")
            assert members, f"batch span {batch.span_id} has no members"
            assert set(members) <= roots

    def test_queue_wait_nests_inside_its_query(self):
        tracer, _ = traced_soak(queries=200)
        spans = {s.span_id: s for s in tracer.spans()}
        waits = [s for s in spans.values() if s.name == "queue_wait"]
        assert waits
        for wait in waits:
            parent = spans[wait.parent]
            assert parent.name == "query"
            assert parent.start <= wait.start
            assert wait.end <= parent.end


class TestChromeDocument:
    def test_export_covers_submit_to_resolve(self):
        tracer, report = traced_soak(queries=200)
        doc = json.loads(chrome_json(tracer.spans()))
        events = doc["traceEvents"]
        # Every root query span appears as one async begin/end pair.
        begins = [
            e for e in events if e["ph"] == "b" and e["name"] == "query"
        ]
        ends = [
            e for e in events if e["ph"] == "e" and e["name"] == "query"
        ]
        assert len(begins) == len(ends) == report.stats.submitted
        assert {e["id"] for e in begins} == {e["id"] for e in ends}
        # Batches render as complete slices on worker tracks.
        slices = [
            e for e in events if e["ph"] == "X" and e["name"] == "batch"
        ]
        assert len(slices) == report.stats.batches
        for s in slices:
            assert s["dur"] >= 0
