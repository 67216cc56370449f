"""Trace determinism and conservation by seq under the simulator.

The tracer follows the scheduler's explicit-clock discipline, so a
:class:`~repro.serve.loadgen.SimRunner` soak under a fixed seed must
export **byte-identical** traces across runs — both the JSONL and the
Chrome trace-event document.  A batch is traced once, naming its
queries by seq, so every admitted seq must end in exactly one place —
an ok batch, a ``fail`` / ``cancel`` instant or a ``dead_letter``
record — and one query's whole path can be read back from the JSONL.
"""

import json
from collections import Counter

from repro.obs.trace import Tracer, chrome_json
from repro.serve import (
    FaultPlan,
    ModelProfile,
    SimRunner,
    TenantSpec,
    generate_arrivals,
)

# Crashes, slow batches and one poison query; the spiky tenant's bursts
# overrun its queue's bound, so every way a query ends shows up.
FAULTS = FaultPlan(
    worker_crashes=(0.5, 1.5, 2.5), slow_every=5, slow_factor=3.0,
    poison_queries=(123,),
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
                   burst_size=30, deadline_ms=500.0, priority=1),
    ]
    return profiles, tenants


def soak_arrivals(seed: int = 7, queries: int = 600):
    return generate_arrivals(soak_setup()[1], seed=seed,
                             total_queries=queries)


def traced_soak(seed: int = 7, queries: int = 600):
    tracer = Tracer()
    runner = SimRunner(soak_setup()[0], workers=3, tracer=tracer)
    report = runner.run(soak_arrivals(seed, queries), FAULTS)
    return tracer, report


def endings(records):
    """seq -> the places it ended, from span records alone: the members
    of an ok batch that did not ``fail``, ``fail`` / ``cancel``
    instants, and the router's ``dead_letter`` records."""
    failed = {r["attrs"]["seq"] for r in records if r["name"] == "fail"}
    ended = {}
    for r in records:
        name, attrs = r["name"], r["attrs"]
        if name == "batch" and attrs.get("outcome") == "ok":
            done = [s for s in attrs["members"] if s not in failed]
            name = "completed"
        elif name in ("fail", "cancel"):
            done = [attrs["seq"]]
        elif name == "dead_letter":
            done = [attrs["fields"][2]]
        else:
            continue
        for seq in done:
            ended.setdefault(seq, []).append(name)
    return ended


def explain(jsonl: str, seq: int):
    """One query's path, read from the exported JSONL alone: its submit
    time, then in emission order each batch it rode (id, worker, cut,
    end, outcome) and each router record about it — parks, the
    bisections of a cohort it was in, its dead letter."""
    records = [json.loads(line) for line in jsonl.splitlines()]
    submitted, path = None, []
    rode, crashed_at = set(), set()
    for r in records:
        name, attrs, t = r["name"], r["attrs"], r["t0"]
        fields = attrs.get("fields")
        if name == "batch" and seq in attrs["members"]:
            submitted = attrs["submitted"][attrs["members"].index(seq)]
            path.append(("batch", attrs["batch_id"], r["track"], t,
                         r["t1"], attrs["outcome"]))
            rode.add(attrs["batch_id"])
            if attrs["outcome"] == "crash":
                crashed_at.add(r["t1"])
        elif name == "park" and fields[1] == seq:
            path.append(("park", fields[2], t))
        elif name == "bisect" and fields[0] in rode and t in crashed_at:
            path.append(("bisect", fields[0], t))
        elif name == "dead_letter" and fields[2] == seq:
            path.append(("dead_letter", fields[3], t))
        elif name in ("fail", "cancel") and attrs["seq"] == seq:
            path.append((name, t))
    return submitted, path


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
    """Conservation by seq: every submission ends in exactly one
    outcome, read from batch members, instants and router records."""

    def test_every_submission_ends_in_exactly_one_outcome(self):
        tracer, report = traced_soak()
        records = [span.as_record() for span in tracer.spans()]
        ended = endings(records)
        stats = report.stats
        admitted = stats.submitted - stats.rejected
        assert sorted(ended) == list(range(admitted))
        assert all(len(places) == 1 for places in ended.values()), {
            seq: places for seq, places in ended.items() if len(places) > 1
        }
        counts = Counter(places[0] for places in ended.values())
        assert counts == Counter(
            completed=stats.completed, fail=stats.failed,
            cancel=stats.cancelled, dead_letter=stats.dead_lettered,
        )
        rejects = [r for r in records if r["name"] == "reject"]
        assert len(rejects) == stats.rejected > 0
        assert stats.dead_lettered > 0 and stats.retries > 0

    def test_no_spans_left_open_after_drain(self):
        tracer, _ = traced_soak()
        assert tracer.open_spans == 0

    def test_batch_spans_link_member_queries(self):
        """A batch names its member queries by seq, with their submit
        times, and ends with its outcome and its deadline misses."""
        tracer, report = traced_soak()
        batches = [s for s in tracer.spans() if s.name == "batch"]
        assert len(batches) == report.stats.batches
        for batch in batches:
            attrs = batch.attrs
            assert attrs["outcome"] in ("ok", "crash")
            assert len(attrs["members"]) == len(attrs["submitted"]) == (
                attrs["size"]
            ) == sum(attrs["fills"]) > 0
            # A member's wait is the cut minus its submit time.
            t0 = batch.as_record()["t0"]
            assert all(t <= t0 for t in attrs["submitted"])
        misses = sum(
            b.attrs.get("deadline_misses", 0) for b in batches
        )
        assert misses == report.stats.deadline_misses > 0


class TestExplainOneQuery:
    """``repro explain`` in miniature: one seq's path from the JSONL."""

    def test_a_retried_query_that_completed(self):
        tracer, report = traced_soak()
        jsonl = tracer.to_jsonl()
        ended = endings([json.loads(line) for line in jsonl.splitlines()])
        parked = [d[2] for d in report.decisions if d[0] == "park"]
        seq = next(s for s in parked if ended[s] == ["completed"])
        submitted, path = explain(jsonl, seq)
        # The report's own records of this seq, in the same order.
        assert [step[1:] for step in path if step[0] == "park"] == [
            (d[3], d[-1]) for d in report.decisions
            if d[0] == "park" and d[2] == seq
        ]
        batches = [step for step in path if step[0] == "batch"]
        assigns = {
            d[1]: d for d in report.decisions if d[0] == "assign"
        }
        for _, batch_id, track, t0, _, _ in batches:
            assert track == f"worker:{assigns[batch_id][3]}"
            assert t0 == assigns[batch_id][-1]
        # Each crash it rode was answered by a park or a bisection of a
        # cohort it was in; the last batch answered it.
        assert path[-1] == batches[-1] and batches[-1][-1] == "ok"
        assert [b[-1] for b in batches[:-1]] == ["crash"] * (
            len(batches) - 1
        )
        after_crash = [step for step in path if step[0] != "batch"]
        assert [step[-1] for step in after_crash] == [
            b[4] for b in batches[:-1]
        ]
        tenant = next(
            t for t, seqs in report.packed_order.items() if seq in seqs
        )
        assert submitted in {
            round(a.time, 9) for a in soak_arrivals() if a.tenant == tenant
        }
        assert submitted <= batches[0][3]

    def test_a_dead_lettered_query(self):
        tracer, report = traced_soak()
        entry = report.dead_letters[0]
        submitted, path = explain(tracer.to_jsonl(), entry["seq"])
        assert path[-1] == (
            "dead_letter", entry["origin_batch"], entry["time"],
        )
        batches = [step for step in path if step[0] == "batch"]
        assert [b[-1] for b in batches] == ["crash"] * entry["attempts"]
        # Each crash it rode was answered by a park or a bisection of
        # its origin batch; the last by its dead letter.
        after_crash = [step for step in path if step[0] != "batch"]
        assert [step[-1] for step in after_crash] == [b[4] for b in batches]
        assert all(
            step[1] == entry["origin_batch"]
            for step in after_crash if step[0] == "bisect"
        )
        assert submitted in {
            round(a.time, 9) for a in soak_arrivals()
            if a.tenant == entry["tenant"]
        }


class TestChromeDocument:
    def test_export_covers_submit_to_resolve(self):
        tracer, report = traced_soak(queries=200)
        doc = json.loads(chrome_json(tracer.spans()))
        events = doc["traceEvents"]
        # Every span is one complete slice; the router's records too.
        spans = [e for e in events if e["ph"] != "M"]
        assert {e["ph"] for e in spans} == {"X"}
        assert len(spans) == len(tracer.spans())
        assert sum(e["cat"] == "router" for e in spans) == len(
            report.decisions
        )
        # Batches render as complete slices on worker tracks.
        slices = [
            e for e in events if e["ph"] == "X" and e["name"] == "batch"
        ]
        assert len(slices) == report.stats.batches
        for s in slices:
            assert s["dur"] >= 0
