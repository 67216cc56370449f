"""Tests for the span tracer and its deterministic exporters."""

import json

import pytest

from repro.errors import ValidationError
from repro.obs.trace import Tracer, chrome_json, export_chrome, export_jsonl


class TestTracer:
    def test_span_ids_count_from_one(self):
        tracer = Tracer()
        assert tracer.begin("a", now=0.0) == 1
        assert tracer.begin("b", now=0.0) == 2
        assert tracer.event("c", now=0.0) == 3

    def test_begin_end_records_interval(self):
        tracer = Tracer()
        sid = tracer.begin("batch", now=1.0, track="worker:0", members=[4])
        tracer.end(sid, now=3.5, outcome="ok")
        (span,) = tracer.spans()
        assert span.name == "batch"
        assert span.track == "worker:0"
        assert (span.start, span.end, span.duration) == (1.0, 3.5, 2.5)
        assert span.attrs == {"members": [4], "outcome": "ok"}

    def test_event_is_instant(self):
        tracer = Tracer()
        tracer.event("reject", now=2.0, parent=7)
        (span,) = tracer.spans()
        assert span.duration == 0.0
        assert span.parent == 7

    def test_unknown_end_is_ignored(self):
        tracer = Tracer()
        tracer.end(99, now=1.0)  # must not raise
        sid = tracer.begin("a", now=0.0)
        tracer.end(sid, now=1.0)
        tracer.end(sid, now=2.0)  # double end: second ignored
        (span,) = tracer.spans()
        assert span.end == 1.0

    def test_open_spans_excluded_by_default(self):
        tracer = Tracer()
        tracer.begin("open", now=0.0)
        done = tracer.begin("done", now=0.0)
        tracer.end(done, now=1.0)
        assert [s.name for s in tracer.spans()] == ["done"]
        assert [s.name for s in tracer.spans(include_open=True)] == [
            "open", "done",
        ]
        assert tracer.open_spans == 1

    def test_ring_bound_drops_oldest(self):
        tracer = Tracer(max_spans=2)
        for k in range(4):
            tracer.event(f"e{k}", now=float(k))
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans()] == ["e2", "e3"]

    def test_max_spans_validated(self):
        with pytest.raises(ValidationError):
            Tracer(max_spans=0)


def _sample_tracer() -> Tracer:
    """The serve path's shape: a router decision, a batch naming its
    query by seq, a stage span under it, and a refusal."""
    tracer = Tracer()
    tracer.event("assign", now=0.002, track="router", fields=(1, "m", 0))
    b = tracer.begin("batch", now=0.002, track="worker:0", members=[0],
                     submitted=[0.001])
    s = tracer.begin("pack", now=0.002, parent=b, track="worker:0")
    tracer.end(s, now=0.003)
    tracer.end(b, now=0.005, outcome="ok")
    tracer.event("reject", now=0.006, track="tenant:acme", queue="m")
    return tracer


class TestJsonlExport:
    def test_one_record_per_span_in_id_order(self):
        text = _sample_tracer().to_jsonl()
        records = [json.loads(line) for line in text.splitlines()]
        assert [r["span"] for r in records] == [1, 2, 3, 4]
        assert text.endswith("\n")

    def test_records_are_deterministic(self):
        assert _sample_tracer().to_jsonl() == _sample_tracer().to_jsonl()

    def test_record_shape(self):
        record = json.loads(_sample_tracer().to_jsonl().splitlines()[1])
        assert record == {
            "span": 2,
            "parent": None,
            "name": "batch",
            "track": "worker:0",
            "t0": 0.002,
            "t1": 0.005,
            "attrs": {"members": [0], "outcome": "ok", "submitted": [0.001]},
        }

    def test_keys_sorted_within_record(self):
        line = _sample_tracer().to_jsonl().splitlines()[0]
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_empty_exports_empty(self):
        assert export_jsonl([]) == ""


class TestChromeExport:
    def test_document_shape(self):
        doc = _sample_tracer().to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_metadata_names_process_and_tracks(self):
        doc = _sample_tracer().to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names["process_name"] == "repro.serve"
        tracks = [
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        ]
        assert tracks == ["router", "worker:0", "tenant:acme"]

    def test_instants_export_as_zero_length_slices(self):
        doc = _sample_tracer().to_chrome()
        instants = [
            e for e in doc["traceEvents"]
            if e.get("name") in ("assign", "reject")
        ]
        assert [(e["ph"], e["dur"], e["cat"]) for e in instants] == [
            ("X", 0.0, "router"), ("X", 0.0, "tenant"),
        ]
        # Timestamps are microseconds of the span's second-valued clock.
        assert [e["ts"] for e in instants] == [2000.0, 6000.0]
        assert instants[0]["args"]["fields"] == (1, "m", 0)

    def test_worker_tracks_export_complete_events(self):
        doc = _sample_tracer().to_chrome()
        (batch,) = [
            e for e in doc["traceEvents"] if e.get("name") == "batch"
        ]
        assert batch["ph"] == "X"
        assert batch["ts"] == 2000.0
        assert batch["dur"] == 3000.0
        assert batch["cat"] == "worker"
        assert batch["args"]["members"] == [0]
        assert batch["args"]["span"] == 2

    def test_parent_links_survive_in_args(self):
        doc = _sample_tracer().to_chrome()
        (pack,) = [
            e for e in doc["traceEvents"] if e.get("name") == "pack"
        ]
        assert pack["args"]["parent"] == 2

    def test_chrome_json_is_deterministic_and_loadable(self):
        a = chrome_json(_sample_tracer().spans())
        b = chrome_json(_sample_tracer().spans())
        assert a == b
        assert a.endswith("\n")
        doc = json.loads(a)
        assert doc["traceEvents"]

    def test_empty_trace_still_valid(self):
        doc = export_chrome([])
        assert doc["traceEvents"][0]["name"] == "process_name"
        json.dumps(doc)


def test_traced_batch_emits_its_stage_spans(example_forest):
    """A real batch through ``QueryBatcher`` with a tracer and a clock
    closes exactly the four stage spans, in pipeline order, each with
    the attributes it ends with; an untraced batcher emits none."""
    from repro.serve.batcher import CutBatch, QueryBatcher
    from repro.serve.registry import ModelRegistry
    from repro.serve.simclock import VirtualClock

    registered = ModelRegistry().register(
        "m", example_forest, max_batch_size=4
    )
    features = [[40, 200], [0, 255], [130, 7]]

    def run(tracer, clock):
        batcher = QueryBatcher(registered, tracer=tracer, clock=clock)
        batch = CutBatch(
            batch_id=5, entries=[batcher.prepare(f) for f in features]
        )
        batcher.evaluate(batch)
        return [e.future.result(timeout=0).bitvector for e in batch.entries]

    tracer = Tracer()
    traced_bits = run(tracer, VirtualClock())
    spans = tracer.spans()
    assert [s.name for s in spans] == ["pack", "execute", "demux", "resolve"]
    assert tracer.open_spans == 0
    assert all(
        s.track == "batcher" and s.attrs["batch_id"] == 5 for s in spans
    )
    assert spans[0].attrs["size"] == 3
    assert spans[1].attrs["engine"] == registered.engine
    assert spans[3].attrs["oracle_failures"] == 0

    idle = Tracer()
    assert run(idle, None) == traced_bits  # no clock: tracing is off
    assert idle.spans() == []
