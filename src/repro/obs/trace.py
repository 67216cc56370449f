"""Span tracing with explicit clocks and deterministic exporters.

A :class:`Tracer` records *spans* — named intervals with a parent link,
a track (the visual lane an exporter renders them on), and a small
attribute dict.  Two properties make it fit this codebase:

* **Explicit timestamps.**  Every ``begin``/``end``/``event`` call takes
  ``now`` (seconds, from the caller's
  :class:`~repro.serve.simclock.Clock`) instead of reading a clock
  itself.  The scheduler core already threads explicit time through
  every decision; the tracer follows the same discipline, so a
  :class:`~repro.serve.simclock.VirtualClock` run produces
  byte-identical traces per seed — the determinism lock in
  ``tests/obs/test_trace_determinism.py`` compares exported JSONL
  byte-for-byte across runs.
* **Bounded memory.**  Finished spans live in a ring (``max_spans``);
  overflow drops the oldest finished span and counts it in
  :attr:`Tracer.dropped`, so a long-lived traced service degrades to a
  tail window instead of growing without bound.

What the serve path records (see ``repro.serve.scheduler`` /
``repro.serve.cluster``) is traced once per batch, not per query::

    batch                  # worker:<k>, cut -> completion or crash
      pack / execute / demux / resolve    # in-thread stage spans
    reject / cancel / fail                # tenant:<name> instants
    ship / assign / park / bisect / ...   # router instants, one per
                                          # decision record

A batch span's ``members`` are its queries' seqs and ``submitted``
their submit times; it ends with its ``outcome``, the ``failed`` batch
positions and its ``deadline_misses``.

Exporters (module functions, pure over a span list):

* :func:`export_jsonl` — one sorted-key JSON object per span line;
* :func:`export_chrome` — Chrome trace-event JSON (the ``traceEvents``
  array), loadable in Perfetto / ``chrome://tracing``: every span is a
  complete (``"X"``) event on its track's tid.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import ValidationError

__all__ = ["Span", "Tracer", "export_jsonl", "export_chrome", "chrome_json"]

#: Default finished-span ring size.
DEFAULT_MAX_SPANS = 262144


class Span:
    """One recorded interval.  ``end`` is None while the span is open."""

    __slots__ = ("span_id", "parent", "name", "track", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, track, start):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def as_record(self) -> Dict[str, object]:
        """The span as a deterministic, JSON-able dict."""
        return {
            "span": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "track": self.track,
            "t0": round(self.start, 9),
            "t1": None if self.end is None else round(self.end, 9),
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }


class Tracer:
    """Collects spans with explicit timestamps; thread-safe.

    Span ids are a per-tracer counter starting at 1 (deterministic for
    deterministic call orders — the simulator's case).  ``max_spans``
    bounds the *finished* ring; open spans are tracked separately and
    are expected to be few (one per in-flight batch or stage).
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans < 1:
            raise ValidationError(
                f"max_spans must be >= 1, got {max_spans}"
            )
        self._lock = threading.Lock()
        self._next_id = 1
        self._open: Dict[int, Span] = {}
        self._finished: Deque[Span] = deque()
        self._max_spans = max_spans
        #: Finished spans evicted by the ring bound.
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(
        self,
        name: str,
        now: float,
        parent: Optional[int] = None,
        track: str = "",
        **attrs,
    ) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(span_id, parent, name, track, now)
            if attrs:
                span.attrs.update(attrs)
            self._open[span_id] = span
            return span_id

    def end(self, span_id: int, now: float, **attrs) -> None:
        """Close an open span (unknown/already-closed ids are ignored —
        an instrumentation race must never take the serve path down)."""
        with self._lock:
            span = self._open.pop(span_id, None)
            if span is None:
                return
            span.end = now
            if attrs:
                span.attrs.update(attrs)
            self._finish(span)

    def event(
        self,
        name: str,
        now: float,
        parent: Optional[int] = None,
        track: str = "",
        **attrs,
    ) -> int:
        """Record an instant (zero-duration) span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(span_id, parent, name, track, now)
            span.end = now
            if attrs:
                span.attrs.update(attrs)
            self._finish(span)
            return span_id

    def _finish(self, span: Span) -> None:
        self._finished.append(span)
        while len(self._finished) > self._max_spans:
            self._finished.popleft()
            self.dropped += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def spans(self, include_open: bool = False) -> List[Span]:
        """Finished spans in id order (plus open ones when asked)."""
        with self._lock:
            out = list(self._finished)
            if include_open:
                out.extend(self._open.values())
        return sorted(out, key=lambda s: s.span_id)

    @property
    def open_spans(self) -> int:
        with self._lock:
            return len(self._open)

    def to_jsonl(self) -> str:
        return export_jsonl(self.spans())

    def to_chrome(self) -> Dict:
        return export_chrome(self.spans())


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def export_jsonl(spans: List[Span]) -> str:
    """One sorted-key JSON object per line, in span-id order.

    Deterministic by construction: ids are a call-order counter, keys
    are sorted, floats are rounded to 9 decimals before serialization.
    """
    lines = [
        json.dumps(span.as_record(), sort_keys=True, separators=(",", ":"))
        for span in sorted(spans, key=lambda s: s.span_id)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _microseconds(t: float) -> float:
    return round(t * 1e6, 3)


def export_chrome(spans: List[Span]) -> Dict:
    """Chrome trace-event JSON (Perfetto-loadable) for a span list.

    Tracks become tids (named via thread_name metadata); every span
    exports as a complete ``"X"`` event (an instant with ``dur`` 0).
    """
    tids: Dict[str, int] = {}

    def tid_of(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    events: List[Dict] = []
    for span in sorted(spans, key=lambda s: s.span_id):
        track = span.track or "main"
        tid = tid_of(track)
        args = {k: span.attrs[k] for k in sorted(span.attrs)}
        args["span"] = span.span_id
        if span.parent is not None:
            args["parent"] = span.parent
        end = span.end if span.end is not None else span.start
        events.append({
            "name": span.name,
            "cat": track.split(":", 1)[0],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": _microseconds(span.start),
            "dur": _microseconds(end - span.start),
            "args": args,
        })

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro.serve"},
        }
    ]
    for track in sorted(tids, key=tids.get):
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tids[track],
            "args": {"name": track},
        })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def chrome_json(spans: List[Span]) -> str:
    """The Chrome trace-event document as a deterministic JSON string."""
    return json.dumps(export_chrome(spans), sort_keys=True, indent=None,
                      separators=(",", ":")) + "\n"
