"""`repro.obs` — tracing, metrics, and profiling for the serve path.

Three instruments, one discipline (explicit clocks, bounded memory,
deterministic exports):

* :mod:`repro.obs.trace` — :class:`Tracer` spans over batches and
  the router's decisions, with JSONL and Chrome trace-event (Perfetto)
  exporters;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`
  counters/gauges/histograms backing ``ServiceStats`` and
  ``SchedulerStats``, with Prometheus-text and JSON snapshot exports;
* :mod:`repro.obs.profiler` — :class:`TapeProfiler`, the opt-in
  per-instruction attribution hook of the compiled tape's loop.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.profiler import InstructionSample, OpcodeTotals, TapeProfiler
from repro.obs.trace import (
    Span,
    Tracer,
    chrome_json,
    export_chrome,
    export_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "InstructionSample",
    "OpcodeTotals",
    "TapeProfiler",
    "Span",
    "Tracer",
    "chrome_json",
    "export_chrome",
    "export_jsonl",
]
