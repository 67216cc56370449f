"""Bounded-memory metrics: counters, gauges, sliding-window histograms.

Before this module the repo had three ad-hoc aggregators growing side by
side — the service's ``_StatsAggregator``, the scheduler core's loose
counter attributes, and the batcher's per-phase timing dicts.  Each had
its own locking, its own snapshot shape, and no export format.  The
:class:`MetricsRegistry` replaces all three as the single store the
serve path writes through: the decision core
(:class:`~repro.serve.cluster.RouterCore`, a
:class:`~repro.serve.scheduler.SchedulerCore`) backs every scheduling
(``sched_*``) and routing (``cluster_*``) counter with it and
:class:`~repro.serve.service.CopseService` backs every evaluation
aggregate with it, so ``ServiceStats``/``SchedulerStats`` are now pure
*views* over one source of truth.

Design constraints, in order:

* **Determinism.**  A registry driven by the deterministic simulator
  must snapshot byte-identically per seed: instruments store plain
  Python numbers, snapshots sort every key, and percentiles use the
  same nearest-rank recipe the scheduler always used.
* **Bounded memory.**  Counters and gauges are O(1); histograms keep a
  sliding window of recent observations (the ``SchedulerStats``
  latency-window idea, generalized) plus exact all-time count / sum /
  max, so a long-lived service neither grows without bound nor pays an
  ever-larger sort per snapshot.
* **Cheap writes.**  One leaf lock per registry guards every mutation;
  instruments are resolved once and cached by callers (attribute
  lookups, not name lookups, on the hot path).

Exports: :meth:`MetricsRegistry.render_prometheus` (text exposition
format — counters/gauges verbatim, histograms as summaries with
quantile labels) and :meth:`MetricsRegistry.snapshot` (a JSON-able dict,
the payload of ``repro serve --stats-interval`` lines and the input of
``repro metrics``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bind_children",
    "percentile",
]

#: Default sliding-window size for histograms — matches the scheduler's
#: latency window so re-backed percentiles are bit-identical.
DEFAULT_WINDOW = 65536

LabelValues = Tuple[str, ...]


def percentile(ranked: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not ranked:
        return 0.0
    rank = max(1, -(-int(q * len(ranked) * 100) // 100))  # ceil(q * n)
    rank = min(rank, len(ranked))
    return ranked[rank - 1]


class Counter:
    """A monotonically increasing value (float-valued, ms totals too)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Sliding-window observations with exact all-time count/sum/max.

    Percentiles are nearest-rank over the most recent ``window``
    observations (bounded memory, bounded sort); ``count``/``sum`` and
    the max are exact over the instrument's whole lifetime.
    """

    __slots__ = ("_lock", "_window", "_count", "_sum", "_max")

    def __init__(self, lock: threading.Lock, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValidationError(
                f"histogram window must be >= 1, got {window}"
            )
        self._lock = lock
        self._window: Deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """One batch of observations under one lock acquisition.

        Identical to ``for v in values: observe(v)``: the window takes
        them in order and the sum is accumulated one value at a time,
        so ``count`` / ``sum`` / ``max`` / the window are bit-for-bit
        what the loop leaves.
        """
        if not values:
            return
        with self._lock:
            self._window.extend(values)
            self._count += len(values)
            total = self._sum
            for value in values:
                total += value
            self._sum = total
            highest = max(values)
            if highest > self._max:
                self._max = highest

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    def window_values(self) -> List[float]:
        with self._lock:
            return list(self._window)

    def percentile(self, q: float) -> float:
        return percentile(sorted(self.window_values()), q)

    def quantiles(self, qs: Iterable[float]) -> Dict[float, float]:
        """Several percentiles off one sort of the current window."""
        ranked = sorted(self.window_values())
        return {q: percentile(ranked, q) for q in qs}


def _label_key(labels: Optional[Dict[str, str]]) -> LabelValues:
    if not labels:
        return ()
    return tuple(f"{k}={labels[k]}" for k in sorted(labels))


def _format_labels(key: LabelValues) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(*pair.split("=", 1)) for pair in key
    )
    return "{" + inner + "}"


def bind_children(get: Callable, name: str, *label_names: str) -> Callable:
    """``child(*label_values)`` for one labelled family, memoised.

    ``get`` is a registry's ``counter``, ``gauge`` or ``histogram``.  A
    per-batch hot path resolves each child once and afterwards pays a
    dict lookup, not a label-key format plus a locked family walk per
    update.  Children are still created on first use, so a snapshot
    never shows a label nobody has counted.
    """
    children: Dict[Tuple[str, ...], object] = {}

    def child(*values: str):
        instrument = children.get(values)
        if instrument is None:
            instrument = children[values] = get(
                name, dict(zip(label_names, values))
            )
        return instrument

    return child


class MetricsRegistry:
    """Name -> instrument-family store with labeled children.

    ``counter``/``gauge``/``histogram`` get-or-create the instrument for
    ``(name, labels)``; asking for an existing name with a different
    instrument kind raises.  All instruments in one registry share one
    leaf lock (mutations never call out while holding it).
    """

    _QUANTILES = (0.5, 0.99)

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: Dict[str, str] = {}
        self._families: Dict[str, Dict[LabelValues, object]] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------

    def _get(self, kind: str, name: str, labels, factory):
        if not name:
            raise ValidationError("metrics need a non-empty name")
        key = _label_key(labels)
        with self._lock:
            known = self._kinds.get(name)
            if known is None:
                self._kinds[name] = kind
                self._families[name] = {}
            elif known != kind:
                raise ValidationError(
                    f"metric {name!r} is already registered as a {known}, "
                    f"not a {kind}"
                )
            family = self._families[name]
            instrument = family.get(key)
            if instrument is None:
                instrument = factory()
                family[key] = instrument
            return instrument

    def counter(self, name: str, labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(
            "counter", name, labels, lambda: Counter(self._lock)
        )

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get("gauge", name, labels, lambda: Gauge(self._lock))

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        window: int = DEFAULT_WINDOW,
    ) -> Histogram:
        return self._get(
            "histogram", name, labels,
            lambda: Histogram(self._lock, window=window),
        )

    def add(self, increments: Iterable[Tuple[Counter, float]]) -> None:
        """``counter.inc(amount)`` for each pair, in order, under one
        hold of the lock: the counters must be this registry's."""
        with self._lock:
            for counter, amount in increments:
                counter._value += amount

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._kinds)

    def family(self, name: str) -> Dict[LabelValues, object]:
        """The labeled children of one metric (empty if unknown)."""
        with self._lock:
            return dict(self._families.get(name, {}))

    def counter_value(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> float:
        """Read a counter without creating it (0.0 when absent)."""
        family = self._families.get(name)
        if not family:
            return 0.0
        instrument = family.get(_label_key(labels))
        return instrument.value if instrument is not None else 0.0

    def labeled_values(self, name: str) -> Dict[str, float]:
        """``label-value -> value`` for a single-label counter family.

        The scheduler's per-tenant / per-queue counters read back
        through this: the (single) label value is the key, sorted.
        """
        out: Dict[str, float] = {}
        for key, instrument in self.family(name).items():
            if not key:
                continue
            out[key[0].split("=", 1)[1]] = instrument.value
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-able, deterministically ordered snapshot of everything.

        Counters/gauges flatten to ``name{label="v"} -> value`` keys;
        histograms report exact count/sum/max plus windowed p50/p99.
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        with self._lock:
            items = [
                (name, self._kinds[name], dict(family))
                for name, family in self._families.items()
            ]
        for name, kind, family in items:
            for key in sorted(family):
                instrument = family[key]
                flat = f"{name}{_format_labels(key)}"
                if kind == "counter":
                    counters[flat] = round(instrument.value, 9)
                elif kind == "gauge":
                    gauges[flat] = round(instrument.value, 9)
                else:
                    quantiles = instrument.quantiles(self._QUANTILES)
                    histograms[flat] = {
                        "count": instrument.count,
                        "sum": round(instrument.sum, 9),
                        "max": round(instrument.max, 9),
                        "p50": round(quantiles[0.5], 9),
                        "p99": round(quantiles[0.99], 9),
                    }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the registry's current state.

        Counters and gauges export verbatim; histograms export as
        summaries (windowed quantiles + exact ``_sum``/``_count``),
        which is the honest mapping for sliding-window percentiles.
        """
        lines: List[str] = []
        with self._lock:
            items = [
                (name, self._kinds[name], dict(self._families[name]))
                for name in sorted(self._families)
            ]
        for name, kind, family in items:
            if kind == "histogram":
                lines.append(f"# TYPE {name} summary")
                for key in sorted(family):
                    instrument = family[key]
                    quantiles = instrument.quantiles(self._QUANTILES)
                    for q in self._QUANTILES:
                        labels = key + (f"quantile={q:g}",)
                        lines.append(
                            f"{name}{_format_labels(labels)} "
                            f"{quantiles[q]:g}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} "
                        f"{instrument.sum:g}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} "
                        f"{instrument.count}"
                    )
                continue
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(family):
                instrument = family[key]
                lines.append(
                    f"{name}{_format_labels(key)} {instrument.value:g}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
