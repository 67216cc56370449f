"""The benchmark's one timing primitive, its span recorder, the host's
pace and its fingerprint.

Every wall-clock number the benchmark reports is read from
:data:`clock`, by :func:`timed_passes` or by a :class:`Spans` record,
and reduced by :func:`summarize` to a median with quartiles and the
sample count; single-threaded staging times are first divided by the
host's pace (:func:`paced`).  Nothing here imports the program under
test.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: The one clock every measurement reads.
clock = time.perf_counter


def percentile(ranked: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = min(len(ranked), max(1, math.ceil(len(ranked) * q)))
    return ranked[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample (at least one value)."""
    median = statistics.median(samples)
    q1, q3 = median, median
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "samples": list(samples)}


def timed_passes(
    fn: Callable[[], object],
    passes: int,
    *,
    after: Optional[Callable[[], object]] = None,
) -> List[float]:
    """Wall time of each of ``passes`` passes of ``fn``, in seconds.

    The count is the caller's constant, so the parent commit and a
    change do identical work.  Outside the timed region, garbage is
    collected ahead of each pass and ``after`` (the caller's answer
    check) runs behind it.  Warm-up is the caller's set-up, which is
    timed as ``setup_s``.
    """
    samples: List[float] = []
    for _ in range(passes):
        gc.collect()
        t0 = clock()
        fn()
        samples.append(clock() - t0)
        if after is not None:
            after()
    return samples


def blocks(seconds: float, at_least: int) -> Iterator[int]:
    """Indexes of the blocks of a run: ``at_least`` of them, then more
    while another as long as the longest so far still fits in
    ``seconds``.  The work in a block never depends on the clock; only
    the number of blocks does."""
    began = clock()
    longest = 0.0
    index = 0
    while index < at_least or clock() - began + longest <= seconds:
        t0 = clock()
        yield index
        longest = max(longest, clock() - t0)
        index += 1


class Spans:
    """In-memory span recorder for the benchmark's own files.

    One record per call into the program: name, start, end, the span
    that caused it.  Kept in a list and written out once, at exit.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.records) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "t0": 0.0,
            "t1": 0.0,
        }
        record.update(attrs)
        self.records.append(record)
        self._stack.append(record["id"])
        record["t0"] = clock()
        try:
            yield record
        finally:
            record["t1"] = clock()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [r["t1"] - r["t0"] for r in self.records if r["name"] == name]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            json.dump({"trace": self.trace_id, "spans": self.records}, out)


@contextmanager
def maybe_span(spans: Optional[Spans], name: str, **attrs):
    """``spans.span(...)`` when tracing, otherwise nothing at all."""
    if spans is None:
        yield None
    else:
        with spans.span(name, **attrs) as record:
            yield record


#: About what :func:`host_pace` reads on the reference host; paced times
#: are in seconds of a host at this pace.
NOMINAL_PACE_S = 0.005


class _Cell:
    __slots__ = ("label", "peers")

    def __init__(self, key: int):
        self.label = str(key)
        self.peers: List["_Cell"] = []


def host_pace() -> float:
    """Wall time of a fixed single-threaded kernel, in seconds.

    The reference host is shared: the same single-threaded computation
    takes up to half as long again for spells that last from seconds to
    minutes, so a median over one run does not absorb them.  The kernel
    does what staging does - it allocates small objects, links them and
    fills a dict - and slows down with it: dividing a staging time by the
    pace read just before and after it took the spread between 20 s
    windows from 0.17-0.22 of the median to 0.01-0.05.  Two-thread serving
    throughput does not follow it and is reported as measured.
    """
    was_enabled = gc.isenabled()
    gc.disable()  # a collection inside the kernel would time the caller's heap
    try:
        t0 = clock()
        table = {}
        for key, value in [(i, i + 1) for i in range(5000)]:
            table[key] = value
        cells = [_Cell(i) for i in range(5000)]
        for i, cell in enumerate(cells):
            cell.peers.append(cells[(i * 7) % 5000])
        sum(table.values()) + sum(len(cell.peers) for cell in cells)
        return clock() - t0
    finally:
        if was_enabled:
            gc.enable()


def paced(fn: Callable, *args, **kwargs):
    """``fn``'s result, and the host's pace around the call as a multiple
    of nominal (above 1: the host ran slow).  A single-threaded time
    divided by it is in seconds of the nominal host."""
    before = host_pace()
    result = fn(*args, **kwargs)
    return result, (before + host_pace()) / (2 * NOMINAL_PACE_S)


def host_fingerprint() -> Dict[str, object]:
    """What a reader needs to judge whether two results are comparable."""
    import numpy

    try:
        load = os.getloadavg()[0]
    except OSError:
        load = float("nan")
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_1m_at_start": load,
        "pace_at_start": host_pace() / NOMINAL_PACE_S,
    }
