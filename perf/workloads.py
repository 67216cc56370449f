"""The five workloads, driven only through the program's public entry
points: ``CopseService``, ``ClusterService`` and ``ModelRegistry.register``.

Sizes are constants.  A run is a sequence of identical *blocks*: a cold
set-up (timed as ``setup_s``), a fixed number of fixed-size passes on
the fresh service (or, open loop, a fixed number of arrivals), the
answer check, and shutdown.  The parent commit and a
change do identical work per block; only the number of blocks follows
``--seconds``.  Every end-to-end figure is a median over the blocks of a
run, so set-ups and passes are sampled all along the run and not from
one spell of it: the reference host changes speed by a quarter every few
seconds.

Every serve workload uses ``engine="megakernel"``, ``backend="vector"``
and a pool of two (``nproc`` of the reference host) and leaves every
other constructor argument at its default, so ``verify_oracle=True`` is
measured as users get it.  Load comes from the single main thread.
"""

from __future__ import annotations

import resource
import time
from functools import partial
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core.runtime import InferenceResult
from repro.forest.serialize import loads_forest
from repro.serve.cluster import ClusterService
from repro.serve.registry import ModelRegistry
from repro.serve.service import CopseService
from repro.serve.worker import evaluate_batch

from inputs import FrozenModel, load_model, make_queries, model_names, poisson_due_times
from reference import ReferenceForest
from timing import (
    Spans, blocks, clock, maybe_span, paced, percentile, summarize, timed_passes,
)

ENGINE = "megakernel"
BACKEND = "vector"
POOL = 2

#: Batches evaluated before anything is timed (fills caches, compiles
#: the megakernel's gather program, ships the model to cluster workers).
WARMUP_BATCHES = 4
#: A run has at least this many blocks, however slow the host
#: (``--smoke`` has one).
MIN_BLOCKS = 3
#: Seconds the cluster may take to drain before the run counts a failure.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeWorkload:
    """One traffic mix through a serve facade."""

    name: str
    model: str
    cluster: bool = False
    #: Closed loop, one client: each request is one ``classify_many`` of
    #: ``request_batches`` full batches; a pass is ``requests_per_pass``
    #: requests back to back; a block is ``passes_per_block`` passes.
    request_batches: int = 8
    requests_per_pass: int = 20
    passes_per_block: int = 3
    #: Open loop: Poisson arrivals at this rate against this deadline,
    #: ``arrivals_per_block`` of them in a block.
    rate_qps: Optional[float] = None
    deadline_ms: Optional[float] = None
    arrivals_per_block: int = 3000
    #: Latency percentiles are taken over windows of this many arrivals.
    arrivals_per_window: int = 500
    #: The traced run also measures the program's own ``Tracer`` here.
    probe_tracer: bool = False


SERVE_WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload("micro-closed", "width78", probe_tracer=True),
        ServeWorkload("real-closed", "income5", passes_per_block=2),
        ServeWorkload("micro-cluster", "width78", cluster=True, passes_per_block=4),
        ServeWorkload("micro-open", "width78", rate_qps=1000.0, deadline_ms=25.0),
    )
}


def serve_workload(name: str, smoke: bool) -> ServeWorkload:
    """The named traffic mix; ``--smoke`` shrinks its counts to a token."""
    spec = SERVE_WORKLOADS[name]
    if smoke:
        spec = replace(
            spec, requests_per_pass=2, passes_per_block=1,
            arrivals_per_block=300, arrivals_per_window=100,
        )
    return spec


STAGE_SUITE = "stage-suite"

#: Distinct queries generated per model and cycled through.
QUERY_POOL = 4096
#: ``--smoke`` sets up once, and stages only this many models.
SMOKE_MODELS = 3


@dataclass
class Block:
    """What one block of a run measured."""

    setup_s: float
    #: Queries per second of each pass.
    throughput_qps: List[float]
    #: Wall time of each operation (a request, an arrival, a
    #: ``register``), one list per pass or window of arrivals.
    latency_ms: List[List[float]]


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Median, quartiles and sample count behind each timing.
    spread: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def timing(self, name: str, samples: Sequence[float]) -> None:
        summary = summarize(samples)
        self.metrics[name] = summary["median"]
        self.spread[name] = summary

    def report(self, measured: Sequence[Block]) -> None:
        """The end-to-end timings, each a median: of a block's set-up,
        of a pass's throughput, of a pass's (or window's) median
        latency.  A slow spell of the host then has to cover half of the
        run to move a figure."""
        windows = [w for b in measured for w in b.latency_ms]
        self.timing("throughput_qps", [q for b in measured for q in b.throughput_qps])
        self.timing("latency_p50_ms", [percentile(sorted(w), 0.50) for w in windows])
        self.timing("setup_s", [b.setup_s for b in measured])


class Checker:
    """Counts answers that disagree with the independent reference."""

    def __init__(self, model: FrozenModel, pool: List[List[int]], outcome: Outcome):
        walker = ReferenceForest(model.text)
        self.expected = [walker.labels(features) for features in pool]
        self.outcome = outcome

    def check(self, index: int, chosen_labels, oracle_ok=None) -> None:
        self.outcome.attempted += 1
        if oracle_ok is False or chosen_labels != self.expected[index]:
            self.outcome.failed += 1

    def fail(self) -> None:
        self.outcome.attempted += 1
        self.outcome.failed += 1


def chosen_labels(spec, bits) -> List[int]:
    """The per-tree labels the program decodes from a result bitvector."""
    return InferenceResult(
        bits, list(spec.codebook), list(spec.label_names)
    ).chosen_labels


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scheduler_stats(stats):
    """``CopseService`` nests the scheduler's stats; the cluster's are flat."""
    return getattr(stats, "scheduler", stats)


def conserved(stats) -> bool:
    """The scheduler's conservation identity, once drained."""
    s = scheduler_stats(stats)
    return s.submitted == (
        s.completed + s.rejected + s.failed + s.cancelled + s.dead_lettered
    )


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def set_up(spec: ServeWorkload, model: FrozenModel, pool, spans: Optional[Spans]):
    """Parse, construct, stage, warm up.  Returns the live service, the
    registered model, and the wall time of it all."""
    with maybe_span(spans, "setup", workload=spec.name):
        began = clock()
        forest = loads_forest(model.text)
        with maybe_span(spans, "construct"):
            if spec.cluster:
                service = ClusterService(workers=POOL, engine=ENGINE, backend=BACKEND)
            else:
                service = CopseService(
                    threads=POOL, engine=ENGINE, backend=BACKEND,
                    default_deadline_ms=spec.deadline_ms,
                )
        try:
            with maybe_span(spans, "register_model"):
                registered = service.register_model(
                    model.name, forest, precision=model.precision
                )
            if spec.cluster:
                with maybe_span(spans, "preload"):
                    service.preload(model.name)
            capacity = registered.layout.capacity
            with maybe_span(spans, "first_batch"):
                service.classify_many(model.name, pool[:capacity])
            with maybe_span(spans, "warmup"):
                service.classify_many(
                    model.name, pool[capacity : WARMUP_BATCHES * capacity]
                )
        except BaseException:
            service.close()
            raise
        return service, registered, clock() - began


# ---------------------------------------------------------------------------
# Closed loop: one client, bulk requests back to back
# ---------------------------------------------------------------------------


class ClosedLoop:
    def __init__(self, spec, service, registered, pool, checker: Checker):
        self.spec = spec
        self.service = service
        self.name = registered.name
        self.pool = pool
        self.checker = checker
        self.request = spec.request_batches * registered.layout.capacity
        self.cursor = 0
        #: Seconds each request took, one list per pass.
        self.latencies: List[List[float]] = []
        self._unchecked = []

    @property
    def queries_per_pass(self) -> int:
        return self.request * self.spec.requests_per_pass

    def _next_request(self):
        if self.cursor + self.request > len(self.pool):
            self.cursor = 0
        start = self.cursor
        self.cursor += self.request
        return start, self.pool[start : start + self.request]

    def run_pass(self, spans: Optional[Spans] = None) -> None:
        """``requests_per_pass`` requests; traced, the same three steps
        ``classify_many`` takes, each under its own span."""
        service, name = self.service, self.name
        latencies: List[float] = []
        self.latencies.append(latencies)
        for _ in range(self.spec.requests_per_pass):
            start, features = self._next_request()
            began = clock()
            if spans is None:
                results = service.classify_many(name, features)
            else:
                with spans.span("request", queries=len(features)):
                    with spans.span("submit_loop"):
                        futures = [service.submit(name, f) for f in features]
                    with spans.span("flush_wait"):
                        service.flush(name)
                    with spans.span("collect"):
                        results = [f.result() for f in futures]
            latencies.append(clock() - began)
            self._unchecked.append((start, results))

    def check(self) -> None:
        for start, results in self._unchecked:
            for offset, result in enumerate(results):
                self.checker.check(
                    start + offset, result.result.chosen_labels, result.oracle_ok
                )
        self._unchecked.clear()


# ---------------------------------------------------------------------------
# Open loop: Poisson arrivals, latency from each query's due time
# ---------------------------------------------------------------------------


class Answer(NamedTuple):
    """What the open loop keeps of one ``ClassificationResult``."""

    bits: List[int]
    oracle_ok: Optional[bool]
    amortized_ms: float


@dataclass
class OpenLoopRun:
    latencies: List[float]
    generator_late: List[float]
    answers: List[Optional[Answer]]
    wall_s: float


def open_loop(service, registered, pool, due, checker, spans=None) -> OpenLoopRun:
    name, count = registered.name, len(due)
    done = [0.0] * count
    late = [0.0] * count
    answers: List[Optional[Answer]] = [None] * count

    def stamp(i):
        # Keeps three fields and lets the future go.  Holding every
        # result until the end grew the heap until each full collection
        # stopped the process for 0.1 s, which a server's heap never does.
        def on_done(future):
            done[i] = clock()
            if not future.cancelled() and future.exception() is None:
                result = future.result()
                answers[i] = Answer(
                    result.bitvector, result.oracle_ok, result.amortized_ms
                )
        return on_done

    with maybe_span(spans, "submit_loop", arrivals=count):
        start = clock() + 0.05
        for i in range(count):
            target = start + due[i]
            wait = target - clock()
            if wait > 0:
                time.sleep(wait)
            late[i] = clock() - target
            try:
                future = service.submit(name, pool[i % len(pool)])
            except Exception:  # refused or raised: it misses every limit
                continue
            future.add_done_callback(stamp(i))
    with maybe_span(spans, "flush_wait"):
        service.flush(name)
    latencies = []
    for i, answer in enumerate(answers):
        if answer is None:  # refused, failed, or still unresolved after flush
            checker.fail()
            continue
        checker.check(
            i % len(pool), chosen_labels(registered.spec, answer.bits),
            answer.oracle_ok,
        )
        latencies.append(done[i] - (start + due[i]))
    wall = max(done) - (start + due[0])
    return OpenLoopRun(latencies, late, answers, wall)


def deadline_miss_share(spec, run: OpenLoopRun) -> float:
    """(late + failed + refused) / arrivals against the deadline."""
    limit = spec.deadline_ms / 1e3
    on_time = sum(1 for l in run.latencies if l <= limit)
    return 1.0 - on_time / len(run.answers)


# ---------------------------------------------------------------------------
# stage-suite: the staging compiler over the ten frozen models
# ---------------------------------------------------------------------------


class StageSuite:
    """Stages every frozen model, then classifies one full batch each."""

    def __init__(self, seed: int, outcome: Outcome, smoke: bool = False):
        names = model_names()[:SMOKE_MODELS] if smoke else model_names()
        self.models = [load_model(name) for name in names]
        self.pools = {
            m.name: make_queries(m, QUERY_POOL // 16, seed) for m in self.models
        }
        self.checkers = {
            m.name: Checker(m, self.pools[m.name], outcome) for m in self.models
        }
        self.forests = {}
        #: Of the latest pass, in seconds of the nominal host: each
        #: ``register`` call, and the whole (with the batches).
        self.register_s: List[float] = []
        self.pass_s = 0.0
        self.queries_per_pass = 0
        self.sim_ms_per_query: Dict[str, float] = {}
        self.registered = {}
        self._unchecked = []

    def set_up(self, spans: Optional[Spans] = None) -> float:
        """Parse the models and stage the smallest once, so lazy imports
        and first-call costs stay out of the measured passes.  Returns
        the wall time it took."""
        with maybe_span(spans, "setup", workload=STAGE_SUITE):
            began = clock()
            self.forests = {m.name: loads_forest(m.text) for m in self.models}
            self._stage(ModelRegistry(), self.models[0], None)
            self._unchecked.clear()
            return clock() - began

    def _stage(self, registry, model, spans):
        """``register``, then one full batch: the wall time of the first
        and of both."""
        began = clock()
        with maybe_span(spans, "register", model=model.name):
            registered = registry.register(
                model.name, self.forests[model.name], precision=model.precision,
                engine=ENGINE, backend=BACKEND,
            )
        registered_at = clock()
        queries = self.pools[model.name][: registered.layout.capacity]
        with maybe_span(spans, "classify_batch", model=model.name):
            bitvectors, _, inference_ms, _, _ = evaluate_batch(registered, queries)
        self._unchecked.append((model.name, registered, bitvectors))
        self.sim_ms_per_query[model.name] = inference_ms / len(queries)
        self.registered[model.name] = registered
        return registered_at - began, clock() - began

    def run_pass(self, spans: Optional[Spans] = None) -> None:
        """Every model through a fresh registry, each timed at the
        host's pace around it."""
        registry = ModelRegistry()
        self.register_s, self.pass_s = [], 0.0
        for model in self.models:
            (register_s, both_s), pace = paced(self._stage, registry, model, spans)
            self.register_s.append(register_s / pace)
            self.pass_s += both_s / pace
        self.queries_per_pass = sum(
            r.layout.capacity for r in self.registered.values()
        )

    def check(self) -> None:
        for name, registered, bitvectors in self._unchecked:
            for index, bits in enumerate(bitvectors):
                self.checkers[name].check(
                    index, chosen_labels(registered.spec, bits)
                )
        self._unchecked.clear()

    def block(self) -> Block:
        """Set-up, then one pass over the models."""
        setup_s, pace = paced(self.set_up)
        timed_passes(self.run_pass, 1, after=self.check)
        return Block(
            setup_s / pace, [self.queries_per_pass / self.pass_s],
            [[s * 1e3 for s in self.register_s]],
        )


def finish(spec: ServeWorkload, service, outcome: Outcome) -> None:
    """Once a block's traffic is answered: nothing may be unaccounted for."""
    if spec.cluster:
        service.drain(timeout=DRAIN_TIMEOUT_S)
    outcome.attempted += 1
    if not conserved(service.stats()):
        outcome.failed += 1


def serve_block(spec: ServeWorkload, model, pool, due, checker, outcome) -> Block:
    """Cold set-up, the block's traffic, the checks, shutdown."""
    (service, registered, setup_s), pace = paced(set_up, spec, model, pool, None)
    try:
        if due is None:
            loop = ClosedLoop(spec, service, registered, pool, checker)
            walls = timed_passes(loop.run_pass, spec.passes_per_block, after=loop.check)
            throughput = [loop.queries_per_pass / w for w in walls]
            windows = loop.latencies
        else:
            run = open_loop(service, registered, pool, due, checker)
            throughput = [len(run.latencies) / run.wall_s]
            size = spec.arrivals_per_window
            windows = [
                run.latencies[i : i + size] for i in range(0, len(run.latencies), size)
            ]
        finish(spec, service, outcome)
    finally:
        service.close()
    return Block(
        setup_s / pace, throughput,
        [[l * 1e3 for l in window] for window in windows],
    )


def serve_blocks(spec: ServeWorkload, seed: int, outcome: Outcome):
    """The function that runs one block of ``spec`` on the seed's inputs."""
    model = load_model(spec.model)
    pool = make_queries(model, QUERY_POOL, seed)
    due = None
    if spec.rate_qps is not None:
        due = poisson_due_times(spec.arrivals_per_block, spec.rate_qps, seed)
    return partial(
        serve_block, spec, model, pool, due, Checker(model, pool, outcome), outcome
    )


# ---------------------------------------------------------------------------
# Entry: one untraced run of one workload
# ---------------------------------------------------------------------------


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool = False) -> Outcome:
    """End-to-end metrics only; no spans, no layer replay."""
    outcome = Outcome()
    if workload == STAGE_SUITE:
        block = StageSuite(seed, outcome, smoke).block
    else:
        block = serve_blocks(serve_workload(workload, smoke), seed, outcome)
    outcome.report([block() for _ in blocks(seconds, 1 if smoke else MIN_BLOCKS)])
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome
