"""The traced run: per-layer metrics, measured from outside the program.

Two sources, both in the benchmark's own files:

* spans recorded around each public call of the workload itself
  (``setup``, and per request ``submit_loop`` / ``flush_wait`` /
  ``collect``), half of the passes traced and half not, interleaved, so
  the difference is the tracing overhead;
* a *layer replay*: each layer's public functions called one at a time
  on the same generated inputs, timed with the same primitive.

Layers are the program's module names.  A layer a workload does not run
(the cluster transport under ``micro-closed``, say) is reported as 0 by
``run.py``: no work was done there.
"""

from __future__ import annotations

import math
import pickle
import statistics
from collections import defaultdict
from multiprocessing import active_children
from typing import Callable, Dict, List, Optional

from repro.core.compiler import CopseCompiler
from repro.core.seccomp import VARIANT_ALOUFI
from repro.fhe.context import FheContext
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import OpKind
from repro.forest.serialize import loads_forest
from repro.ir.megakernel import compile_megakernel
from repro.ir.plan import lower_batched_inference
from repro.obs.trace import Tracer
from repro.serve.batched_runtime import (
    BatchedCopseServer,
    build_batched_model,
    encrypt_batch,
)
from repro.serve.batcher import CutBatch, PendingQuery, QueryBatcher
from repro.serve.cluster import AssignAction, RouterCore
from repro.serve.packing import demux_bitvectors, plan_layout
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import SchedulerCore
from repro.serve.service import CopseService
from repro.serve.transport import BatchRequest, BatchResult, ShippedModel
from repro.serve.worker import evaluate_batch

import workloads as wl
from inputs import FrozenModel, load_model, make_queries
from timing import Spans, clock, percentile, timed_passes

#: Execution tiers timed by the batch-pipeline replay.
ENGINES = ("megakernel", "tape", "plan", "eager")
#: Full batches the layer replay evaluates, and how many times it stages
#: the model step by step.
REPLAY_PASSES = 40
STAGE_PASSES = 2

#: The pieces ``ModelRegistry.register`` is made of; its self time is
#: what remains of ``register_ms`` after them.
REGISTER_PARTS = (
    "core.compile_ms",
    "serve.packing.plan_layout_ms",
    "fhe.keygen_ms",
    "serve.batched_runtime.build_model_ms",
    "ir.lower_ms",
    "ir.tape_compile_ms",
)


class Replay:
    """Times calls into the program and records a span for each."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def call(self, metric: str, fn: Callable, *args, **kwargs):
        with self.spans.span(metric) as record:
            out = fn(*args, **kwargs)
        self.samples[metric].append(record["t1"] - record["t0"])
        return out

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def stage_once(replay: Replay, model: FrozenModel) -> Dict[str, float]:
    """One model through every staging step, then ``register`` whole.
    Returns milliseconds per step."""
    mark = {k: len(v) for k, v in replay.samples.items()}
    forest = replay.call("forest.load_ms", loads_forest, model.text)
    compiled = replay.call(
        "core.compile_ms", CopseCompiler(precision=model.precision).compile, forest
    )
    params = EncryptionParams.paper_defaults()
    layout = replay.call("serve.packing.plan_layout_ms", plan_layout, compiled, params)
    ctx = FheContext(params, backend=wl.BACKEND)
    keys = replay.call("fhe.keygen_ms", ctx.keygen)
    replay.call(
        "serve.batched_runtime.build_model_ms",
        build_batched_model, ctx, compiled, layout, public_key=keys.public,
    )
    plan = replay.call(
        "ir.lower_ms", lower_batched_inference, compiled, layout,
        encrypted_model=True, variant=VARIANT_ALOUFI,
    )
    tape = replay.call("ir.tape_compile_ms", plan.compile_tape)
    kernel = compile_megakernel(tape)
    replay.call("ir.megakernel_compile_ms", kernel.ensure_compiled)
    replay.call(
        "serve.registry.register_ms", ModelRegistry().register, model.name,
        forest, precision=model.precision, engine=wl.ENGINE, backend=wl.BACKEND,
    )
    took = {
        name: sum(samples[mark.get(name, 0):]) * 1e3
        for name, samples in replay.samples.items() if name.endswith("_ms")
    }
    took["serve.registry.self_ms"] = max(
        0.0, took["serve.registry.register_ms"] - sum(took[p] for p in REGISTER_PARTS)
    )
    return took


def staging_metrics(replay: Replay, models: List[FrozenModel], passes: int):
    """Median over passes of each staging step, summed over ``models``."""
    totals: Dict[str, List[float]] = defaultdict(list)
    for _ in range(passes):
        one_pass: Dict[str, float] = defaultdict(float)
        for model in models:
            for name, ms in stage_once(replay, model).items():
                one_pass[name] += ms
        for name, ms in one_pass.items():
            totals[name].append(ms)
    return {name: statistics.median(values) for name, values in totals.items()}


# ---------------------------------------------------------------------------
# Generated-code size and simulated cost (exact counts)
# ---------------------------------------------------------------------------


def codegen_counts(registered, features) -> Dict[str, float]:
    """Size of the generated program and the FHE work of one full batch."""
    ctx = FheContext(registered.params, backend=registered.backend)
    server = BatchedCopseServer(
        ctx, engine=registered.engine, plan=registered.plan,
        tape=registered.tape, megakernel=registered.megakernel,
    )
    query = encrypt_batch(ctx, registered.layout, features, registered.keys)
    before = ctx.tracker.counts_snapshot()
    server.classify_batch(registered.batched_model, query)
    after = ctx.tracker.counts_snapshot()
    ops = {
        kind: after.get(kind, 0) - before.get(kind, 0)
        for kind in after if kind is not OpKind.LOAD
    }
    return {
        "ir.tape_instructions": registered.tape.num_instructions,
        "ir.tape_peak_live": registered.tape.peak_live,
        "ir.megakernel_segments": registered.megakernel.num_segments,
        "fhe.depth": ctx.tracker.multiplicative_depth(),
        "fhe.ops_per_batch.multiply": ops.get(OpKind.MULTIPLY, 0),
        "fhe.ops_per_batch.rotate": ops.get(OpKind.ROTATE, 0),
        "fhe.ops_per_batch.total": sum(ops.values()),
    }


# ---------------------------------------------------------------------------
# Batch pipeline and front end
# ---------------------------------------------------------------------------


def batch_once(replay: Replay, registered, features, engine: str) -> None:
    """The batcher's pipeline, one public call at a time."""
    ctx = FheContext(registered.params, backend=registered.backend)
    server = BatchedCopseServer(
        ctx, engine=engine, plan=registered.plan, tape=registered.tape,
        megakernel=registered.megakernel,
    )
    layout, keys = registered.layout, registered.keys
    # The other tiers are timed on execute alone; the rest is the same code.
    main = engine == registered.engine
    if main:
        query = replay.call(
            "serve.packing.pack_encrypt_us_per_batch",
            encrypt_batch, ctx, layout, features, keys,
        )
    else:
        query = encrypt_batch(ctx, layout, features, keys)
    encrypted = replay.call(
        f"ir.execute_us_per_batch.{engine}",
        server.classify_batch, registered.batched_model, query,
    )
    if main:
        bits = replay.call(
            "fhe.decrypt_us_per_batch", ctx.decrypt_bits, encrypted, keys.secret
        )
        replay.call(
            "serve.packing.demux_us_per_batch",
            demux_bitvectors, layout, bits, len(features),
        )


def scheduler_core_once(replay: Replay, capacity: int, features) -> None:
    """Bare ``SchedulerCore``: submit -> assign -> complete, no evaluator."""
    def drive():
        core = SchedulerCore(workers=wl.POOL)
        core.add_queue("m", capacity=capacity)
        now = 0.0
        for f in features:
            core.submit("m", PendingQuery(f), now)
            now += 1e-6
            assignment = core.assign(now)
            if assignment is not None:
                core.complete(assignment, now)
    replay.call("serve.scheduler.core_us_per_query", drive)


def router_core_once(replay: Replay, capacity: int, features) -> None:
    """Bare ``RouterCore``: the same walk, no processes."""
    def drive():
        router = RouterCore(workers=wl.POOL)
        router.add_model("m", capacity=capacity)
        now = 0.0
        for f in features:
            router.submit("m", PendingQuery(f), now)
            now += 1e-6
            for action in router.dispatch(now):
                if isinstance(action, AssignAction):
                    router.complete(action.assignment, action.epoch, now)
    replay.call("serve.cluster.router_us_per_query", drive)


def serve_layer_metrics(
    replay: Replay, registered, pool, checker: wl.Checker, passes: int,
    other_engine_passes: int,
) -> Dict[str, float]:
    """Front-end and batch-pipeline layers on one full batch at a time."""
    capacity = registered.layout.capacity
    batcher = QueryBatcher(registered)
    forest = registered.forest
    for i in range(passes):
        start = (i * capacity) % (len(pool) - capacity)
        features = pool[start : start + capacity]
        batch_once(replay, registered, features, registered.engine)

        def prepare_all():
            return [batcher.prepare(f) for f in features]
        entries = replay.call("serve.batcher.prepare_us_per_query", prepare_all)
        replay.call(
            "forest.oracle_us_per_query",
            lambda: [forest.label_bitvector(f) for f in features],
        )
        replay.call(
            "serve.batcher.evaluate_us_per_batch",
            batcher.evaluate, CutBatch(batch_id=i + 1, entries=entries),
        )
        for offset, entry in enumerate(entries):
            result = entry.future.result()
            checker.check(start + offset, result.result.chosen_labels, result.oracle_ok)
        scheduler_core_once(replay, capacity, features)
        if i < other_engine_passes:
            for engine in ENGINES:
                if engine != registered.engine:
                    batch_once(replay, registered, features, engine)

    us = lambda name: replay.median(name) * 1e6
    out = {name: us(name) for name in (
        "serve.packing.pack_encrypt_us_per_batch",
        "fhe.decrypt_us_per_batch",
        "serve.packing.demux_us_per_batch",
        "serve.batcher.evaluate_us_per_batch",
    )}
    for engine in ENGINES:
        out[f"ir.execute_us_per_batch.{engine}"] = us(f"ir.execute_us_per_batch.{engine}")
    for name in ("serve.batcher.prepare_us_per_query", "forest.oracle_us_per_query",
                 "serve.scheduler.core_us_per_query"):
        out[name] = us(name) / capacity
    parts = (
        out["serve.packing.pack_encrypt_us_per_batch"]
        + out[f"ir.execute_us_per_batch.{registered.engine}"]
        + out["fhe.decrypt_us_per_batch"]
        + out["serve.packing.demux_us_per_batch"]
        + out["forest.oracle_us_per_query"] * capacity
    )
    out["serve.batcher.resolve_us_per_query"] = max(
        0.0, out["serve.batcher.evaluate_us_per_batch"] - parts
    ) / capacity
    return out


# ---------------------------------------------------------------------------
# Cluster path: transport envelopes, worker evaluation, bare router
# ---------------------------------------------------------------------------


def transport_metrics(replay: Replay, registered, pool, passes: int) -> Dict[str, float]:
    capacity = registered.layout.capacity
    features = pool[:capacity]

    def ship():
        blob = pickle.dumps(ShippedModel.from_registered(registered))
        pickle.loads(blob).to_registered()  # verifies fail-closed
        return blob

    def pickle_both(request, result):
        blobs = pickle.dumps(request), pickle.dumps(result)
        for blob in blobs:
            pickle.loads(blob)
        return blobs

    sizes = {}
    for i in range(passes):
        sizes["ship"] = len(replay.call("serve.transport.ship_roundtrip_ms", ship))
        bitvectors, phase_ms, inference_ms, encrypt_ms, oracle_ok = replay.call(
            "serve.worker.evaluate_us_per_batch",
            evaluate_batch, registered, features, verify_oracle=True,
        )
        request = BatchRequest(
            batch_id=i, model=registered.name, epoch=0,
            features=tuple(tuple(f) for f in features), verify_oracle=True,
        )
        result = BatchResult(
            batch_id=i, model=registered.name, worker=0, epoch=0,
            bitvectors=tuple(tuple(b) for b in bitvectors), phase_ms=phase_ms,
            inference_ms=inference_ms, data_encrypt_ms=encrypt_ms,
            oracle_ok=tuple(oracle_ok), oracle_failures=0,
        )
        blobs = replay.call("serve.transport.pickle_us_per_batch", pickle_both,
                            request, result)
        sizes["request"], sizes["result"] = len(blobs[0]), len(blobs[1])
        router_core_once(replay, capacity, features)
    return {
        "serve.transport.ship_bytes": sizes["ship"],
        "serve.transport.ship_roundtrip_ms":
            replay.median("serve.transport.ship_roundtrip_ms") * 1e3,
        "serve.transport.request_bytes_per_batch": sizes["request"],
        "serve.transport.result_bytes_per_batch": sizes["result"],
        "serve.transport.pickle_us_per_batch":
            replay.median("serve.transport.pickle_us_per_batch") * 1e6,
        "serve.worker.evaluate_us_per_batch":
            replay.median("serve.worker.evaluate_us_per_batch") * 1e6,
        "serve.cluster.router_us_per_query":
            replay.median("serve.cluster.router_us_per_query") * 1e6 / capacity,
    }


def workers_peak_rss_mb() -> float:
    """Largest high-water RSS among this process's live children."""
    peak = 0.0
    for child in active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
        except OSError:
            pass
    return peak


# ---------------------------------------------------------------------------
# The traced measured region
# ---------------------------------------------------------------------------


def overhead_share(with_cost: List[float], without: List[float]) -> float:
    """How much slower the instrumented passes ran; a negative reading
    is noise and is reported as 0."""
    return max(0.0, statistics.median(with_cost) / statistics.median(without) - 1.0)


def interleaved(plain: Callable, instrumented: Callable, after, seconds: float):
    """Alternate the two kinds of pass for ``seconds``; wall time of each."""
    walls = ([], [])
    began = clock()
    while not walls[1] or clock() - began < seconds:
        walls[0].extend(timed_passes(plain, 1, after=after))
        walls[1].extend(timed_passes(instrumented, 1, after=after))
    return walls


def span_total(spans: Spans, name: str) -> float:
    return sum(spans.durations(name))


def closed_region(spec, service, registered, pool, checker, spans, seconds):
    loop = wl.ClosedLoop(spec, service, registered, pool, checker)
    before = wl.scheduler_stats(service.stats())
    plain, traced = interleaved(
        loop.run_pass, lambda: loop.run_pass(spans), loop.check, seconds
    )
    after = wl.scheduler_stats(service.stats())
    batches = after.batches - before.batches
    queries = after.completed - before.completed
    passes = len(plain) + len(traced)
    submitted = len(traced) * loop.queries_per_pass
    request_wall = span_total(spans, "request")
    submit_us = span_total(spans, "submit_loop") / submitted * 1e6
    metrics = {
        "bench.trace_overhead_share": overhead_share(traced, plain),
        "serve.mean_batch_fill": queries / (batches * registered.layout.capacity),
        "serve.batches_per_pass": batches / passes,
        "serve.service.flush_wait_share":
            (span_total(spans, "flush_wait") + span_total(spans, "collect"))
            / request_wall,
    }
    if spec.cluster:
        metrics["serve.cluster.submit_us_per_query"] = submit_us
    else:
        metrics["serve.service.submit_us_per_query"] = submit_us
    return metrics, statistics.median(plain) / spec.requests_per_pass


def open_region(spec, service, registered, pool, checker, spans, seconds, seed):
    """``seconds`` of arrivals, twice: untraced, then traced; layers from
    the second."""
    count = max(2, int(spec.rate_qps * seconds))
    due = wl.poisson_due_times(count, spec.rate_qps, seed)
    plain = wl.open_loop(service, registered, pool, due, checker)
    before = service.stats().scheduler
    traced = wl.open_loop(service, registered, pool, due, checker, spans)
    after = service.stats().scheduler
    batches = after.batches - before.batches
    answered = [a for a in traced.answers if a is not None]
    ranked = sorted(l * 1e3 for l in traced.latencies)
    late = sorted(l * 1e3 for l in traced.generator_late)
    p50 = lambda run: statistics.median(run.latencies)
    return {
        "bench.trace_overhead_share": max(0.0, p50(traced) / p50(plain) - 1.0),
        "serve.open.mean_batch_fill":
            len(answered) / (batches * registered.layout.capacity),
        "serve.open.batches": batches,
        "serve.open.sim_ms_per_query":
            statistics.fmean(a.amortized_ms for a in answered),
        "serve.open.latency_p95_ms": percentile(ranked, 0.95),
        "serve.open.latency_p99_ms": percentile(ranked, 0.99),
        "serve.open.deadline_miss_share": wl.deadline_miss_share(spec, traced),
        "serve.scheduler.latency_p50_ms": after.latency_p50_ms,
        "bench.generator_late_p99_ms": percentile(late, 0.99),
    }


def tracer_overhead(spec, model, pool, checker, seconds: float) -> float:
    """The program's own ``Tracer`` on vs. off, passes interleaved."""
    services = []
    try:
        loops = []
        for tracer in (None, Tracer()):
            service = CopseService(
                threads=wl.POOL, engine=wl.ENGINE, backend=wl.BACKEND, tracer=tracer
            )
            services.append(service)
            registered = service.register_model(
                model.name, loads_forest(model.text), precision=model.precision
            )
            loops.append(wl.ClosedLoop(spec, service, registered, pool, checker))

        def check():
            for loop in loops:
                loop.check()
        for loop in loops:
            loop.run_pass()
        off, on = interleaved(loops[0].run_pass, loops[1].run_pass, check, seconds)
        return overhead_share(on, off)
    finally:
        for service in services:
            service.close()


# ---------------------------------------------------------------------------
# Entry: one traced run of one workload
# ---------------------------------------------------------------------------


def run_traced(workload: str, seed: int, seconds: float, trace_path: str,
               smoke: bool = False) -> wl.Outcome:
    """Per-layer metrics only.  The traced region takes half of
    ``seconds``; the layer replay takes a fixed number of passes on top."""
    outcome = wl.Outcome()
    spans = Spans(f"{workload}/seed-{seed}")
    replay = Replay(spans)
    replay_passes = 3 if smoke else REPLAY_PASSES
    stage_passes = 1 if smoke else STAGE_PASSES
    metrics = outcome.metrics
    if workload == wl.STAGE_SUITE:
        traced_stage_suite(seed, outcome, spans, replay, seconds, smoke)
    else:
        spec = wl.serve_workload(workload, smoke)
        model = load_model(spec.model)
        pool = make_queries(model, wl.QUERY_POOL, seed)
        checker = wl.Checker(model, pool, outcome)
        service, registered, _ = wl.set_up(spec, model, pool, spans)
        try:
            if spec.cluster:
                metrics["serve.cluster.spawn_s"] = (
                    span_total(spans, "construct") + span_total(spans, "preload")
                )
                metrics["serve.cluster.first_batch_ms"] = (
                    span_total(spans, "first_batch") * 1e3
                )
            if spec.rate_qps is None:
                region, request_s = closed_region(
                    spec, service, registered, pool, checker, spans, seconds / 2
                )
            else:
                region = open_region(
                    spec, service, registered, pool, checker, spans, seconds / 2, seed
                )
            metrics.update(region)
            wl.finish(spec, service, outcome)
            if spec.cluster:
                counters = service.metrics_snapshot()["counters"]
                metrics["serve.cluster.ships"] = counters["cluster_ships"]
                metrics["serve.cluster.crashes"] = counters["cluster_crashes"]
                metrics["serve.cluster.retries"] = service.stats().retries
                metrics["serve.worker.peak_rss_mb"] = workers_peak_rss_mb()
        finally:
            service.close()
        capacity = registered.layout.capacity
        metrics.update(codegen_counts(registered, pool[:capacity]))
        metrics["fhe.sim_ms_per_query"] = (
            evaluate_batch(registered, pool[:capacity])[2] / capacity
        )
        metrics.update(staging_metrics(replay, [model], stage_passes))
        layers = serve_layer_metrics(
            replay, registered, pool, checker, replay_passes,
            other_engine_passes=max(1, replay_passes // 4),
        )
        metrics.update(layers)
        if spec.cluster:
            metrics.update(transport_metrics(replay, registered, pool,
                                             max(2, replay_passes // 4)))
        if spec.rate_qps is None:
            submit_us = metrics.get(
                "serve.service.submit_us_per_query",
                metrics.get("serve.cluster.submit_us_per_query"),
            )
            serial_s = spec.request_batches * (
                capacity * submit_us + layers["serve.batcher.evaluate_us_per_batch"]
            ) / 1e6
            metrics["serve.scheduler.parallel_speedup"] = serial_s / request_s
            if spec.probe_tracer:
                metrics["obs.tracer_overhead_share"] = tracer_overhead(
                    spec, model, pool, checker, seconds / 4
                )
    spans.write(trace_path)
    return outcome


def traced_stage_suite(seed, outcome, spans, replay, seconds, smoke) -> None:
    suite = wl.StageSuite(seed, outcome, smoke)
    suite.set_up(spans)
    plain, traced = interleaved(
        suite.run_pass, lambda: suite.run_pass(spans), suite.check, seconds / 2
    )
    metrics = outcome.metrics
    metrics["bench.trace_overhead_share"] = overhead_share(traced, plain)
    totals: Dict[str, float] = defaultdict(float)
    for model in suite.models:
        registered = suite.registered[model.name]
        counts = codegen_counts(
            registered, suite.pools[model.name][: registered.layout.capacity]
        )
        for name, value in counts.items():
            if name in ("fhe.depth", "ir.tape_peak_live"):
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    metrics.update(totals)
    metrics["fhe.sim_ms_per_query"] = math.exp(statistics.fmean(
        math.log(ms) for ms in suite.sim_ms_per_query.values()
    ))
    metrics.update(staging_metrics(replay, suite.models, 1))
