"""Command-line interface for the COPSE reproduction.

Mirrors the workflow of the original system's compiler binary plus the
evaluation harness::

    python -m repro info model.txt             # model statistics + leakage
    python -m repro compile model.txt -o staged.py   # staging compiler
    python -m repro classify model.txt --features 40,200 --engine plan
    python -m repro batch-classify model.txt --features "40,200;17,3"
    python -m repro serve model.txt --queries 64 --threads 4 \
        --deadline-ms 250 --max-queue 128
    python -m repro bench fig6 --workloads depth4,width78
    python -m repro bench table5               # encryption-parameter sweep
    python -m repro bench report               # the paper record, then its claims
    python -m repro trace sim model.txt -o trace.json  # simulated soak, traced

Every inference command accepts ``--backend`` (reference / vector /
plaintext — see ``repro.fhe.backend``); ``--precision``, ``--engine``,
``--seed``, and ``--backend`` are shared option groups declared once on
parent parsers and attached where they apply.

``model.txt`` is the paper's Section 5 serialization (see
``repro.forest.serialize``).  ``batch-classify`` and ``serve`` route
through :mod:`repro.serve`: the model is compiled and encrypted once and
the queries share ciphertext slots via cross-query SIMD packing.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import CopseError, ValidationError
from repro.core.codegen import generate_module_source
from repro.core.compiler import CopseCompiler
from repro.core.engines import ENGINES
from repro.core.runtime import secure_inference
from repro.forest.serialize import loads_forest


def build_parser() -> argparse.ArgumentParser:
    from repro.bench_harness.report_gen import ARTIFACTS
    from repro.fhe.backend import available_backends

    parser = argparse.ArgumentParser(
        prog="repro",
        description="COPSE: vectorized secure evaluation of decision forests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared option groups (argparse parent parsers), so the knobs every
    # command repeats are declared once.  ``--engine`` defaults per
    # command via set_defaults: single-query classification interprets
    # eagerly, the batched service prefers the cached plan.
    model_opts = argparse.ArgumentParser(add_help=False)
    model_opts.add_argument(
        "--precision", type=int, default=8,
        help="fixed-point precision in bits (default: 8)",
    )

    backend_opts = argparse.ArgumentParser(add_help=False)
    backend_opts.add_argument(
        "--backend", choices=available_backends(), default=None,
        help="FHE backend to evaluate on (default: $REPRO_BACKEND or "
        "'reference'; 'vector' is the fast engine, 'plaintext' the "
        "no-noise debug engine)",
    )

    run_opts = argparse.ArgumentParser(add_help=False, parents=[backend_opts])
    run_opts.add_argument(
        "--engine",
        choices=list(ENGINES),
        default=None,
        help="execution path: the eager Algorithm 1 interpreter, the "
        "optimized IR inference plan, the compiled tape (linearized "
        "plan with register reuse and fused kernels), or the megakernel "
        "(the tape compiled into zero-dispatch vectorized segments; "
        "default: eager for classify, tape for the batched commands)",
    )

    seed_opts = argparse.ArgumentParser(add_help=False)
    seed_opts.add_argument(
        "--seed", type=int, default=1234,
        help="random seed for synthetic query generation",
    )

    info = sub.add_parser(
        "info", parents=[model_opts],
        help="print model statistics and leakage",
    )
    info.add_argument("model", help="serialized model file (Section 5 format)")

    compile_cmd = sub.add_parser(
        "compile", parents=[model_opts],
        help="stage a model into a specialized Python module",
    )
    compile_cmd.add_argument("model")
    compile_cmd.add_argument("-o", "--output", required=True)

    classify = sub.add_parser(
        "classify", parents=[model_opts, run_opts],
        help="run one secure inference end to end",
    )
    classify.set_defaults(engine="eager")
    classify.add_argument("model")
    classify.add_argument(
        "--features", required=True,
        help="comma-separated integer feature values",
    )
    classify.add_argument(
        "--plaintext-model", action="store_true",
        help="Maurice-equals-Sally configuration (model not encrypted)",
    )

    batch = sub.add_parser(
        "batch-classify", parents=[model_opts, run_opts],
        help="classify many queries at once via cross-query SIMD packing",
    )
    batch.set_defaults(engine="tape")
    batch.add_argument("model")
    batch.add_argument(
        "--features",
        help="semicolon-separated queries, each a comma-separated integer "
        "feature list, e.g. '40,200;17,3'",
    )
    batch.add_argument(
        "--features-file",
        help="file with one comma-separated feature list per line",
    )
    batch.add_argument("--threads", type=int, default=2)
    batch.add_argument(
        "--batch-size", type=int, default=None,
        help="cap queries packed per ciphertext (default: slot capacity)",
    )
    batch.add_argument(
        "--plaintext-model", action="store_true",
        help="keep the model in plaintext on the server (Maurice = Sally)",
    )

    serve = sub.add_parser(
        "serve", parents=[model_opts, run_opts, seed_opts],
        help="drive the batched inference service with a synthetic "
        "query stream and report throughput",
    )
    serve.set_defaults(engine="tape")
    serve.add_argument("model")
    serve.add_argument("--queries", type=int, default=32)
    serve.add_argument(
        "--threads", type=int, default=2,
        help="worker slots of the in-process scheduler and of the "
        "simulated-cost book; one thread evaluates them (wall-clock "
        "parallelism is --workers)",
    )
    serve.add_argument(
        "--workers", type=int, default=None,
        help="evaluate batches in this many worker processes (the "
        "router ships the compiled model to each worker once, crashes "
        "respawn under a new epoch); must be >= 1 when given; default "
        "evaluates them in-process, on the service's own thread",
    )
    serve.add_argument(
        "--autoscale", action="store_true",
        help="run the control plane over the live service: an "
        "SLO/backlog autoscale policy behind the guard rail, ticked "
        "every --control-interval seconds; prints the auditable "
        "decision log at the end",
    )
    serve.add_argument(
        "--workers-min", type=int, default=1,
        help="autoscale floor for the worker pool (default: 1)",
    )
    serve.add_argument(
        "--workers-max", type=int, default=8,
        help="autoscale ceiling for the worker pool (default: 8)",
    )
    serve.add_argument(
        "--control-interval", type=float, default=1.0,
        help="seconds between control-plane ticks under --autoscale "
        "(default: 1.0)",
    )
    serve.add_argument("--batch-size", type=int, default=None)
    serve.add_argument("--plaintext-model", action="store_true")
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query deadline in ms: partial batches dispatch when "
        "the oldest query's slack runs out, and misses are reported "
        "(default: no deadlines, best-effort)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None,
        help="bound the pending queue; over-admission is rejected with "
        "an explicit error instead of queueing without bound "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--stats-interval", type=int, default=None,
        help="emit a metrics-snapshot JSONL line after every N submitted "
        "queries (and once at the end); pretty-print a captured line "
        "with 'repro metrics'",
    )
    serve.add_argument(
        "--dlq-out", default=None,
        help="write the dead-letter queue (poison queries quarantined "
        "after crashing workers; always empty without --workers, where "
        "no worker can crash) as JSON to this path; inspect it with "
        "'repro dlq'",
    )

    trace = sub.add_parser(
        "trace",
        help="observability reports: per-opcode tape profile, or a "
        "Perfetto-loadable trace of a simulated serve run",
    )
    trace_sub = trace.add_subparsers(dest="trace_kind", required=True)

    trace_tape = trace_sub.add_parser(
        "tape", parents=[model_opts, backend_opts],
        help="profile one full-capacity batched tape evaluation: wall "
        "time, primitive ops, and noise depth per opcode and per "
        "instruction range",
    )
    trace_tape.add_argument("model")
    trace_tape.add_argument("--batch-size", type=int, default=None)
    trace_tape.add_argument(
        "--seed", type=int, default=1234,
        help="random seed for synthetic query generation",
    )
    trace_tape.add_argument(
        "--json", dest="json_out", default=None,
        help="also write the profile as a JSON record to this path",
    )

    trace_sim = trace_sub.add_parser(
        "sim", parents=[model_opts],
        help="run the deterministic scheduler simulation with span "
        "tracing and export the trace (Chrome trace-event JSON loads "
        "in Perfetto; JSONL is one span record per line)",
    )
    trace_sim.add_argument("model")
    trace_sim.add_argument("--queries", type=int, default=200)
    trace_sim.add_argument("--threads", type=int, default=2)
    trace_sim.add_argument("--seed", type=int, default=4242)
    trace_sim.add_argument(
        "--format", choices=["chrome", "jsonl"], default="chrome",
        help="export format (default: chrome)",
    )
    trace_sim.add_argument(
        "-o", "--out", required=True,
        help="output path for the exported trace",
    )

    metrics_cmd = sub.add_parser(
        "metrics",
        help="pretty-print a metrics snapshot captured from "
        "'repro serve --stats-interval' (JSON object, or JSONL: the "
        "last line is used)",
    )
    metrics_cmd.add_argument("snapshot", help="snapshot file (JSON/JSONL)")

    dlq_cmd = sub.add_parser(
        "dlq",
        help="pretty-print a dead-letter queue dump written by "
        "'repro serve --dlq-out' (quarantined poison queries with "
        "their bisection provenance)",
    )
    dlq_cmd.add_argument("dump", help="DLQ dump file (JSON)")

    bench = sub.add_parser(
        "bench", parents=[backend_opts],
        help="regenerate a paper figure/table",
    )
    bench.add_argument("artifact", choices=[*ARTIFACTS, "report"])
    bench.add_argument(
        "--workloads",
        help="comma-separated workload names (default: every workload "
        "for figures, width78 for the single-workload artifacts)",
    )
    bench.add_argument(
        "--queries", type=int, default=None,
        help="queries per run (default: what the paper record uses, "
        "1 for the figures)",
    )
    bench.add_argument(
        "--out", default=None,
        help="'report' only: also write the record JSON here (the "
        "checked-in reference is tests/bench/paper_record.json)",
    )

    return parser


def _load_compiled(path: str, precision: int):
    with open(path) as handle:
        forest = loads_forest(handle.read())
    compiled = CopseCompiler(precision=precision).compile(forest)
    return forest, compiled


def _cmd_info(args) -> int:
    forest, compiled = _load_compiled(args.model, args.precision)
    print(forest.describe())
    print(compiled.describe())
    params = CopseCompiler().select_parameters(compiled)
    print("selected parameters:", params.describe())
    print(
        "revealed to the evaluator: q="
        f"{compiled.quantized_branching} b={compiled.branching} "
        f"d={compiled.max_depth}; revealed to the client: "
        f"K={compiled.max_multiplicity}"
    )
    return 0


def _cmd_compile(args) -> int:
    _, compiled = _load_compiled(args.model, args.precision)
    source = generate_module_source(compiled)
    with open(args.output, "w") as handle:
        handle.write(source)
    print(
        f"staged {compiled.describe()}\n"
        f"-> {args.output} ({len(source.splitlines())} lines)"
    )
    return 0


def _cmd_classify(args) -> int:
    forest, compiled = _load_compiled(args.model, args.precision)
    try:
        features = [int(v) for v in args.features.split(",")]
    except ValueError:
        print(f"error: features must be integers, got {args.features!r}",
              file=sys.stderr)
        return 2
    outcome = secure_inference(
        compiled,
        features,
        encrypted_model=not args.plaintext_model,
        engine=args.engine,
        backend=args.backend,
    )
    result = outcome.result
    expected = forest.label_bitvector(features)
    print(f"features: {features}")
    print(f"engine: {args.engine}")
    print(f"backend: {outcome.backend}")
    print(f"per-tree labels: "
          f"{[result.label_names[l] for l in result.chosen_labels]}")
    print(f"plurality: {result.plurality_name()}")
    print(f"oracle agreement: "
          f"{'ok' if result.bitvector == expected else 'MISMATCH'}")
    return 0 if result.bitvector == expected else 1


def _parse_query_list(text: str) -> List[List[int]]:
    """Parse ``'40,200;17,3'`` into a list of integer feature vectors."""
    queries: List[List[int]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            queries.append([int(v) for v in chunk.split(",")])
        except ValueError:
            raise _FeatureParseError(
                f"features must be integers, got {chunk!r}"
            )
    if not queries:
        raise _FeatureParseError("no queries given")
    return queries


class _FeatureParseError(ValueError):
    """Bad ``--features`` input (usage error: exit code 2)."""


def _load_queries(args) -> List[List[int]]:
    if bool(args.features) == bool(args.features_file):
        raise _FeatureParseError(
            "provide exactly one of --features or --features-file"
        )
    if args.features:
        return _parse_query_list(args.features)
    with open(args.features_file) as handle:
        return _parse_query_list(";".join(handle.read().splitlines()))


def _check_service_args(args) -> None:
    """Usage validation that must run before the model is compiled."""
    if args.threads < 1:
        raise _FeatureParseError(f"--threads must be >= 1, got {args.threads}")
    if args.batch_size is not None and args.batch_size < 1:
        raise _FeatureParseError(
            f"--batch-size must be >= 1, got {args.batch_size}"
        )
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is not None and deadline_ms <= 0:
        raise _FeatureParseError(
            f"--deadline-ms must be > 0, got {deadline_ms}"
        )
    max_queue = getattr(args, "max_queue", None)
    if max_queue is not None and max_queue < 1:
        raise _FeatureParseError(
            f"--max-queue must be >= 1, got {max_queue}"
        )


def _cmd_batch_classify(args) -> int:
    from repro.serve import CopseService

    # Usage errors are checked before the (expensive) model compilation.
    _check_service_args(args)
    queries = _load_queries(args)
    forest, compiled = _load_compiled(args.model, args.precision)
    with CopseService(
        threads=args.threads, engine=args.engine, backend=args.backend
    ) as service:
        service.register_model(
            "cli",
            compiled,
            max_batch_size=args.batch_size,
            encrypted_model=not args.plaintext_model,
        )
        results = service.classify_many("cli", queries)
        stats = service.stats()
    all_ok = True
    for features, res in zip(queries, results):
        ok = "ok" if res.oracle_ok else "MISMATCH"
        all_ok = all_ok and bool(res.oracle_ok)
        print(
            f"features {features} -> {res.plurality_name()} "
            f"(batch {res.batch_id}, fill {res.batch_fill}/"
            f"{res.batch_capacity}, oracle {ok})"
        )
    print(stats.render())
    return 0 if all_ok else 1


def _cmd_serve(args) -> int:
    import json

    import numpy as np

    from repro.errors import RejectedQuery
    from repro.serve import ClusterService, CopseService

    _check_service_args(args)
    if args.queries < 1:
        raise _FeatureParseError(f"--queries must be >= 1, got {args.queries}")
    if args.workers is not None and args.workers < 1:
        raise _FeatureParseError(
            f"--workers must be >= 1, got {args.workers}"
        )
    interval = args.stats_interval
    if interval is not None and interval < 1:
        raise _FeatureParseError(
            f"--stats-interval must be >= 1, got {interval}"
        )
    if args.workers_min < 1:
        raise _FeatureParseError(
            f"--workers-min must be >= 1, got {args.workers_min}"
        )
    if args.workers_max < args.workers_min:
        raise _FeatureParseError(
            f"--workers-max must be >= --workers-min, got "
            f"{args.workers_max} < {args.workers_min}"
        )
    if args.control_interval <= 0:
        raise _FeatureParseError(
            f"--control-interval must be > 0, got {args.control_interval}"
        )
    forest, compiled = _load_compiled(args.model, args.precision)
    rng = np.random.default_rng(args.seed)
    limit = 1 << compiled.precision
    queries = [
        [int(v) for v in rng.integers(0, limit, compiled.n_features)]
        for _ in range(args.queries)
    ]
    rejected = 0
    clustered = args.workers is not None
    # One facade either way: only where a batch is evaluated differs.
    facade, pool = (
        (ClusterService, {"workers": args.workers}) if clustered
        else (CopseService, {"threads": args.threads})
    )
    service_cm = facade(
        engine=args.engine,
        backend=args.backend,
        default_deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        **pool,
    )
    with service_cm as service:
        registered = service.register_model(
            "cli",
            compiled,
            max_batch_size=args.batch_size,
            encrypted_model=not args.plaintext_model,
        )
        mode = (
            f"{args.workers} worker processes" if clustered
            else f"{args.threads} threads"
        )
        print(f"serving {registered.describe()} ({mode})")

        controller = None
        last_tick = None
        if args.autoscale:
            import time

            from repro.control import (
                AutoscalePolicy,
                Controller,
                GuardConfig,
                GuardRail,
                Plant,
            )

            autoscale_policy = AutoscalePolicy(
                slo_p99_ms=args.deadline_ms
            )
            controller = Controller(
                Plant(service),
                [autoscale_policy],
                GuardRail(GuardConfig(
                    workers_min=args.workers_min,
                    workers_max=args.workers_max,
                )),
            )
            last_tick = time.monotonic()
            controller.tick(last_tick)

        def control_tick(due: bool = False) -> None:
            """Tick the controller, if any, once the interval has passed
            (or now, when ``due``)."""
            nonlocal last_tick
            if controller is None:
                return
            now = time.monotonic()
            if due or now - last_tick >= args.control_interval:
                controller.tick(now)
                last_tick = now

        def emit_snapshot() -> None:
            print(json.dumps(service.metrics_snapshot(), sort_keys=True))

        futures = []
        for i, features in enumerate(queries, start=1):
            try:
                futures.append(service.submit("cli", features))
            except RejectedQuery:
                # Bounded queue at capacity: shed and keep driving (the
                # open-loop load generator's behavior).
                rejected += 1
            if interval is not None and i % interval == 0:
                emit_snapshot()
            control_tick()
        service.flush("cli")
        results = []
        for f in futures:
            results.append(f.result())
            control_tick()
        if controller is not None:
            # The drained system is the half of the story the policy
            # could never see from inside the submit loop: once load
            # ends, no further submissions means no further ticks, so
            # the sustain-down counter could never reach its threshold
            # and the pool stayed scaled up forever.  A bounded run of
            # post-drain ticks lets the policy observe the idle plant
            # long enough to propose (and the guard rail to actuate) a
            # scale-down before the report prints.
            for _ in range(autoscale_policy.sustain_down + 1):
                control_tick(due=True)
        if interval is not None:
            emit_snapshot()
        stats = service.stats()
        dead_letters = service.dlq()
    failures = sum(1 for r in results if r.oracle_ok is False)
    print(stats.render())
    if args.dlq_out is not None:
        with open(args.dlq_out, "w") as handle:
            json.dump(dead_letters, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"dead-letter queue: {len(dead_letters)} entries -> "
            f"{args.dlq_out} (inspect with 'repro dlq')"
        )
    elif dead_letters:
        print(
            f"dead-letter queue: {len(dead_letters)} quarantined "
            f"queries (re-run with --dlq-out to dump them)"
        )
    if rejected:
        print(f"admission control shed {rejected} queries (--max-queue "
              f"{args.max_queue})")
    if controller is not None:
        applied = len(controller.applied())
        vetoed = len(controller.rejections())
        print(
            f"control plane: {controller.ticks} ticks, {applied} "
            f"actuations applied, {vetoed} rejected (every rejection "
            f"carries a reason)"
        )
        for record in controller.decision_log:
            print("  " + json.dumps(record))
    print(
        f"oracle agreement: "
        f"{'ok' if failures == 0 else f'{failures} MISMATCHES'}"
    )
    return 0 if failures == 0 else 1


def _cmd_bench(args) -> int:
    from repro.bench_harness import claims, report_gen
    from repro.fhe.backend import canonical_backend_name

    if args.artifact in report_gen.ARTIFACTS:
        if args.out is not None:
            raise ValidationError(
                f"section {args.artifact!r} does not take --out: only "
                f"'report' writes a record"
            )
        names = args.workloads.split(",") if args.workloads else None
        with report_gen.pinned_backend(canonical_backend_name(args.backend)):
            tables = report_gen.build_section(
                args.artifact, names, args.queries
            )
        print("\n\n".join(table.render() for table in tables))
        return 0
    # "report": every section, with the record's own arguments and backend,
    # then the paper's claims checked against them (exit 1 if one fails).
    for flag, given in (("--workloads", args.workloads),
                        ("--queries", args.queries),
                        ("--backend", args.backend)):
        if given is not None:
            raise ValidationError(
                f"'report' does not take {flag}: it builds every section "
                f"with the record's own arguments, on the reference backend"
            )
    sections = report_gen.build_sections()
    print(report_gen.render_report(sections), end="")
    if args.out is not None:
        report_gen.write_record(report_gen.build_record(sections), args.out)
        print(f"wrote {args.out}")
    return 1 if claims.failures(sections) else 0


def _cmd_trace(args) -> int:
    if args.trace_kind == "tape":
        return _cmd_trace_tape(args)
    return _cmd_trace_sim(args)


def _cmd_trace_tape(args) -> int:
    import json

    import numpy as np

    from repro.fhe.context import FheContext
    from repro.ir.plan import bind_model_query
    from repro.obs.profiler import TapeProfiler
    from repro.serve.batched_runtime import encrypt_batch
    from repro.serve.registry import ModelRegistry

    if args.batch_size is not None and args.batch_size < 1:
        raise _FeatureParseError(
            f"--batch-size must be >= 1, got {args.batch_size}"
        )
    _, compiled = _load_compiled(args.model, args.precision)
    registered = ModelRegistry().register(
        "cli", compiled, max_batch_size=args.batch_size,
        backend=args.backend, engine="tape",
    )
    rng = np.random.default_rng(args.seed)
    limit = 1 << compiled.precision
    queries = [
        [int(v) for v in rng.integers(0, limit, compiled.n_features)]
        for _ in range(registered.layout.capacity)
    ]
    ctx = FheContext(registered.params, backend=registered.backend)
    query = encrypt_batch(ctx, registered.layout, queries, registered.keys)
    bindings = bind_model_query(
        ctx,
        registered.tape.input_widths,
        registered.tape.encrypted_model,
        registered.tape.model_fingerprint,
        registered.batched_model,
        query,
    )
    profiler = TapeProfiler()
    registered.tape.execute(ctx, bindings, profiler=profiler)
    print(
        f"tape profile: {registered.describe()}\n"
        f"({len(queries)}-query batch, backend {registered.backend})\n"
    )
    print(profiler.report())
    if args.json_out:
        record = profiler.as_dict()
        record["model"] = args.model
        record["backend"] = registered.backend
        with open(args.json_out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json_out}")
    return 0


def _cmd_trace_sim(args) -> int:
    import json

    from repro.obs.trace import Tracer
    from repro.serve import (
        FaultPlan,
        ModelProfile,
        SimRunner,
        TenantSpec,
        generate_arrivals,
    )
    from repro.serve.registry import ModelRegistry
    from repro.serve.simclock import MS

    if args.queries < 1:
        raise _FeatureParseError(
            f"--queries must be >= 1, got {args.queries}"
        )
    if args.threads < 1:
        raise _FeatureParseError(
            f"--threads must be >= 1, got {args.threads}"
        )
    _, compiled = _load_compiled(args.model, args.precision)
    registered = ModelRegistry().register("cli", compiled)
    profile = ModelProfile.from_registered(
        registered, max_pending=max(64, 4 * registered.batch_capacity)
    )
    # Two Poisson tenants and one bursty one at moderate load, with
    # deadlines at 2x the batch cost, one worker crash halfway through
    # and every 13th batch slow.
    service_s = profile.service_ms * MS
    rate = 0.6 * args.threads * profile.capacity / service_s
    deadline_ms = 2.0 * profile.service_ms
    tenants = [
        TenantSpec(name="steady-a", model=profile.name,
                   rate_qps=rate * 0.5, deadline_ms=deadline_ms),
        TenantSpec(name="steady-b", model=profile.name,
                   rate_qps=rate * 0.35, deadline_ms=deadline_ms),
        TenantSpec(name="bursty", model=profile.name,
                   burst_every_s=40.0 * service_s,
                   burst_size=max(1, profile.capacity // 2),
                   deadline_ms=deadline_ms),
    ]
    arrivals = generate_arrivals(
        tenants, seed=args.seed, total_queries=args.queries
    )
    crash_at = arrivals[len(arrivals) // 2].time
    tracer = Tracer()
    runner = SimRunner([profile], workers=args.threads, tracer=tracer)
    report = runner.run(
        arrivals,
        FaultPlan(worker_crashes=(crash_at,), slow_every=13,
                  slow_factor=2.0),
    )
    spans = tracer.spans()
    if args.format == "chrome":
        from repro.obs.trace import chrome_json

        payload = chrome_json(spans)
    else:
        from repro.obs.trace import export_jsonl

        payload = export_jsonl(spans)
    with open(args.out, "w") as handle:
        handle.write(payload)
    stats = report.stats
    print(
        f"simulated {stats.submitted} submissions on {args.threads} "
        f"workers (seed {args.seed}): {stats.completed} completed, "
        f"{stats.rejected} rejected, {stats.failed} failed, "
        f"{stats.batches} batches"
    )
    print(
        f"wrote {len(spans)} spans ({args.format}, deterministic per "
        f"seed) to {args.out}"
    )
    return 0


def _render_metric_block(title: str, entries, fmt) -> List[str]:
    lines: List[str] = []
    if entries:
        lines.append(f"{title}:")
        width = max(len(name) for name in entries)
        for name in sorted(entries):
            lines.append(f"  {name:<{width}} : {fmt(entries[name])}")
    return lines


def _cmd_metrics(args) -> int:
    import json

    with open(args.snapshot) as handle:
        text = handle.read().strip()
    if not text:
        raise _FeatureParseError(f"{args.snapshot} is empty")
    # Accept a plain JSON object or JSONL (use the newest snapshot line).
    line = text.splitlines()[-1]
    try:
        snapshot = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _FeatureParseError(
            f"{args.snapshot} is not a metrics snapshot: {exc}"
        )
    if not isinstance(snapshot, dict):
        raise _FeatureParseError(
            f"{args.snapshot} is not a metrics snapshot (expected a JSON "
            f"object)"
        )

    def fmt_number(value) -> str:
        if isinstance(value, float) and not value.is_integer():
            return f"{value:.6g}"
        return str(int(value)) if isinstance(value, (int, float)) else str(value)

    def fmt_histogram(value) -> str:
        if isinstance(value, dict):
            return (
                f"count={fmt_number(value.get('count', 0))} "
                f"sum={fmt_number(value.get('sum', 0.0))} "
                f"max={fmt_number(value.get('max', 0.0))} "
                f"p50={fmt_number(value.get('p50', 0.0))} "
                f"p99={fmt_number(value.get('p99', 0.0))}"
            )
        return str(value)

    lines: List[str] = [f"metrics snapshot ({args.snapshot})"]
    lines += _render_metric_block(
        "counters", snapshot.get("counters", {}), fmt_number
    )
    lines += _render_metric_block(
        "gauges", snapshot.get("gauges", {}), fmt_number
    )
    lines += _render_metric_block(
        "histograms", snapshot.get("histograms", {}), fmt_histogram
    )
    if len(lines) == 1:
        lines.append("(no instruments recorded)")
    print("\n".join(lines))
    return 0


def _cmd_dlq(args) -> int:
    import json

    with open(args.dump) as handle:
        text = handle.read().strip()
    if not text:
        raise _FeatureParseError(f"{args.dump} is empty")
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _FeatureParseError(f"{args.dump} is not a DLQ dump: {exc}")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) for e in entries
    ):
        raise _FeatureParseError(
            f"{args.dump} is not a DLQ dump (expected a JSON array of "
            f"objects)"
        )
    print(f"dead-letter queue ({args.dump}): {len(entries)} entries")
    if not entries:
        print("(empty: no query was quarantined)")
        return 0
    for i, entry in enumerate(entries):
        print(
            f"  [{i}] model={entry.get('model')} "
            f"tenant={entry.get('tenant')} seq={entry.get('seq')} "
            f"origin_batch={entry.get('origin_batch')} "
            f"attempts={entry.get('attempts')} t={entry.get('time')}"
        )
        reason = entry.get("reason")
        if reason:
            print(f"      {reason}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "compile": _cmd_compile,
        "classify": _cmd_classify,
        "batch-classify": _cmd_batch_classify,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "dlq": _cmd_dlq,
    }
    try:
        return handlers[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FeatureParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CopseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
