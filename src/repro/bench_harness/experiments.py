"""One entry point per artifact of the paper's evaluation (Section 8).

Every function returns :class:`~repro.bench_harness.report.Table` (or a
list of them) whose rows mirror the corresponding paper figure/table:

========  ==========================================================
figure6   COPSE vs baseline speedup, single-threaded (5-7x, gm ~6x)
figure7   multithreaded vs single-threaded COPSE speedup
figure8   COPSE vs baseline speedup, both multithreaded
figure9   plaintext-model vs encrypted-model speedup (~1.4x)
figure10  per-phase runtime breakdowns vs depth / branches / precision
table1    per-step op counts: measured vs our formulas vs the paper's
table2    total op counts and multiplicative depth
table5    encryption-parameter sweep and the dominant setting
table6    the microbenchmark suite's structural statistics
========  ==========================================================

Results are memoized per (workload, configuration) within the process, so
regenerating several figures shares runs.  A run that disagrees with the
plaintext oracle raises :class:`~repro.errors.OracleMismatchError`, so
every figure cell is also a correctness check.  ``queries`` defaults to 3 to
keep test/benchmark runs quick; pass ``queries=27`` for the paper's full
median protocol (the circuits are input-independent, so the timings are
identical — see runner.py).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.complexity import (
    CopseComplexity,
    impl_accumulation,
    impl_comparison,
    impl_levels_shared,
    impl_reshuffle,
    impl_single_level,
    merge_counts,
    paper_accumulation,
    paper_comparison,
    paper_single_level,
    paper_total,
    paper_total_depth,
)
from repro.errors import OracleMismatchError
from repro.fhe.backend import canonical_backend_name
from repro.fhe.params import EncryptionParams, parameter_grid
from repro.bench_harness.report import Table, geometric_mean
from repro.bench_harness.runner import (
    ExperimentRecord,
    InferenceRunner,
    RunnerConfig,
    SYSTEM_BASELINE,
    SYSTEM_COPSE,
)
from repro.bench_harness.workloads import (
    MICROBENCHMARKS,
    PAPER_THREAD_COUNT,
    Workload,
    cached_workloads,
)

_RECORD_CACHE: Dict[Tuple, ExperimentRecord] = {}


def _run(
    workload: Workload,
    system: str,
    queries: int,
    threads: int = 1,
    encrypted_model: bool = True,
) -> ExperimentRecord:
    # The effective FHE backend (the process default unless a config
    # overrides it) is part of the memo key: a record produced under
    # one backend must never be served to a run under another.
    backend = canonical_backend_name()
    key = (workload.name, system, queries, threads, encrypted_model, backend)
    if key not in _RECORD_CACHE:
        config = RunnerConfig(
            system=system,
            queries=queries,
            threads=threads,
            encrypted_model=encrypted_model,
            backend=backend,
        )
        record = InferenceRunner(workload, config).run()
        if not record.correct:
            raise OracleMismatchError(
                f"{workload.name}: a {system} run ({queries} queries, "
                f"{threads} threads, encrypted_model={encrypted_model}, "
                f"{backend}) disagrees with the plaintext oracle"
            )
        _RECORD_CACHE[key] = record
    return _RECORD_CACHE[key]


def _workloads(names: Optional[Sequence[str]]) -> List[Workload]:
    return cached_workloads(names)


def _append_geomeans(table: Table, speedup_col: str) -> None:
    """Add the paper's micro / real-world geomean summary rows."""
    idx = table.columns.index(speedup_col)
    micro = [r[idx] for r in table.rows if r[-1] == "micro"]
    real = [r[idx] for r in table.rows if r[-1] == "real"]
    if micro:
        table.add_note(f"geomean (micro-bench): {geometric_mean(micro):.2f}x")
    if real:
        table.add_note(f"geomean (real-world): {geometric_mean(real):.2f}x")


# ---------------------------------------------------------------------------
# Figures 6-9
# ---------------------------------------------------------------------------


def figure6(
    queries: int = 3, workload_names: Optional[Sequence[str]] = None
) -> Table:
    """Single-threaded COPSE speedup over the Aloufi baseline."""
    table = Table(
        title="Figure 6: COPSE vs Aloufi et al., single-threaded",
        columns=[
            "model",
            "copse_ms",
            "baseline_ms",
            "speedup",
            "category",
        ],
    )
    for workload in _workloads(workload_names):
        copse = _run(workload, SYSTEM_COPSE, queries)
        base = _run(workload, SYSTEM_BASELINE, queries)
        table.add_row(
            workload.name,
            copse.median_ms,
            base.median_ms,
            base.median_ms / copse.median_ms,
            workload.category,
        )
    _append_geomeans(table, "speedup")
    return table


def figure7(
    queries: int = 3, workload_names: Optional[Sequence[str]] = None
) -> Table:
    """Multithreaded COPSE speedup over single-threaded COPSE."""
    table = Table(
        title="Figure 7: COPSE multithreaded vs single-threaded",
        columns=[
            "model",
            "single_ms",
            "multi_ms",
            "speedup",
            "category",
        ],
    )
    for workload in _workloads(workload_names):
        single = _run(workload, SYSTEM_COPSE, queries, threads=1)
        multi = _run(
            workload, SYSTEM_COPSE, queries, threads=PAPER_THREAD_COUNT
        )
        table.add_row(
            workload.name,
            single.median_ms,
            multi.median_ms,
            single.median_ms / multi.median_ms,
            workload.category,
        )
    _append_geomeans(table, "speedup")
    return table


def figure8(
    queries: int = 3, workload_names: Optional[Sequence[str]] = None
) -> Table:
    """COPSE speedup over the baseline when both are multithreaded."""
    table = Table(
        title="Figure 8: COPSE vs Aloufi et al., both multithreaded",
        columns=[
            "model",
            "copse_ms",
            "baseline_ms",
            "speedup",
            "category",
        ],
    )
    for workload in _workloads(workload_names):
        copse = _run(
            workload, SYSTEM_COPSE, queries, threads=PAPER_THREAD_COUNT
        )
        base = _run(
            workload, SYSTEM_BASELINE, queries, threads=PAPER_THREAD_COUNT
        )
        table.add_row(
            workload.name,
            copse.median_ms,
            base.median_ms,
            base.median_ms / copse.median_ms,
            workload.category,
        )
    _append_geomeans(table, "speedup")
    return table


def figure9(
    queries: int = 3,
    workload_names: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> Table:
    """Plaintext-model (Maurice = Sally) vs encrypted-model inference.

    Sequential by default, which reproduces the paper's headline "roughly
    1.4x" claim; pass ``threads=32`` for the multithreaded variant the
    paper's bar annotations (~10 ms) correspond to (there, synchronization
    overhead compresses the microbenchmark ratios toward 1).
    """
    table = Table(
        title="Figure 9: plaintext vs encrypted model inference",
        columns=[
            "model",
            "encrypted_ms",
            "plaintext_ms",
            "speedup",
            "category",
        ],
    )
    for workload in _workloads(workload_names):
        encrypted = _run(
            workload, SYSTEM_COPSE, queries, threads=threads, encrypted_model=True
        )
        plaintext = _run(
            workload, SYSTEM_COPSE, queries, threads=threads, encrypted_model=False
        )
        table.add_row(
            workload.name,
            encrypted.median_ms,
            plaintext.median_ms,
            encrypted.median_ms / plaintext.median_ms,
            workload.category,
        )
    _append_geomeans(table, "speedup")
    return table


# ---------------------------------------------------------------------------
# Figure 10: per-phase breakdowns
# ---------------------------------------------------------------------------

_FIG10_FAMILIES = {
    "a (depth)": ("depth4", "depth5", "depth6"),
    "b (branches)": ("width55", "width78", "width677"),
    "c (precision)": ("prec8", "prec16"),
}

_COPSE_PHASE_COLUMNS = ("comparison", "reshuffle", "levels", "accumulate")


def figure10(queries: int = 1) -> List[Table]:
    """Per-phase runtime breakdown across the microbenchmark families."""
    tables: List[Table] = []
    for family, names in _FIG10_FAMILIES.items():
        table = Table(
            title=f"Figure 10{family}: per-phase runtime (ms)",
            columns=["model"] + [f"{p}_ms" for p in _COPSE_PHASE_COLUMNS]
            + ["total_ms"],
        )
        for workload in _workloads(names):
            record = _run(workload, SYSTEM_COPSE, queries)
            phases = [record.phase_ms[p] for p in _COPSE_PHASE_COLUMNS]
            table.add_row(workload.name, *phases, sum(phases))
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# Tables 1, 2: complexity validation
# ---------------------------------------------------------------------------


def table1(workload_name: str = "width78", queries: int = 1) -> List[Table]:
    """Per-step op counts: measured vs implementation vs paper formulas."""
    workload = _workloads([workload_name])[0]
    compiled = workload.compiled
    p = compiled.precision
    b = compiled.branching
    q = compiled.quantized_branching
    d = compiled.max_depth

    rec = _run(workload, SYSTEM_COPSE, queries)

    steps = [
        (
            "(a) comparison",
            "comparison",
            impl_comparison(p),
            paper_comparison(p),
        ),
        (
            "(b) one level (x d)",
            None,
            impl_single_level(b),
            paper_single_level(b),
        ),
        (
            "(c) accumulation",
            "accumulate",
            impl_accumulation(d),
            paper_accumulation(d),
        ),
    ]
    tables: List[Table] = []
    for title, _, impl, paper in steps:
        table = Table(
            title=f"Table 1{title} — p={p} b={b} q={q} d={d}",
            columns=["op", "impl_formula", "paper_formula"],
        )
        for op in sorted(set(impl) | set(paper)):
            table.add_row(op, impl.get(op, 0), paper.get(op, 0))
        tables.append(table)
    # Measured per-phase counts for the record.
    measured = Table(
        title=f"Table 1 (measured phase counts) — {workload.name}",
        columns=["phase", "counts"],
    )
    for phase, ms in rec.phase_ms.items():
        measured.add_row(phase, f"{ms:.2f} ms")
    tables.append(measured)
    return tables


def table2(workload_name: str = "width78", queries: int = 1) -> Table:
    """Total evaluation complexity: measured vs formulas, plus depth."""
    workload = _workloads([workload_name])[0]
    compiled = workload.compiled
    record = _run(workload, SYSTEM_COPSE, queries)
    complexity = CopseComplexity(
        precision=compiled.precision,
        branching=compiled.branching,
        quantized_branching=compiled.quantized_branching,
        max_depth=compiled.max_depth,
    )
    impl = complexity.impl_counts()
    paper = paper_total(
        compiled.precision,
        compiled.quantized_branching,
        compiled.max_depth,
        compiled.branching,
    )
    table = Table(
        title=f"Table 2: total evaluation complexity — {workload.name}",
        columns=["op", "measured", "impl_formula", "paper_formula"],
    )
    for op in sorted(set(record.op_counts) | set(impl) | set(paper)):
        table.add_row(
            op,
            record.op_counts.get(op, 0),
            impl.get(op, 0),
            paper.get(op, 0),
        )
    table.add_row(
        "mult_depth",
        record.multiplicative_depth,
        complexity.impl_depth(),
        paper_total_depth(compiled.precision, compiled.max_depth),
    )
    return table


# ---------------------------------------------------------------------------
# Table 5: encryption-parameter sweep
# ---------------------------------------------------------------------------


def table5(
    workload_names: Optional[Sequence[str]] = None,
    min_security: int = 128,
) -> Table:
    """Sweep encryption parameters; report feasibility and the winner.

    Feasibility covers every benchmark model (by default the full suite:
    the deepest circuit is prec16, the widest is income15) — the paper's
    finding is that a single setting dominates all models.
    """
    workloads = _workloads(workload_names)
    need_depth = max(w.compiled.multiplicative_depth for w in workloads)
    need_width = max(w.compiled.required_width() for w in workloads)

    table = Table(
        title="Table 5: encryption-parameter sweep",
        columns=[
            "security",
            "bits",
            "columns",
            "depth_cap",
            "slots",
            "feasible",
            "rel_cost",
        ],
    )
    feasible: List[EncryptionParams] = []
    for params in parameter_grid():
        ok = (
            params.security >= min_security
            and params.supports_depth(need_depth)
            and params.supports_width(need_width)
        )
        if ok:
            feasible.append(params)
        table.add_row(
            params.security,
            params.bits,
            params.columns,
            params.depth_capacity,
            params.slot_count,
            "yes" if ok else "no",
            params.size_factor,
        )
    if not feasible:
        table.add_note("no feasible parameters found")
        return table
    best = min(feasible, key=lambda p: (p.size_factor, p.bits, p.columns))
    table.add_note(
        f"needs depth {need_depth}, width {need_width}; dominant setting: "
        f"security={best.security} bits={best.bits} columns={best.columns} "
        f"(paper: 128 / 400 / 3)"
    )
    return table


# ---------------------------------------------------------------------------
# Serving throughput: batched vs unbatched inference
# ---------------------------------------------------------------------------


def throughput(
    workload_name: str = "width78",
    queries: int = 16,
    threads: int = 2,
    batch_size: Optional[int] = None,
) -> Table:
    """Batched-service throughput versus the unbatched per-query path.

    The unbatched row is the paper's protocol (one ``secure_inference``
    per query, model re-encrypted every time); the batched row routes the
    same queries through :class:`repro.serve.CopseService`, which
    encrypts the model once and packs queries into shared SIMD slots.
    Both report simulated inference time over the four pipeline stages,
    so the comparison isolates the packing amortization.
    """
    from repro.serve import CopseService

    workload = _workloads([workload_name])[0]
    unbatched = _run(workload, SYSTEM_COPSE, queries=min(queries, 3))

    with CopseService(threads=threads) as service:
        registered = service.register_model(
            workload.name, workload.compiled, max_batch_size=batch_size
        )
        feature_lists = workload.query_features(queries)
        results = service.classify_many(workload.name, feature_lists)
        stats = service.stats()

    correct = all(r.oracle_ok for r in results)
    unbatched_qps = (
        1000.0 / unbatched.median_ms if unbatched.median_ms > 0 else 0.0
    )
    table = Table(
        title=f"Serving throughput — {workload.name} ({queries} queries)",
        columns=[
            "mode",
            "batches",
            "batch_capacity",
            "ms_per_query",
            "queries_per_sec",
            "oracle",
        ],
    )
    table.add_row(
        "unbatched",
        queries,
        1,
        unbatched.median_ms,
        unbatched_qps,
        "ok",  # _run raises on a mismatch
    )
    table.add_row(
        f"batched x{threads} workers",
        stats.batches,
        registered.batch_capacity,
        stats.amortized_ms_per_query,
        stats.throughput_qps,
        "ok" if correct else "MISMATCH",
    )
    if stats.amortized_ms_per_query > 0:
        table.add_note(
            f"amortization: {unbatched.median_ms / stats.amortized_ms_per_query:.1f}x "
            f"cheaper per query (avg batch fill "
            f"{stats.avg_batch_fill:.2f}, one-time setup "
            f"{stats.setup_ms:.0f} ms)"
        )
    return table


# ---------------------------------------------------------------------------
# Soak: deadline-aware scheduling under simulated load
# ---------------------------------------------------------------------------


def soak(
    workload_name: str = "width78",
    queries: int = 2000,
    threads: int = 4,
    load_factors: Sequence[float] = (0.3, 0.6, 0.9, 1.2, 1.8),
    deadline_factor: float = 2.0,
    seed: int = 4242,
) -> Table:
    """Latency and deadline-miss rate versus offered load, simulated.

    One row per load factor (mean worker utilization the arrival rates
    imply).  The model is registered once — its batch capacity and
    analyzed plan cost become the simulator's
    :class:`~repro.serve.loadgen.ModelProfile` — then each row replays
    ``queries`` seeded arrivals (three tenants: two Poisson, one
    bursty, all with deadline ``deadline_factor`` x the batch service
    time) through the production router and scheduler cores under a
    virtual clock, with a mid-run worker crash (its batch parks behind
    the default retry backoff) and periodic slow batches injected.

    Everything is virtual-clock deterministic: same seed, same table,
    byte for byte.  The miss-rate curve has three regimes worth reading:
    at low load partial batches deliberately wait out their deadline
    slack (so slow batches push the tail over), at moderate load batches
    fill before slack expires (the sweet spot), and at overload queueing
    delay grows until admission control starts shedding — the
    ``rejected`` column — which caps latency for the queries it admits.
    """
    from repro.errors import ValidationError
    from repro.serve import (
        FaultPlan,
        ModelProfile,
        SimRunner,
        TenantSpec,
        generate_arrivals,
        offered_load,
    )
    from repro.serve.registry import ModelRegistry
    from repro.serve.simclock import MS

    if queries < 1:
        raise ValidationError(f"soak needs at least one query, got {queries}")
    if threads < 1:
        raise ValidationError(f"soak needs at least one worker, got {threads}")

    workload = _workloads([workload_name])[0]
    registered = ModelRegistry().register(
        f"soak-{workload.name}", workload.compiled,
        params=EncryptionParams.paper_defaults(),
    )
    profile = ModelProfile.from_registered(
        registered, max_pending=max(64, 4 * registered.batch_capacity)
    )
    service_s = profile.service_ms * MS
    deadline_ms = deadline_factor * profile.service_ms

    table = Table(
        title=(
            f"Soak: deadline scheduling vs offered load — {workload.name} "
            f"(capacity {profile.capacity}, batch {profile.service_ms:.1f} "
            f"ms, {threads} workers, {queries} queries/row)"
        ),
        columns=[
            "offered_load",
            "rate_qps",
            "p50_ms",
            "p99_ms",
            "miss_rate",
            "rejected",
            "retries",
            "batches",
        ],
    )
    for factor in load_factors:
        # rho = rate * service / (capacity * threads)  =>  solve for rate.
        rate = factor * threads * profile.capacity / service_s
        burst_every_s = 40.0 * service_s
        burst_size = max(1, int(rate * burst_every_s * 0.15))
        tenants = [
            TenantSpec(name="steady-a", model=profile.name,
                       rate_qps=rate * 0.5, deadline_ms=deadline_ms),
            TenantSpec(name="steady-b", model=profile.name,
                       rate_qps=rate * 0.35, deadline_ms=deadline_ms),
            TenantSpec(name="bursty", model=profile.name,
                       burst_every_s=burst_every_s,
                       burst_size=burst_size,
                       deadline_ms=deadline_ms),
        ]
        arrivals = generate_arrivals(tenants, seed=seed,
                                     total_queries=queries)
        crash_at = arrivals[len(arrivals) // 2].time
        report = SimRunner([profile], workers=threads).run(
            arrivals,
            FaultPlan(worker_crashes=(crash_at,), slow_every=13,
                      slow_factor=2.0),
        )
        stats = report.stats
        table.add_row(
            round(offered_load(tenants, [profile], threads), 3),
            round(rate, 1),
            round(stats.latency_p50_ms, 2),
            round(stats.latency_p99_ms, 2),
            round(stats.deadline_miss_rate, 4),
            stats.rejected,
            stats.retries,
            stats.batches,
        )
    table.add_note(
        f"virtual-clock simulation (seed {seed}): deadlines "
        f"{deadline_ms:.0f} ms, one injected worker crash mid-run, every "
        f"13th batch 2x slow; deterministic — the table is "
        f"byte-identical across runs"
    )
    return table


# ---------------------------------------------------------------------------
# Plan-compiled execution: optimizer payoff on the live pipeline
# ---------------------------------------------------------------------------


def plan_speedup(workload_name: str = "width78", queries: int = 2) -> Table:
    """Eager interpreter vs the plan-compiled path on one workload.

    Three rows: the eager runtime (measured per-query simulated ms over
    the four inference phases), the *unoptimized* lowering (analyzed
    cost: what naive staging would pay), and the optimized
    :class:`~repro.ir.plan.InferencePlan` (measured per-query ms over its
    ``plan_inference`` phase, which covers the identical work).  The
    IR builder's shared emission makes the per-level cyclic extensions
    the eager runtime recomputes once, so the plan engine does strictly
    less rotation work per query.
    """
    from repro.errors import ValidationError
    from repro.core.engines import engine_row
    from repro.core.runtime import INFERENCE_PHASES, secure_inference
    from repro.fhe.costmodel import CostModel
    from repro.fhe.tracker import OpKind
    from repro.ir.plan import lower_inference

    if queries < 1:
        raise ValidationError(
            f"plan_speedup needs at least one query, got {queries}"
        )
    workload = _workloads([workload_name])[0]
    compiled = workload.compiled
    params = EncryptionParams.paper_defaults()
    cost_model = CostModel(params)
    plan = lower_inference(compiled)

    def phase_count(tracker, phases, kind) -> int:
        return sum(
            tracker.phase_stats(p).counts.get(kind, 0) for p in phases
        )

    # engine -> (its tracker phases, the prebuilt artifact it runs)
    runs = {
        "eager": (INFERENCE_PHASES, {}),
        "plan": (engine_row("plan").phases, {"plan": plan}),
    }
    ms: Dict[str, List[float]] = {engine: [] for engine in runs}
    rotations = dict.fromkeys(runs, 0)
    multiplies = dict.fromkeys(runs, 0)
    oracle_ok = True
    for features in workload.query_features(queries):
        expected = workload.forest.label_bitvector(features)
        for engine, (phases, artifact) in runs.items():
            outcome = secure_inference(
                compiled, features, engine=engine, **artifact
            )
            oracle_ok &= outcome.result.bitvector == expected
            ms[engine].append(
                cost_model.sequential_ms(outcome.tracker, phases=phases)
            )
            rotations[engine] = phase_count(
                outcome.tracker, phases, OpKind.ROTATE
            )
            multiplies[engine] = phase_count(
                outcome.tracker, phases, OpKind.MULTIPLY
            )
    eager_ms, plan_ms = ms["eager"], ms["plan"]

    def median(values: List[float]) -> float:
        ranked = sorted(values)
        return ranked[len(ranked) // 2]

    table = Table(
        title=f"Plan-compiled speedup — {workload.name} ({queries} queries)",
        columns=["engine", "rotations", "multiplies", "ms_per_query", "oracle"],
    )
    table.add_row(
        "eager",
        rotations["eager"],
        multiplies["eager"],
        median(eager_ms),
        "ok" if oracle_ok else "MISMATCH",
    )
    table.add_row(
        "plan (unoptimized)",
        plan.raw.rotations,
        plan.raw.multiplies,
        plan.raw.cost_ms(cost_model),
        "analyzed",
    )
    table.add_row(
        "plan",
        rotations["plan"],
        multiplies["plan"],
        median(plan_ms),
        "ok" if oracle_ok else "MISMATCH",
    )
    if plan_ms and eager_ms:
        table.add_note(
            f"plan vs eager: {median(eager_ms) / median(plan_ms):.2f}x "
            f"cheaper per query; optimizer saved {plan.rotations_saved} "
            f"rotations over the naive lowering ({plan.describe()})"
        )
    return table


# ---------------------------------------------------------------------------
# Autoscale: the control plane vs a static pool on a three-phase ramp
# ---------------------------------------------------------------------------


def autoscale_run(
    workload_name: str = "width78",
    workers_start: int = 2,
    workers_max: int = 6,
    seed: int = 777,
    autoscale: bool = True,
):
    """One seeded three-phase ramp through the simulator.

    Builds the canonical control-plane scenario — underload steady
    state, a burst that overloads the starting pool, then a decay tail
    — with one worker crash injected mid-burst, and replays it through
    :class:`~repro.serve.loadgen.SimRunner` either with a
    :class:`~repro.control.Controller` (``autoscale=True``) or as the
    static ``workers_start``-pool baseline.

    Returns ``(report, controller, scenario)`` where ``controller`` is
    None for the static run and ``scenario`` is a dict of the derived
    parameters (deadline, phase boundaries, control interval).  The
    entire run is virtual-clock deterministic: same arguments, same
    report *and* the same controller decision log, byte for byte —
    the sim-replay CI step and the control tests both lean on that.
    """
    from repro.control import (
        AutoscalePolicy,
        Controller,
        GuardConfig,
        GuardRail,
        Plant,
    )
    from repro.errors import ValidationError
    from repro.serve import (
        FaultPlan,
        ModelProfile,
        RetryPolicy,
        SimRunner,
        TenantSpec,
        generate_arrivals,
    )
    from repro.serve.registry import ModelRegistry
    from repro.serve.simclock import MS
    import dataclasses

    if workers_start < 1:
        raise ValidationError(
            f"autoscale needs workers_start >= 1, got {workers_start}"
        )
    if workers_max < workers_start:
        raise ValidationError(
            f"workers_max ({workers_max}) must be >= workers_start "
            f"({workers_start})"
        )

    workload = _workloads([workload_name])[0]
    registered = ModelRegistry().register(
        f"autoscale-{workload.name}", workload.compiled,
        params=EncryptionParams.paper_defaults(),
    )
    profile = ModelProfile.from_registered(
        registered, max_pending=max(64, 4 * registered.batch_capacity)
    )
    service_s = profile.service_ms * MS
    deadline_ms = 2.5 * profile.service_ms
    # Pool capacity of the *starting* pool, in queries/second: the rho
    # knobs below are relative to this, so the burst phase genuinely
    # overloads workers_start workers while fitting inside workers_max.
    base_rate = workers_start * profile.capacity / service_s
    phase_s = (40.0 * service_s, 80.0 * service_s, 80.0 * service_s)
    rhos = (0.4, 2.0, 0.25)

    arrivals = []
    offset = 0.0
    for index, (rho, dur) in enumerate(zip(rhos, phase_s)):
        segment = generate_arrivals(
            [
                TenantSpec(
                    name=f"phase{index + 1}", model=profile.name,
                    rate_qps=rho * base_rate, deadline_ms=deadline_ms,
                ),
            ],
            seed=seed + index,
            duration_s=dur,
        )
        arrivals.extend(
            dataclasses.replace(a, time=a.time + offset)
            for a in segment
        )
        offset += dur
    arrivals.sort(key=lambda a: a.time)
    # One crash in the middle of the burst: the controller must scale
    # through it (the respawned worker keeps the pool size; the epoch
    # protocol retries the torn batch).
    crash_at = phase_s[0] + 0.5 * phase_s[1]
    faults = FaultPlan(worker_crashes=(crash_at,))

    control_interval_s = 2.0 * service_s
    controller = None
    if autoscale:
        guards = GuardRail(GuardConfig(
            workers_min=1,
            workers_max=workers_max,
            cooldown_s=6.0 * service_s,
        ))
        policy = AutoscalePolicy(
            slo_p99_ms=deadline_ms,
            backlog_high=2.0 * profile.capacity,
            backlog_low=0.25 * profile.capacity,
            sustain_up=2,
            sustain_down=4,
            step=2,
        )
        controller = Controller(None, [policy], guards)
    # Immediate retries, as when this scenario was calibrated: the ramp
    # measures scaling behavior, and backoff delays on the mid-burst
    # crash's retries would shift its latency tail for unrelated reasons.
    runner = SimRunner(
        [profile],
        workers=workers_start,
        controller=controller,
        control_interval_s=control_interval_s,
        retry_policy=RetryPolicy.immediate(),
    )
    if controller is not None:
        controller.plant = Plant(runner)
    report = runner.run(arrivals, faults)
    scenario = {
        "workload": workload.name,
        "queries": len(arrivals),
        "service_ms": profile.service_ms,
        "capacity": profile.capacity,
        "deadline_ms": deadline_ms,
        "phase_s": phase_s,
        "rhos": rhos,
        "crash_at": crash_at,
        "control_interval_s": control_interval_s,
        "seed": seed,
    }
    return report, controller, scenario


def _worker_trajectory(controller, workers_start: int) -> Tuple[int, int]:
    """(peak, final) pool size implied by the applied scale records."""
    peak = final = workers_start
    for record in controller.applied():
        # ("applied", tick, "scale_workers", delta, t)
        if record[2] == "scale_workers":
            final += record[3]
            peak = max(peak, final)
    return peak, final


def autoscale(
    workload_name: str = "width78",
    workers_start: int = 2,
    workers_max: int = 6,
    seed: int = 777,
) -> Table:
    """SLO-driven autoscaling vs a static pool on a three-phase ramp.

    Two rows over the identical seeded arrival timeline (underload
    steady state at rho 0.4, a burst at rho 2.0 of the starting pool's
    capacity, then a rho 0.25 decay tail, with one worker crash
    mid-burst): a static ``workers_start``-worker pool, and the same
    pool driven by the control plane (:class:`~repro.control.Controller`
    with an SLO/backlog :class:`~repro.control.AutoscalePolicy` behind
    the :class:`~repro.control.GuardRail`).

    The story the table tells: the burst buries the static pool — its
    p99 blows through the deadline and the miss rate climbs — while the
    controller scales up to absorb it (bounded by ``workers_max`` and
    the per-kind cooldown), then the decay phase triggers the
    cooldown-gated scale-down.  ``applied`` counts guard-approved
    actuations; ``guard_rej`` counts vetoes, every one carrying a
    recorded reason in the decision log.  Deterministic end to end:
    same seed, same table *and* same decision log, byte for byte.
    """
    rows = []
    for mode, auto in (("static", False), ("autoscale", True)):
        report, controller, scenario = autoscale_run(
            workload_name=workload_name,
            workers_start=workers_start,
            workers_max=workers_max,
            seed=seed,
            autoscale=auto,
        )
        stats = report.stats
        if controller is None:
            peak = final = workers_start
            applied = guard_rej = 0
        else:
            peak, final = _worker_trajectory(controller, workers_start)
            applied = len(controller.applied())
            guard_rej = len(controller.rejections())
        rows.append((
            mode,
            round(stats.latency_p50_ms, 2),
            round(stats.latency_p99_ms, 2),
            round(stats.deadline_miss_rate, 4),
            stats.rejected,
            peak,
            final,
            applied,
            guard_rej,
        ))

    table = Table(
        title=(
            f"Autoscale: control plane vs static pool — "
            f"{scenario['workload']} three-phase ramp "
            f"(rho {scenario['rhos'][0]} / {scenario['rhos'][1]} / "
            f"{scenario['rhos'][2]} of {workers_start} workers, "
            f"{scenario['queries']} queries, deadline "
            f"{scenario['deadline_ms']:.0f} ms)"
        ),
        columns=[
            "mode",
            "p50_ms",
            "p99_ms",
            "miss_rate",
            "rejected",
            "peak_workers",
            "final_workers",
            "applied",
            "guard_rej",
        ],
    )
    for row in rows:
        table.add_row(*row)
    table.add_note(
        f"virtual-clock cluster simulation (seed {seed}): one worker "
        f"crash mid-burst, control tick every "
        f"{scenario['control_interval_s']:.2f}s of virtual time, "
        f"workers in [1, {workers_max}]; every applied actuation "
        f"passed a guard and every rejection carries a reason — the "
        f"decision log replays byte-identical across runs"
    )
    return table


# ---------------------------------------------------------------------------
# Chaos: the deterministic fault matrix, replayed and cross-checked
# ---------------------------------------------------------------------------


def chaos_run(
    workload_name: str = "width78",
    queries: int = 6000,
    seed: int = 99,
    workers: int = 4,
    faulted: bool = True,
):
    """One seeded chaos soak through the simulator.

    Derives the load shape from the workload's registered profile (two
    Poisson tenants plus a bursty one at moderate total load) and, when
    ``faulted``, replays the full fault matrix over it: worker crashes,
    hung workers (heartbeat-detected), a slow-factor ramp, corrupted
    model ships, corrupted / dropped / duplicated completion envelopes,
    and two poison queries that crash every worker they touch.  The
    fault-free twin (``faulted=False``) runs the identical arrival
    schedule and is the bit-identity oracle.

    Returns ``(report, scenario)``; everything is virtual-clock
    deterministic — same arguments, same decision log byte for byte.
    """
    from repro.serve import (
        FaultPlan,
        ModelProfile,
        RetryPolicy,
        SimRunner,
        TenantSpec,
        generate_arrivals,
    )
    from repro.serve.registry import ModelRegistry
    from repro.serve.simclock import MS

    workload = _workloads([workload_name])[0]
    registered = ModelRegistry().register(
        f"chaos-{workload.name}", workload.compiled,
        params=EncryptionParams.paper_defaults(),
    )
    # Unbounded-in-practice admission: the acceptance bar is "every
    # non-poison query served", so shedding under a crash backlog is
    # sized out of the scenario.
    profile = ModelProfile.from_registered(registered, max_pending=queries)
    service_s = profile.service_ms * MS
    # Moderate load for the pool: headroom to drain the backlog that
    # piles up while crashed/hung workers respawn.
    rate = 0.45 * workers * profile.capacity / service_s
    tenants = [
        TenantSpec(name="steady-a", model=profile.name,
                   rate_qps=rate * 0.6),
        TenantSpec(name="steady-b", model=profile.name,
                   rate_qps=rate * 0.3),
        TenantSpec(name="spiky", model=profile.name,
                   burst_every_s=25.0 * service_s,
                   burst_size=max(1, profile.capacity), priority=1),
    ]
    arrivals = generate_arrivals(tenants, seed=seed,
                                 total_queries=queries)
    duration = arrivals[-1].time
    poison = (queries // 4, (3 * queries) // 4)
    if faulted:
        faults = FaultPlan(
            worker_crashes=(0.2 * duration, 0.45 * duration,
                            0.7 * duration),
            worker_hangs=(0.3 * duration, 0.6 * duration),
            slow_every=11,
            slow_factor=2.0,
            slow_ramp=0.2,
            corrupt_ship_every=5,
            corrupt_completion_every=97,
            drop_completion_every=131,
            duplicate_completion_every=61,
            poison_queries=poison,
        )
    else:
        faults = FaultPlan()
    runner = SimRunner(
        [profile],
        workers=workers,
        max_retries=2,
        retry_policy=RetryPolicy(hedge_factor=3.0),
        heartbeat_interval_s=0.25,
        heartbeat_timeout_s=0.6,
    )
    report = runner.run(arrivals, faults)
    scenario = {
        "workload": workload.name,
        "queries": queries,
        "workers": workers,
        "seed": seed,
        "duration_s": duration,
        "poison": poison,
    }
    return report, scenario


def _conserved(stats) -> bool:
    return stats.submitted == (
        stats.completed + stats.rejected + stats.failed
        + stats.cancelled + stats.dead_lettered
    )


def chaos(
    workload_name: str = "width78",
    queries: int = 6000,
    seed: int = 99,
) -> Table:
    """The chaos matrix acceptance report: three runs, four properties.

    Row ``chaos`` and row ``replay`` are the same seeded fault matrix
    run twice — the decision logs, stats, and decrypted results must
    match byte for byte.  Row ``fault-free`` is the identical arrival
    schedule with no faults — every non-poison query the chaos run
    served must carry bit-identical results, and exactly the poison
    queries must land in the dead-letter queue with their bisection
    trail in the decision log.  The checks note renders ``ok`` /
    ``FAIL`` per property; the paper record holds every cell and note
    of this table, all-``ok`` included.
    """
    import json as _json

    first, scenario = chaos_run(
        workload_name=workload_name, queries=queries, seed=seed
    )
    second, _ = chaos_run(
        workload_name=workload_name, queries=queries, seed=seed
    )
    clean, _ = chaos_run(
        workload_name=workload_name, queries=queries, seed=seed,
        faulted=False,
    )
    poison = set(scenario["poison"])

    replay_ok = (
        _json.dumps(first.decisions) == _json.dumps(second.decisions)
        and first.stats == second.stats
        and first.results == second.results
        and first.dead_letters == second.dead_letters
    )
    conserved = _conserved(first.stats) and _conserved(clean.stats)
    clean_indices = set(clean.results) - poison
    divergent = sum(
        1 for index in clean_indices
        if first.results.get(index) != clean.results[index]
    )
    bits_ok = divergent == 0 and not (set(first.results) & poison)
    dlq_values = sorted(e["value"] for e in first.dead_letters)
    kinds = {d[0] for d in first.decisions}
    poison_ok = (
        dlq_values == sorted(poison)
        and first.stats.dead_lettered == len(poison)
        and {"bisect", "dead_letter"} <= kinds
    )

    table = Table(
        title=(
            f"Chaos: deterministic fault matrix — {scenario['workload']}"
            f" profile, {queries} queries on {scenario['workers']} "
            f"workers (seed {seed}, 2 poison)"
        ),
        columns=[
            "run",
            "completed",
            "dead_letter",
            "rejected",
            "failed",
            "crashes",
            "retries",
            "hedges",
            "stale",
        ],
    )
    for name, report in (("chaos", first), ("replay", second),
                         ("fault-free", clean)):
        decision_kinds = [d[0] for d in report.decisions]
        table.add_row(
            name,
            report.stats.completed,
            report.stats.dead_lettered,
            report.stats.rejected,
            report.stats.failed,
            report.stats.worker_crashes,
            report.stats.retries,
            decision_kinds.count("hedge"),
            decision_kinds.count("stale"),
        )

    def verdict(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    table.add_note(
        "fault matrix: 3 crashes + 2 hangs (heartbeat-detected), slow "
        "ramp x2.0, corrupted ships, corrupted/dropped/duplicated "
        "completions, 2 poison queries; virtual-clock deterministic"
    )
    table.add_note(
        f"checks: replay byte-identical={verdict(replay_ok)} "
        f"conservation={verdict(conserved)} "
        f"non-poison bit-identity={verdict(bits_ok)} "
        f"(divergent={divergent}) "
        f"poison isolated in DLQ={verdict(poison_ok)}"
    )
    return table


# ---------------------------------------------------------------------------
# Table 6: microbenchmark suite
# ---------------------------------------------------------------------------


def table6() -> Table:
    """The microbenchmark suite: spec vs generated model statistics."""
    table = Table(
        title="Table 6: microbenchmark specifications",
        columns=[
            "model",
            "max_depth",
            "precision",
            "trees",
            "branches",
            "gen_b",
            "gen_d",
            "gen_q",
            "gen_K",
        ],
    )
    for spec in MICROBENCHMARKS:
        forest = spec.build()
        table.add_row(
            spec.name,
            spec.max_depth,
            spec.precision,
            spec.n_trees,
            spec.total_branches,
            forest.branching,
            forest.max_depth,
            forest.quantized_branching,
            forest.max_multiplicity,
        )
    table.add_note(
        "spec columns are Table 6 as printed; gen_* are the generated "
        "forests' statistics (branches and depth match by construction)"
    )
    return table


def clear_cache() -> None:
    """Drop memoized experiment records (for isolated test runs)."""
    _RECORD_CACHE.clear()
