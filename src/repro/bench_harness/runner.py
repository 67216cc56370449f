"""Experiment runner: the paper's 27-query median protocol.

One :class:`InferenceRunner` runs one (workload, system, configuration)
combination.  Each query goes through its system's one end-to-end
pipeline — :func:`~repro.core.runtime.secure_inference` for COPSE,
:func:`~repro.baseline.runtime.baseline_inference` for the Aloufi et al.
baseline — on a fresh context; the runner keeps only each system's
phases and its plaintext-oracle comparison, and derives simulated
timings from the context's tracker via the cost model.

Because the circuits are input-independent (noninterference — verified by
the security tests), every query of a batch produces the identical
operation trace, so the median simulated time equals any single query's
time; the runner still executes the full batch to exercise correctness on
many inputs, and reports the median as the paper does.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.baseline.runtime import baseline_inference
from repro.core.runtime import INFERENCE_PHASES, secure_inference
from repro.core.seccomp import VARIANT_ALOUFI
from repro.fhe.backend import REFERENCE_BACKEND, canonical_backend_name
from repro.fhe.context import FheContext
from repro.fhe.costmodel import CostModel
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import CountingTracker, OpTracker
from repro.bench_harness.workloads import PAPER_QUERY_COUNT, Workload

SYSTEM_COPSE = "copse"
SYSTEM_BASELINE = "baseline"

BASELINE_PHASES = ("comparison", "polynomial")


@dataclass(frozen=True)
class RunnerConfig:
    """Configuration for one experiment run.

    ``backend`` selects the FHE backend each per-query context is built
    on (``None`` means the process default).  Simulated times come from
    the cost model over operation *counts*, so they are backend-
    independent; the backend choice matters for wall-clock measurements
    and for exercising a backend against the oracle.  Multithreaded
    estimates (``threads > 1``) walk the operation DAG, so a run on a
    backend whose tracker keeps none (the vector and plaintext
    backends' :class:`~repro.fhe.tracker.CountingTracker`) is refused
    with a :class:`~repro.errors.ValidationError`.
    """

    system: str = SYSTEM_COPSE
    encrypted_model: bool = True
    threads: int = 1
    params: EncryptionParams = field(default_factory=EncryptionParams.paper_defaults)
    seccomp_variant: str = VARIANT_ALOUFI
    queries: int = PAPER_QUERY_COUNT
    query_seed: int = 1234
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.system not in (SYSTEM_COPSE, SYSTEM_BASELINE):
            raise ValidationError(
                f"unknown system {self.system!r}; choose "
                f"{SYSTEM_COPSE!r} or {SYSTEM_BASELINE!r}"
            )
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")
        if self.queries < 1:
            raise ValidationError(f"queries must be >= 1, got {self.queries}")
        if self.backend is not None:
            canonical_backend_name(self.backend)


@dataclass
class ExperimentRecord:
    """The measurements from one (workload, configuration) run."""

    workload: str
    config: RunnerConfig
    median_ms: float
    per_query_ms: List[float]
    phase_ms: Dict[str, float]
    op_counts: Dict[str, int]
    multiplicative_depth: int
    work_ms: float
    #: The critical path of the last query's phases under the cost
    #: model; None on a tracker that keeps no operation DAG (the vector
    #: and plaintext backends' ``CountingTracker``), which cannot know it.
    span_ms: Optional[float]
    correct: bool

    @property
    def system(self) -> str:
        return self.config.system


class InferenceRunner:
    """Runs one workload under one configuration and reports timings."""

    def __init__(self, workload: Workload, config: RunnerConfig):
        self.workload = workload
        self.config = config
        self.cost_model = CostModel(config.params)

    def run(self) -> ExperimentRecord:
        cfg = self.config
        phases = (
            INFERENCE_PHASES if cfg.system == SYSTEM_COPSE else BASELINE_PHASES
        )
        per_query_ms: List[float] = []
        correct = True
        for features in self.workload.query_features(
            cfg.queries, cfg.query_seed
        ):
            ctx, ok = self._infer(features)
            correct = correct and ok
            per_query_ms.append(self._time(ctx, phases))
        return self._record(per_query_ms, ctx.tracker, phases, correct)

    def _infer(self, features: List[int]) -> Tuple[FheContext, bool]:
        """One query through its system's end-to-end pipeline: the
        context it ran on, and whether it agrees with the oracle."""
        cfg = self.config
        forest = self.workload.forest
        if cfg.system == SYSTEM_COPSE:
            outcome = secure_inference(
                self.workload.compiled,
                features,
                params=cfg.params,
                encrypted_model=cfg.encrypted_model,
                seccomp_variant=cfg.seccomp_variant,
                backend=cfg.backend,
            )
            ok = outcome.result.bitvector == forest.label_bitvector(features)
            return outcome.context, ok
        outcome = baseline_inference(
            forest,
            features,
            precision=self.workload.precision,
            encrypted_model=cfg.encrypted_model,
            seccomp_variant=cfg.seccomp_variant,
            ctx=FheContext(cfg.params, backend=cfg.backend),
        )
        ok = outcome.result.labels == forest.classify_per_tree(features)
        return outcome.context, ok

    # ------------------------------------------------------------------

    def _time(self, ctx: FheContext, phases: Sequence[str]) -> float:
        threads = self.config.threads
        if threads == 1:
            return self.cost_model.sequential_ms(ctx.tracker, phases=phases)
        if isinstance(ctx.tracker, CountingTracker):
            raise ValidationError(
                f"threads={threads} needs the operation DAG for its "
                f"work-span estimate, and the "
                f"{ctx.backend_name!r} backend's "
                f"tracker keeps none; use threads=1 or the "
                f"{REFERENCE_BACKEND!r} backend"
            )
        return self.cost_model.multithreaded_ms(
            ctx.tracker, threads=threads, phases=phases
        )

    def _record(
        self,
        per_query_ms: List[float],
        tracker: OpTracker,
        phases: Sequence[str],
        correct: bool,
    ) -> ExperimentRecord:
        phase_ms = {
            phase: self.cost_model.phase_sequential_ms(tracker, phase)
            for phase in phases
        }
        if isinstance(tracker, CountingTracker):
            # Counts only: their cost is the work; no DAG, no span.
            work = tracker.work_and_span(self.cost_model.cost_of, phases)[0]
            span = None
        else:
            work, span = tracker.work_and_span(self.cost_model.cost_of, phases)
        counts: Dict[str, int] = {}
        for phase in phases:
            for kind, n in tracker.phase_stats(phase).counts.items():
                counts[kind.value] = counts.get(kind.value, 0) + n
        return ExperimentRecord(
            workload=self.workload.name,
            config=self.config,
            median_ms=statistics.median(per_query_ms),
            per_query_ms=per_query_ms,
            phase_ms=phase_ms,
            op_counts=counts,
            multiplicative_depth=tracker.multiplicative_depth(),
            work_ms=work,
            span_ms=span,
            correct=correct,
        )


def run_workload(
    workload: Workload,
    system: str = SYSTEM_COPSE,
    queries: int = 3,
    **config_kwargs,
) -> ExperimentRecord:
    """Convenience wrapper with a small default query count for tests."""
    config = RunnerConfig(system=system, queries=queries, **config_kwargs)
    return InferenceRunner(workload, config).run()
