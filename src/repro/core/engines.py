"""The engine table: everything that differs between execution engines.

COPSE is one runtime executing Algorithm 1's primitives; the four
engines are four ways of *driving* it.  Each row of
:data:`ENGINE_TABLE` says what an engine executes and where its work is
booked; every other module asks the table instead of comparing engine
names, so adding or removing an engine is one row plus its artifact:

* ``eager`` interprets Algorithm 1 stage by stage (no cached artifact;
  its work lands under the four stage phases);
* ``plan`` executes a cached, optimizer-processed
  :class:`~repro.ir.plan.InferencePlan` lowering of the same pipeline;
* ``tape`` executes the plan's compiled
  :class:`~repro.ir.tape.CompiledTape` — linearized instructions with
  register reuse, scheduled rotations, and fused kernels (the serve
  default);
* ``megakernel`` executes the tape's
  :class:`~repro.ir.megakernel.MegaKernel` compilation — precomputed
  gather/mask planes with no per-instruction Python dispatch, falling
  back to the tape loop on backends without ``megakernel_ops``.

The artifact engines record the whole optimized pipeline (including the
Aloufi all-ones helper encryption) under one phase each, because an IR
graph cannot be split across the four eager stage phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import RuntimeProtocolError

#: Tracker phase names, in execution order.
PHASE_MODEL_ENCRYPT = "model_encrypt"
PHASE_DATA_ENCRYPT = "data_encrypt"
PHASE_COMPARISON = "comparison"
PHASE_BOOTSTRAP = "bootstrap"
PHASE_RESHUFFLE = "reshuffle"
PHASE_LEVELS = "levels"
PHASE_ACCUMULATE = "accumulate"
PHASE_PLAN = "plan_inference"
PHASE_TAPE = "tape_inference"
PHASE_MEGAKERNEL = "megakernel_inference"

ENGINE_EAGER = "eager"
ENGINE_PLAN = "plan"
ENGINE_TAPE = "tape"
ENGINE_MEGAKERNEL = "megakernel"


def _compile_tape(plan):
    return plan.compile_tape()


def _compile_megakernel(tape):
    # Imported lazily: repro.ir stages through repro.core.
    from repro.ir.megakernel import compile_megakernel

    return compile_megakernel(tape)


@dataclass(frozen=True)
class Engine:
    """One row of the engine table."""

    name: str
    #: Tracker phases this engine's inference records under.
    phases: Tuple[str, ...]
    #: Attribute name (on servers, registered and shipped models) of the
    #: cached artifact the engine executes; None for the interpreter.
    artifact: Optional[str] = None
    #: The artifact this one compiles from (None: lowered from the
    #: compiled model), and the compilation step.
    source: Optional[str] = None
    compile: Optional[Callable] = None
    #: What refusal messages call the artifact.
    noun: str = ""


#: Slowest first; each artifact compiles from the row above it, so the
#: reverse is the degradation ladder.
ENGINE_TABLE: Tuple[Engine, ...] = (
    Engine(
        ENGINE_EAGER,
        (PHASE_COMPARISON, PHASE_RESHUFFLE, PHASE_LEVELS, PHASE_ACCUMULATE),
    ),
    Engine(ENGINE_PLAN, (PHASE_PLAN,), "plan", None, None, "InferencePlan"),
    Engine(
        ENGINE_TAPE, (PHASE_TAPE,), "tape", "plan", _compile_tape,
        "CompiledTape",
    ),
    Engine(
        ENGINE_MEGAKERNEL, (PHASE_MEGAKERNEL,), "megakernel", "tape",
        _compile_megakernel, "MegaKernel",
    ),
)

ENGINES: Tuple[str, ...] = tuple(row.name for row in ENGINE_TABLE)
#: The cached artifact kinds, in compilation order.
ARTIFACTS: Tuple[str, ...] = tuple(
    row.artifact for row in ENGINE_TABLE if row.artifact is not None
)
_BY_NAME: Dict[str, Engine] = {row.name: row for row in ENGINE_TABLE}
_BY_ARTIFACT: Dict[str, Engine] = {
    row.artifact: row for row in ENGINE_TABLE if row.artifact is not None
}


def artifacts_of(holder) -> Dict[str, object]:
    """The cached artifacts ``holder`` (a server or model record) carries."""
    return {kind: getattr(holder, kind) for kind in ARTIFACTS}


def engine_row(engine: str, error=RuntimeProtocolError) -> Engine:
    """The table row for ``engine``; raises ``error`` on an unknown name."""
    row = _BY_NAME.get(engine)
    if row is None:
        raise error(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return row


def ensure_artifacts(engine: str, lower: Callable, cached) -> Dict[str, object]:
    """Compile what ``engine`` executes and ``cached`` does not hold.

    ``cached`` maps artifact kinds to already-built artifacts (or
    None); ``lower`` builds the plan from the compiled model when the
    chain reaches that far.  Returns every kind with whatever is now
    built — only the links the engine actually needs are compiled.
    """
    built = {kind: cached.get(kind) for kind in ARTIFACTS}

    def ensure(kind: str):
        if built[kind] is None:
            row = _BY_ARTIFACT[kind]
            built[kind] = (
                lower() if row.source is None
                else row.compile(ensure(row.source))
            )
        return built[kind]

    target = engine_row(engine).artifact
    if target is not None:
        ensure(target)
    return built


def run_artifact(
    row: Engine,
    artifact,
    ctx,
    model,
    query,
    variant: str,
    batch_shape: Optional[Tuple[int, int]] = None,
):
    """Execute ``row``'s cached artifact on ``query``, or refuse.

    The one checked path behind both servers: ``batch_shape`` is None
    for the single-query server and ``(stride, capacity)`` for the
    batched one.  Refuses a missing artifact, one lowered for the other
    server, one lowered for another layout, and one lowered under a
    different SecComp variant than the server runs.  Returns the
    artifact's result for ``(ctx, model, query)``.
    """
    kind, noun = row.artifact, row.noun
    wanted = "single-query" if batch_shape is None else "batched"
    if artifact is None:
        raise RuntimeProtocolError(
            f"engine={row.name!r} needs a {wanted} {noun}; "
            f"secure_inference and ModelRegistry.register compile and "
            f"cache one, or pass {kind}= explicitly"
        )
    if artifact.batched != (batch_shape is not None):
        have = "batched" if artifact.batched else "single-query"
        raise RuntimeProtocolError(
            f"a {have} {kind} cannot serve the {wanted} server; lower "
            f"its {noun} with lower_batched_inference for the batched "
            f"server's layout and lower_inference otherwise"
        )
    if artifact.batch_shape != batch_shape:
        raise RuntimeProtocolError(
            f"{kind} batch shape {artifact.batch_shape} does not match "
            f"the layout {batch_shape}"
        )
    if artifact.variant != variant:
        raise RuntimeProtocolError(
            f"{kind} was compiled with SecComp variant "
            f"{artifact.variant!r} but the server runs {variant!r}"
        )
    return artifact.run(ctx, model, query, phase=row.phases[0])


def result_of(outcome):
    """One run's outcome as a call would have delivered it: returned,
    or raised."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome
