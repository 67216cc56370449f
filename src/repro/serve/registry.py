"""Model registry: compile, parameter-select, and encrypt each model once.

The unbatched runtime re-encrypts the model on every ``secure_inference``
call.  At service scale that is the dominant waste: the model never
changes between queries.  The registry performs the whole offline
pipeline exactly once per registered model —

1. compile the forest (or accept an already-compiled model),
2. select encryption parameters (the Table 5 autotuner, or accept a
   caller-supplied set) and verify they cover the circuit,
3. plan the batch layout from the parameters' slot capacity,
4. generate a session key pair and encrypt the tiled, batched model,
5. (with the default ``engine="tape"``) lower the batched pipeline onto
   the IR, run the optimizer over it, and compile the optimized plan
   into a linearized :class:`~repro.ir.tape.CompiledTape` (scheduled
   rotations, register reuse, fused kernels) —

and caches the resulting :class:`BatchedEncryptedModel`, query spec,
cost model, :class:`~repro.ir.plan.InferencePlan`, and
:class:`~repro.ir.tape.CompiledTape` for every subsequent batch
evaluation.

Trust model: cross-query packing requires all queries of a batch to be
encrypted under one key, so the service holds a per-model *session* key
and acts as the data owner's gateway (one Diane aggregating concurrent
queries — e.g. a tenant with many end users, or a trusted front end).
DESIGN.md discusses the configurations this does and does not cover.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import ValidationError, require_int
from repro.core.compiler import CompiledModel, CopseCompiler
from repro.core.engines import (
    ENGINE_TAPE,
    artifacts_of,
    engine_row,
    ensure_artifacts,
)
from repro.core.runtime import ModelOwner, QuerySpec
from repro.core.seccomp import SECCOMP_VARIANTS, VARIANT_ALOUFI
from repro.fhe.backend import canonical_backend_name
from repro.fhe.context import FheContext
from repro.fhe.costmodel import CostModel
from repro.fhe.keys import KeyPair
from repro.fhe.params import EncryptionParams
from repro.forest.forest import DecisionForest
from repro.ir.megakernel import MegaKernel
from repro.ir.plan import InferencePlan, lower_batched_inference
from repro.ir.tape import CompiledTape
from repro.serve.batched_runtime import BatchedEncryptedModel, build_batched_model
from repro.serve.packing import BatchLayout, plan_layout


@dataclass
class RegisteredModel:
    """Everything cached for one registered model."""

    name: str
    compiled: CompiledModel
    params: EncryptionParams
    layout: BatchLayout
    spec: QuerySpec
    keys: KeyPair
    batched_model: BatchedEncryptedModel
    cost_model: CostModel
    encrypted_model: bool
    forest: Optional[DecisionForest] = field(default=None, repr=False)
    #: One-time simulated cost of encrypting the batched model (ms).
    setup_ms: float = 0.0
    #: Execution engine batches for this model run under.
    engine: str = ENGINE_TAPE
    #: FHE backend every evaluation context for this model is built on.
    backend: str = "reference"
    #: The optimized batched lowering, compiled once at registration and
    #: cached next to the encrypted ciphertexts (None for eager models).
    plan: Optional[InferencePlan] = field(default=None, repr=False)
    #: The plan's compiled tape — linearized instructions with scheduled
    #: rotations and register reuse, compiled once at registration
    #: (None unless ``engine="tape"`` — the default — or
    #: ``engine="megakernel"``, which compiles through it).
    tape: Optional[CompiledTape] = field(default=None, repr=False)
    #: The tape's zero-dispatch megakernel compilation, cached next to
    #: the plan and tape (None unless ``engine="megakernel"``).
    megakernel: Optional[MegaKernel] = field(default=None, repr=False)
    #: SecComp variant the cached artifacts were lowered under and every
    #: batch of this model evaluates with.
    seccomp_variant: str = VARIANT_ALOUFI

    @property
    def batch_capacity(self) -> int:
        return self.layout.capacity

    @property
    def estimated_batch_ms(self) -> Optional[float]:
        """Analyzed cost of evaluating one batch, in simulated ms.

        Comes from the cached program's optimized profile — the tape's
        when one is compiled (its scheduled rotations price slightly
        below the plan's), else the plan's — so it is known *before*
        the first batch runs: the scheduler seeds its slack-cut service
        estimate with it (then refines with observed batch durations,
        since simulated ms are not wall ms), and the simulator uses it
        as the model's exact service time.  ``None`` for eager models
        (no analyzed graph to price).
        """
        if self.tape is not None:
            # The megakernel shares the tape's profile by construction.
            return self.tape.profile.cost_ms(self.cost_model)
        if self.plan is None:
            return None
        return self.plan.cost_ms(self.cost_model)

    def describe(self) -> str:
        base = (
            f"{self.name}: {self.compiled.describe()}; "
            f"batch {self.layout.describe()}; {self.params.describe()}; "
            f"backend {self.backend}"
        )
        for artifact in artifacts_of(self).values():
            if artifact is not None:
                base += f"; {artifact.describe()}"
        return base


class ModelRegistry:
    """Thread-safe name -> :class:`RegisteredModel` store.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) makes
    registration observable: a gauge of live models and per-model setup
    cost counters, written here so the one-time offline pipeline shows
    up in the same snapshot as the serve-time counters.
    """

    def __init__(self, metrics=None):
        self._models: Dict[str, RegisteredModel] = {}
        self._lock = threading.Lock()
        self.metrics = metrics

    def _record_registration(self, registered: RegisteredModel,
                             delta: int) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge("registry_models").inc(delta)
        if delta > 0:
            self.metrics.counter("registry_setup_ms").inc(
                registered.setup_ms
            )
            self.metrics.counter(
                "registry_registered", {"model": registered.name}
            ).inc()

    def register(
        self,
        name: str,
        model: Union[DecisionForest, CompiledModel],
        precision: int = 8,
        params: Optional[EncryptionParams] = None,
        autoselect_params: bool = False,
        max_batch_size: Optional[int] = None,
        encrypted_model: bool = True,
        engine: str = ENGINE_TAPE,
        seccomp_variant: str = VARIANT_ALOUFI,
        backend: Optional[str] = None,
    ) -> RegisteredModel:
        """Compile, parameter-select, encrypt, and plan ``model`` once.

        ``model`` may be a :class:`DecisionForest` (compiled here at
        ``precision``) or an already-compiled model.  Parameters resolve
        in priority order: explicit ``params``, then the Table 5 autotuner
        when ``autoselect_params`` is set, then the paper's defaults.
        ``max_batch_size`` caps the packing
        capacity below what the slots allow (a latency knob);
        ``encrypted_model=False`` keeps the model in plaintext on the
        server (Maurice = Sally).

        ``engine="tape"`` (the default) also lowers the batched pipeline
        onto the IR, optimizes it, and compiles the resulting
        :class:`~repro.ir.plan.InferencePlan` into a cached
        :class:`~repro.ir.tape.CompiledTape` (scheduled rotations,
        register reuse, fused kernels) that every batch executes;
        ``engine="plan"`` stops at the graph-walking plan executor;
        ``engine="megakernel"`` compiles the tape once more;
        ``engine="eager"`` keeps the hand-scheduled interpreter.
        ``seccomp_variant`` is recorded on the entry: the artifacts are
        lowered under it and every batch evaluates with it.  An unknown
        variant fails here, before anything is compiled.

        ``backend`` picks the FHE backend this model is encrypted under
        and every batch is evaluated on (a registered name; default
        ``$REPRO_BACKEND`` or ``"reference"``).  An unknown name fails
        here, before the expensive compile/encrypt pipeline runs.
        """
        if not name:
            raise ValidationError("a registered model needs a non-empty name")
        engine_row(engine, error=ValidationError)
        if seccomp_variant not in SECCOMP_VARIANTS:
            raise ValidationError(
                f"unknown SecComp variant {seccomp_variant!r}; choose "
                f"from {SECCOMP_VARIANTS}"
            )
        backend = canonical_backend_name(backend)
        with self._lock:
            # Fail before the expensive compile/encrypt pipeline; the
            # insert below re-checks in case of a registration race.
            if name in self._models:
                raise ValidationError(
                    f"a model named {name!r} is already registered"
                )
        forest: Optional[DecisionForest] = None
        if isinstance(model, CompiledModel):
            compiled = model
            forest = model.source_forest
        elif isinstance(model, DecisionForest):
            forest = model
            require_int("precision", precision)
            compiled = CopseCompiler(precision=precision).compile(model)
        else:
            raise ValidationError(
                f"cannot register a {type(model).__name__}; expected a "
                f"DecisionForest or CompiledModel"
            )

        compiler = CopseCompiler(precision=compiled.precision)
        if params is None:
            if autoselect_params:
                params = compiler.select_parameters(compiled)
            else:
                params = EncryptionParams.paper_defaults()
        compiled.check_parameters(params)
        layout = plan_layout(compiled, params, max_batch_size=max_batch_size)

        ctx = FheContext(params, backend=backend)
        keys = ctx.keygen()
        cost_model = CostModel(params)
        batched = build_batched_model(
            ctx,
            compiled,
            layout,
            public_key=keys.public if encrypted_model else None,
        )
        setup_ms = cost_model.sequential_ms(ctx.tracker)

        # What the engine executes, lowered under the recorded variant.
        artifacts = ensure_artifacts(
            engine,
            lambda: lower_batched_inference(
                compiled, layout, encrypted_model=encrypted_model,
                variant=seccomp_variant,
            ),
            {},
        )
        registered = RegisteredModel(
            name=name,
            compiled=compiled,
            params=params,
            layout=layout,
            spec=ModelOwner(compiled).query_spec(),
            keys=keys,
            batched_model=batched,
            cost_model=cost_model,
            encrypted_model=encrypted_model,
            forest=forest,
            setup_ms=setup_ms,
            engine=engine,
            backend=backend,
            seccomp_variant=seccomp_variant,
            **artifacts,
        )
        with self._lock:
            if name in self._models:
                raise ValidationError(
                    f"a model named {name!r} is already registered"
                )
            self._models[name] = registered
        self._record_registration(registered, +1)
        return registered

    def get(self, name: str) -> RegisteredModel:
        with self._lock:
            if name not in self._models:
                known = ", ".join(sorted(self._models)) or "none"
                raise ValidationError(
                    f"no registered model named {name!r} (registered: {known})"
                )
            return self._models[name]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def unregister(self, name: str) -> None:
        with self._lock:
            removed = self._models.pop(name, None)
        if removed is not None:
            self._record_registration(removed, -1)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)
