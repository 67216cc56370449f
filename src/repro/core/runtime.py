"""The COPSE runtime: parties, encryption, and Algorithm 1.

Three notional parties (Section 3.1):

* :class:`ModelOwner` (Maurice) — holds a :class:`CompiledModel`; can
  encrypt it (offloading and three-party configurations) or expose it as
  plaintext packed vectors (the Maurice-equals-Sally configuration of
  Section 8.3, where the model never leaves the server);
* :class:`DataOwner` (Diane) — replicates and pads her feature vector
  using only the public query spec (maximum multiplicity ``K``, feature
  count, precision), encrypts it, and decrypts the classification result
  with her secret key;
* :class:`CopseServer` (Sally) — executes the four-stage vectorized
  inference of Algorithm 1 over encrypted data.  She owns no keys; any
  attempt to decrypt with a key that did not encrypt raises.

Phases recorded by the tracker — ``model_encrypt``, ``data_encrypt``,
``comparison``, ``reshuffle``, ``levels``, ``accumulate`` — drive both the
Figure 10 per-stage breakdowns and the Table 1 count validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import RuntimeProtocolError
from repro.core.compiler import CompiledModel
from repro.core.engines import (
    ENGINE_EAGER,
    PHASE_ACCUMULATE,
    PHASE_BOOTSTRAP,
    PHASE_COMPARISON,
    PHASE_DATA_ENCRYPT,
    PHASE_LEVELS,
    PHASE_MODEL_ENCRYPT,
    PHASE_RESHUFFLE,
    engine_row,
    ensure_artifacts,
    run_artifact,
)
from repro.core.matmul import halevi_shoup_matvec
from repro.core.seccomp import VARIANT_ALOUFI, secure_compare
from repro.fhe.ciphertext import Ciphertext, CiphertextGroup, PlainVector
from repro.fhe.context import FheContext, Vector
from repro.fhe.keys import KeyPair, PublicKey, SecretKey
from repro.fhe.params import EncryptionParams
from repro.fhe.simd import replicate, to_bitplanes

INFERENCE_PHASES = (
    PHASE_COMPARISON,
    PHASE_BOOTSTRAP,
    PHASE_RESHUFFLE,
    PHASE_LEVELS,
    PHASE_ACCUMULATE,
)


@dataclass(frozen=True)
class QuerySpec:
    """The public information Diane needs to form a query (Step 0).

    Only ``max_multiplicity`` reveals anything about the model; the other
    fields (feature count, labels, precision, codebook) are public by the
    paper's threat model.
    """

    precision: int
    n_features: int
    max_multiplicity: int
    codebook: List[int]
    label_names: List[str]


@dataclass
class EncryptedModel:
    """Maurice's model as packed vectors (ciphertext or plaintext).

    The structure widths — one vector per threshold plane, one per
    reshuffle diagonal, one per level-matrix diagonal plus one mask per
    level — are exactly what Section 7.1 says the evaluator learns: ``q``
    from the reshuffle, ``b`` from the level matrices, ``d`` from their
    count.
    """

    precision: int
    branching: int
    quantized_branching: int
    max_depth: int
    num_labels: int
    threshold_planes: List[Vector]
    reshuffle_diagonals: List[Vector]
    level_diagonals: List[List[Vector]]
    level_masks: List[Vector]
    #: Source :meth:`CompiledModel.fingerprint`, so cached inference
    #: plans can refuse to execute against a different model.
    fingerprint: Optional[str] = None

    @property
    def is_encrypted(self) -> bool:
        return isinstance(self.threshold_planes[0], Ciphertext)


@dataclass
class EncryptedQuery:
    """Diane's replicated, padded, bit-sliced, encrypted feature vector.

    The public key travels with the query (it is public by definition);
    the server needs it to encrypt helper constants such as the all-ones
    vector the Aloufi SecComp variant adds for its homomorphic NOT.
    """

    planes: List[Ciphertext]
    public_key: Optional[PublicKey] = None

    @property
    def precision(self) -> int:
        return len(self.planes)

    @property
    def width(self) -> int:
        return self.planes[0].length

    @property
    def group_size(self) -> int:
        """Ciphertexts per plane: ``k`` for a group of queries encrypted
        as one (its planes are
        :class:`~repro.fhe.ciphertext.CiphertextGroup` objects), else
        one."""
        for plane in self.planes[:1]:  # a query of no planes is refused
            if isinstance(plane, CiphertextGroup):  # by its precision
                return len(plane)
        return 1


@dataclass
class InferenceResult:
    """Decrypted classification: the N-hot label bitvector, decoded."""

    bitvector: List[int]
    codebook: List[int]
    label_names: List[str]

    @property
    def chosen_slots(self) -> List[int]:
        return [i for i, bit in enumerate(self.bitvector) if bit]

    @property
    def chosen_labels(self) -> List[int]:
        """Class-label index chosen by each tree (slot order)."""
        return [self.codebook[slot] for slot in self.chosen_slots]

    def plurality(self) -> int:
        """Single classification by plurality vote; ties to smaller index."""
        if not self.chosen_labels:
            raise RuntimeProtocolError(
                "result bitvector has no set slots; decryption or "
                "evaluation went wrong"
            )
        counts = {}
        for label in self.chosen_labels:
            counts[label] = counts.get(label, 0) + 1
        return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    def plurality_name(self) -> str:
        return self.label_names[self.plurality()]


# ---------------------------------------------------------------------------
# Parties
# ---------------------------------------------------------------------------


class ModelOwner:
    """Maurice: owns the compiled model and controls its representation."""

    def __init__(self, model: CompiledModel):
        self.model = model

    def query_spec(self) -> QuerySpec:
        """The public data revealed to enable queries (Step 0)."""
        return QuerySpec(
            precision=self.model.precision,
            n_features=self.model.n_features,
            max_multiplicity=self.model.max_multiplicity,
            codebook=list(self.model.codebook),
            label_names=list(self.model.label_names),
        )

    def encrypt_model(self, ctx: FheContext, public_key: PublicKey) -> EncryptedModel:
        """Encrypt every structure (offloading / three-party setups)."""
        with ctx.tracker.phase(PHASE_MODEL_ENCRYPT):
            thresholds = [
                ctx.encrypt(plane, public_key)
                for plane in self.model.threshold_planes
            ]
            reshuffle = [
                ctx.encrypt(self.model.reshuffle.diagonal(i), public_key)
                for i in range(self.model.reshuffle.num_diagonals)
            ]
            levels = [
                [
                    ctx.encrypt(matrix.diagonal(i), public_key)
                    for i in range(matrix.num_diagonals)
                ]
                for matrix in self.model.level_matrices
            ]
            masks = [
                ctx.encrypt(mask, public_key) for mask in self.model.level_masks
            ]
        return self._bundle(thresholds, reshuffle, levels, masks)

    def plaintext_model(self, ctx: FheContext) -> EncryptedModel:
        """Expose the model as plaintext packed vectors (Maurice = Sally)."""
        thresholds = [
            ctx.encode(plane) for plane in self.model.threshold_planes
        ]
        reshuffle = [
            ctx.encode(self.model.reshuffle.diagonal(i))
            for i in range(self.model.reshuffle.num_diagonals)
        ]
        levels = [
            [ctx.encode(matrix.diagonal(i)) for i in range(matrix.num_diagonals)]
            for matrix in self.model.level_matrices
        ]
        masks = [ctx.encode(mask) for mask in self.model.level_masks]
        return self._bundle(thresholds, reshuffle, levels, masks)

    def _bundle(self, thresholds, reshuffle, levels, masks) -> EncryptedModel:
        return EncryptedModel(
            precision=self.model.precision,
            branching=self.model.branching,
            quantized_branching=self.model.quantized_branching,
            max_depth=self.model.max_depth,
            num_labels=self.model.num_labels,
            threshold_planes=thresholds,
            reshuffle_diagonals=reshuffle,
            level_diagonals=levels,
            level_masks=masks,
            fingerprint=self.model.fingerprint(),
        )


class DataOwner:
    """Diane: prepares encrypted queries and decrypts results."""

    def __init__(self, spec: QuerySpec, keys: KeyPair):
        self.spec = spec
        self.keys = keys

    def prepare_query(
        self, ctx: FheContext, features: Sequence[int]
    ) -> EncryptedQuery:
        """Step 0: replicate, pad, bit-slice, and encrypt the features."""
        if len(features) != self.spec.n_features:
            raise RuntimeProtocolError(
                f"model expects {self.spec.n_features} features, "
                f"got {len(features)}"
            )
        limit = 1 << self.spec.precision
        for value in features:
            if not 0 <= int(value) < limit:
                raise RuntimeProtocolError(
                    f"feature value {value} does not fit in "
                    f"{self.spec.precision} unsigned bits"
                )
        replicated = replicate(
            [int(v) for v in features], self.spec.max_multiplicity
        )
        planes = to_bitplanes(replicated, self.spec.precision)
        with ctx.tracker.phase(PHASE_DATA_ENCRYPT):
            encrypted = [
                ctx.encrypt(planes[i], self.keys.public)
                for i in range(planes.shape[0])
            ]
        return EncryptedQuery(planes=encrypted, public_key=self.keys.public)

    def decrypt_result(self, ctx: FheContext, result: Ciphertext) -> InferenceResult:
        """Decrypt the N-hot classification bitvector."""
        bits = ctx.decrypt_bits(result, self.keys.secret)
        return InferenceResult(
            bitvector=bits,
            codebook=list(self.spec.codebook),
            label_names=list(self.spec.label_names),
        )


def compare_stage(
    ctx: FheContext, query: EncryptedQuery, thresholds, variant: str
) -> Ciphertext:
    """Algorithm 1's comparison stage (single-query and batched alike:
    SecComp is slot-wise, so packing does not change it)."""
    with ctx.tracker.phase(PHASE_COMPARISON):
        not_one = None
        if variant == VARIANT_ALOUFI:
            if query.public_key is None:
                raise RuntimeProtocolError(
                    "the Aloufi SecComp variant needs the query's "
                    "public key to encrypt the all-ones helper"
                )
            not_one = ctx.encrypt(
                ctx.ones(query.width).to_array(), query.public_key
            )
        return secure_compare(
            ctx, query.planes, thresholds, variant=variant, not_one=not_one
        )


class CopseServer:
    """Sally: executes the vectorized inference of Algorithm 1.

    ``seccomp_variant`` selects the comparison circuit: ``"aloufi"``
    (default — the paper runs Aloufi et al.'s SecComp in both systems) or
    ``"optimized"`` (our cheaper rewrite, kept as an ablation).

    ``auto_bootstrap`` re-encrypts the decision vector after the
    comparison when the remaining modulus-chain headroom cannot cover the
    reshuffle/levels/accumulation pipeline — letting deep circuits run on
    short chains at the (steep) price of a bootstrap per query.

    ``engine="plan"`` executes a cached
    :class:`~repro.ir.plan.InferencePlan` (a single-query lowering from
    :func:`~repro.ir.plan.lower_inference`) instead of interpreting the
    stages eagerly — same bits, fewer rotations, recorded under the
    ``plan_inference`` phase.  ``engine="tape"`` executes the plan's
    compiled :class:`~repro.ir.tape.CompiledTape` (linearized, register
    reused, rotation-scheduled) under ``tape_inference`` — same bits,
    strictly fewer rotations again.  ``engine="megakernel"`` executes
    the tape's :class:`~repro.ir.megakernel.MegaKernel` compilation
    under ``megakernel_inference`` — no per-instruction Python
    dispatch on capable backends, the tape loop elsewhere, same bits
    and counts everywhere.
    """

    def __init__(
        self,
        ctx: FheContext,
        seccomp_variant: str = VARIANT_ALOUFI,
        auto_bootstrap: bool = False,
        engine: str = ENGINE_EAGER,
        plan=None,
        tape=None,
        megakernel=None,
    ):
        if engine_row(engine).artifact is not None and auto_bootstrap:
            raise RuntimeProtocolError(
                "the plan/tape/megakernel engines have no bootstrap node; "
                "use engine='eager' with auto_bootstrap, or parameters "
                "deep enough to avoid it"
            )
        self.ctx = ctx
        self.seccomp_variant = seccomp_variant
        self.auto_bootstrap = auto_bootstrap
        self.engine = engine
        self.plan = plan
        self.tape = tape
        self.megakernel = megakernel

    def classify(self, model: EncryptedModel, query: EncryptedQuery) -> Ciphertext:
        """Run Algorithm 1: compare, reshuffle, process levels, accumulate."""
        ctx = self.ctx
        if query.precision != model.precision:
            raise RuntimeProtocolError(
                f"query precision {query.precision} does not match the "
                f"model precision {model.precision}"
            )
        if query.width != model.quantized_branching:
            raise RuntimeProtocolError(
                f"query width {query.width} does not match the model's "
                f"quantized branching {model.quantized_branching}; was the "
                f"feature vector replicated with the right multiplicity?"
            )
        row = engine_row(self.engine)
        if row.artifact is not None:
            return run_artifact(
                row, getattr(self, row.artifact), ctx, model, query,
                self.seccomp_variant,
            )

        decisions = compare_stage(
            ctx, query, model.threshold_planes, self.seccomp_variant
        )

        if self.auto_bootstrap:
            import math

            log_d = (
                int(math.ceil(math.log2(model.max_depth)))
                if model.max_depth > 1
                else 0
            )
            remaining_depth = 2 + log_d  # reshuffle + level + accumulation
            if ctx.depth_headroom(decisions) < remaining_depth:
                with ctx.tracker.phase(PHASE_BOOTSTRAP):
                    decisions = ctx.bootstrap(decisions)

        with ctx.tracker.phase(PHASE_RESHUFFLE):
            branches = halevi_shoup_matvec(
                ctx,
                model.reshuffle_diagonals,
                rows=model.branching,
                cols=model.quantized_branching,
                vector=decisions,
            )

        with ctx.tracker.phase(PHASE_LEVELS):
            level_results = self._process_levels(model, branches)

        with ctx.tracker.phase(PHASE_ACCUMULATE):
            result = ctx.multiply_all(level_results)

        if not isinstance(result, Ciphertext):  # pragma: no cover
            raise RuntimeProtocolError("inference result must be encrypted")
        return result

    def _process_levels(
        self, model: EncryptedModel, branches: Vector
    ) -> List[Vector]:
        """All levels against shared pre-rotated branch vectors.

        The rotations of the branch-decision vector are identical across
        levels, so they are computed once and reused — this is what keeps
        the per-level rotation count at ``b`` (the cyclic extensions) and
        the total at ``d*b + b - 1``, matching Table 2's ``q + d*b`` up to
        the elided zero-rotation.
        """
        ctx = self.ctx
        if not isinstance(branches, Ciphertext):  # pragma: no cover
            raise RuntimeProtocolError("branch decisions must be encrypted")
        b = model.branching
        rotated = [branches if i == 0 else ctx.rotate(branches, i) for i in range(b)]
        num_labels = model.num_labels

        results: List[Vector] = []
        for level_index in range(model.max_depth):
            diagonals = model.level_diagonals[level_index]
            mask = model.level_masks[level_index]
            products: List[Vector] = []
            for i, diagonal in enumerate(diagonals):
                extended = ctx.cyclic_extend(rotated[i], num_labels)
                products.append(ctx.and_any(diagonal, extended))
            level_decisions = ctx.xor_all(products)
            results.append(ctx.xor_any(level_decisions, mask))
        return results


# ---------------------------------------------------------------------------
# One-call convenience API
# ---------------------------------------------------------------------------


@dataclass
class SecureInferenceOutcome:
    """Everything a caller needs from one end-to-end secure inference."""

    result: InferenceResult
    context: FheContext
    model: EncryptedModel

    @property
    def tracker(self):
        return self.context.tracker

    @property
    def backend(self) -> str:
        """Registry name of the FHE backend the inference ran on."""
        return getattr(self.context, "backend_name", "unknown")


def secure_inference(
    compiled: CompiledModel,
    features: Sequence[int],
    params: Optional[EncryptionParams] = None,
    encrypted_model: bool = True,
    ctx: Optional[FheContext] = None,
    keys: Optional[KeyPair] = None,
    seccomp_variant: str = VARIANT_ALOUFI,
    auto_bootstrap: bool = False,
    engine: str = ENGINE_EAGER,
    plan=None,
    tape=None,
    megakernel=None,
    backend: Optional[str] = None,
) -> SecureInferenceOutcome:
    """Run one full secure inference end to end.

    ``encrypted_model=True`` is the offloading configuration (Maurice =
    Diane, the model travels encrypted); ``False`` is the
    Maurice-equals-Sally configuration where the model stays in plaintext
    on the server.  ``auto_bootstrap`` lets circuits deeper than the
    modulus chain run by re-encrypting mid-circuit.  ``engine="plan"``
    routes Sally through an optimized :class:`~repro.ir.plan.InferencePlan`
    (lowered here when ``plan`` is not supplied; pass a prebuilt plan to
    amortize the lowering across queries); ``engine="tape"`` additionally
    compiles the plan into a :class:`~repro.ir.tape.CompiledTape`
    (rotation-scheduled, register-reused, fused) — pass a prebuilt
    ``tape`` to amortize compilation; ``engine="megakernel"`` compiles
    that tape once more into a zero-dispatch
    :class:`~repro.ir.megakernel.MegaKernel` (pass a prebuilt
    ``megakernel`` to amortize).  ``backend`` selects the FHE
    backend the context is built on (a registered name from
    :func:`repro.fhe.available_backends`; default ``$REPRO_BACKEND`` or
    ``"reference"``) — ignored when an explicit ``ctx`` is supplied,
    since a context *is* a backend instance.
    """
    if params is None:
        params = EncryptionParams.paper_defaults()
    compiled.check_parameters(params, allow_bootstrapping=auto_bootstrap)
    if ctx is None:
        ctx = FheContext(params, backend=backend)
    elif backend is not None and getattr(ctx, "backend_name", None) != backend:
        raise RuntimeProtocolError(
            f"explicit ctx implements backend "
            f"{getattr(ctx, 'backend_name', 'unknown')!r}, but "
            f"backend={backend!r} was requested; pass one or the other"
        )
    if keys is None:
        keys = ctx.keygen()

    def lower():
        # Imported lazily: repro.ir.plan stages through this module.
        from repro.ir.plan import lower_inference

        return lower_inference(
            compiled, encrypted_model=encrypted_model, variant=seccomp_variant
        )

    artifacts = ensure_artifacts(
        engine, lower, {"plan": plan, "tape": tape, "megakernel": megakernel}
    )

    maurice = ModelOwner(compiled)
    diane = DataOwner(maurice.query_spec(), keys)
    sally = CopseServer(
        ctx,
        seccomp_variant=seccomp_variant,
        auto_bootstrap=auto_bootstrap,
        engine=engine,
        **artifacts,
    )

    if encrypted_model:
        enc_model = maurice.encrypt_model(ctx, keys.public)
    else:
        enc_model = maurice.plaintext_model(ctx)
    query = diane.prepare_query(ctx, features)
    encrypted_result = sally.classify(enc_model, query)
    result = diane.decrypt_result(ctx, encrypted_result)
    return SecureInferenceOutcome(result=result, context=ctx, model=enc_model)
