"""Fast FHE backends: batched bookkeeping over the same packed semantics.

The reference :class:`~repro.fhe.context.FheContext` spends most of its
wall-clock on *bookkeeping*, not bits: every operation allocates a DAG
node, a frozen noise dataclass, and a validated ciphertext wrapper.
Those structures buy analyses (work/span scheduling, noninterference
traces) that production serving never reads — the serve pipeline consumes
only per-phase operation counts and the final bits.

:class:`VectorFheContext` is the ``"vector"`` backend: bit-identical
results and noise-*failure*-identical semantics with batched
bookkeeping —

* a :class:`~repro.fhe.tracker.CountingTracker` (per-phase counts and
  exact multiplicative depth, no per-op node objects),
* flyweight noise states — slack is accounted in integer thousandths of
  a level, and each distinct ``(level, slack)`` pair is materialized
  once and shared by every ciphertext that reaches it (the capacity
  check runs when a state is first minted, so cache hits skip it),
* allocation-light ciphertext wrapping (:meth:`Ciphertext._make`), and
* no per-slot Python loops anywhere on the hot path (rotation is a
  two-slice concatenate; decryption returns the numpy payload).

:class:`PlaintextFheContext` is the ``"plaintext"`` debug backend: the
same fast ops with the noise budget lifted entirely, so circuits deeper
than the modulus chain still execute (for debugging logic independently
of parameter selection).  Key checks and operation counts are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import (
    KeyMismatchError,
    NoiseBudgetExceededError,
    SlotCapacityError,
)
from repro.fhe.backend import fold_balanced, register_backend_if_missing
from repro.fhe.ciphertext import Ciphertext, PlainVector
from repro.fhe.context import FheContext
from repro.fhe.keys import PublicKey
from repro.fhe.noise import (
    ADD_SLACK,
    CONST_ADD_SLACK,
    CONST_MULT_SLACK,
    NoiseModel,
    NoiseState,
    ROTATE_SLACK,
)
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import CountingTracker, OpKind, OpTracker

#: Slack increments in integer thousandths of a level.  These mirror the
#: float constants of :mod:`repro.fhe.noise` exactly (every float there
#: is a multiple of 0.001), which is what makes integer accounting agree
#: with the reference backend's float accounting at every threshold.
_ADD_MILLIS = round(ADD_SLACK * 1000)
_CONST_ADD_MILLIS = round(CONST_ADD_SLACK * 1000)
_CONST_MULT_MILLIS = round(CONST_MULT_SLACK * 1000)
_ROTATE_MILLIS = round(ROTATE_SLACK * 1000)
_BOOTSTRAP_MILLIS = 100  # NoiseState(level=0, slack=0.1)


@dataclass(frozen=True)
class _FastNoise(NoiseState):
    """A :class:`NoiseState` carrying its slack in integer thousandths.

    ``slack`` stays populated (``millis / 1000``) so every reference
    consumer — ``describe``, ``check_decryptable``, depth headroom —
    works unchanged; the integer twin makes combination exact and cheap.
    """

    millis: int = 0

    @property
    def effective_depth(self) -> int:
        return self.level + self.millis // 1000


class VectorFheContext(FheContext):
    """The ``"vector"`` backend: fast ops, aggregate bookkeeping."""

    backend_name = "vector"
    noise_fidelity = "aggregate"

    def __init__(
        self,
        params: Optional[EncryptionParams] = None,
        tracker: Optional[OpTracker] = None,
        backend: Optional[str] = None,
    ):
        super().__init__(params, tracker, backend)
        self._capacity = self.noise_model.capacity
        self._noise_cache: Dict[Tuple[int, int], _FastNoise] = {}
        self._ones_cache: Dict[int, PlainVector] = {}

    def _make_tracker(self) -> OpTracker:
        return CountingTracker()

    # ------------------------------------------------------------------
    # Flyweight noise states
    # ------------------------------------------------------------------

    @staticmethod
    def _millis(state: NoiseState) -> int:
        if type(state) is _FastNoise:
            return state.millis
        return int(round(state.slack * 1000))

    def _state(self, level: int, millis: int, op_name: str) -> _FastNoise:
        state = self._noise_cache.get((level, millis))
        if state is None:
            if level + millis // 1000 > self._capacity:
                raise NoiseBudgetExceededError(
                    f"homomorphic {op_name} would reach effective depth "
                    f"{level + millis // 1000}, exceeding the "
                    f"modulus-chain capacity of {self._capacity} levels "
                    f"({self.params.describe()}); increase `bits` or "
                    f"reduce the circuit's multiplicative depth"
                )
            state = _FastNoise(
                level=level, slack=millis / 1000.0, millis=millis
            )
            self._noise_cache[(level, millis)] = state
        return state

    def _after2(
        self,
        a: NoiseState,
        b: NoiseState,
        extra_level: int,
        extra_millis: int,
        op_name: str,
    ) -> _FastNoise:
        level = a.level if a.level >= b.level else b.level
        ma = self._millis(a)
        mb = self._millis(b)
        millis = ma if ma >= mb else mb
        return self._state(level + extra_level, millis + extra_millis, op_name)

    def _after1(
        self, a: NoiseState, extra_millis: int, op_name: str
    ) -> _FastNoise:
        return self._state(
            a.level, self._millis(a) + extra_millis, op_name
        )

    # ------------------------------------------------------------------
    # Fast wrapping (also picked up by inherited truncate/decrypt)
    # ------------------------------------------------------------------

    def _wrap(self, data: np.ndarray, key_id, noise, node_id) -> Ciphertext:
        return Ciphertext._make(data, data.size, key_id, noise, node_id)

    def adopt(self, ct: Ciphertext) -> Ciphertext:
        """Re-register a foreign ciphertext (see the reference docstring).

        The payload is shared, not copied: no operation ever mutates a
        ciphertext's slots (every op allocates its result), so the
        adopted view is as immutable as the original.  The serve path
        adopts the whole cached model once per batch, which makes this
        the difference between O(model) copying and O(1) re-tagging.
        """
        self._check_width(ct._length)
        node_id = self.tracker.record(OpKind.LOAD)
        return Ciphertext._make(
            ct._slots[: ct._length], ct._length, ct._key_id, ct._noise, node_id
        )

    def adopt_many(self, vectors):
        """Bulk :meth:`adopt`: one tracker call for a whole model load.

        The serve path re-registers ~a hundred cached model planes into
        a fresh per-batch context; one :meth:`adopt` at a time pays a
        Python round-trip per ciphertext for bookkeeping this backend
        can predict outright — a ``CountingTracker``'s node ids are
        depths, and a ``LOAD`` leaf's depth is always 0.  Observable
        semantics match ``[adopt(v) for v in vectors]`` exactly: the
        same ``LOAD`` count deltas (on the error path too — loads up to
        the offending ciphertext land, then the same width refusal),
        the same node ids, the same shared-payload immutability.  A
        plane whose wrapper already carries node id 0 and an
        exact-length payload needs no re-wrap at all and is returned as
        is.  Plain vectors pass through untouched, mirroring the serve
        loop's treatment; a context fitted with a foreign tracker falls
        back to per-ciphertext adoption.
        """
        if type(self.tracker) is not CountingTracker:
            return [
                self.adopt(v) if isinstance(v, Ciphertext) else v
                for v in vectors
            ]
        supports = self.params.supports_width
        make = Ciphertext._make
        record_fused = self.tracker.record_fused
        out = []
        append = out.append
        loads = 0
        for v in vectors:
            if not isinstance(v, Ciphertext):
                append(v)
                continue
            length = v._length
            if not supports(length):
                if loads:
                    record_fused({OpKind.LOAD: loads})
                self._check_width(length)  # raises the canonical error
            loads += 1
            slots = v._slots
            if v._node_id == 0 and slots.shape[0] == length:
                append(v)
            else:
                append(make(slots[:length], length, v._key_id, v._noise, 0))
        if loads:
            record_fused({OpKind.LOAD: loads})
        return out

    def _record_leaves(self, kind: OpKind, count: int):
        """One bulk record under the native tracker, whose node ids
        are depths: a leaf's is 0 (see :meth:`adopt_many`)."""
        if type(self.tracker) is not CountingTracker:
            return super()._record_leaves(kind, count)
        self.tracker.record_fused({kind: count})
        return [0] * count

    def _check_pair(self, a: Ciphertext, b: Ciphertext) -> None:
        if a._key_id != b._key_id or a._length != b._length:
            self._check_compatible(a, b)  # raises with the full message

    # ------------------------------------------------------------------
    # Primitive homomorphic operations (fast bodies, same semantics)
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        noise = self._after2(a._noise, b._noise, 0, _ADD_MILLIS, "add")
        data = np.bitwise_xor(a._slots[: a._length], b._slots[: b._length])
        node_id = self.tracker.record(OpKind.ADD, (a._node_id, b._node_id))
        return Ciphertext._make(data, a._length, a._key_id, noise, node_id)

    def const_add(self, a: Ciphertext, plain: PlainVector) -> Ciphertext:
        if a._length != plain.length:
            self._check_plain_length(a, plain)
        noise = self._after1(a._noise, _CONST_ADD_MILLIS, "constant add")
        data = np.bitwise_xor(a._slots[: a._length], plain._slots)
        node_id = self.tracker.record(OpKind.CONST_ADD, (a._node_id,))
        return Ciphertext._make(data, a._length, a._key_id, noise, node_id)

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        noise = self._after2(a._noise, b._noise, 1, 0, "multiply")
        data = np.bitwise_and(a._slots[: a._length], b._slots[: b._length])
        node_id = self.tracker.record(
            OpKind.MULTIPLY, (a._node_id, b._node_id)
        )
        return Ciphertext._make(data, a._length, a._key_id, noise, node_id)

    def const_mult(self, a: Ciphertext, plain: PlainVector) -> Ciphertext:
        if a._length != plain.length:
            self._check_plain_length(a, plain)
        noise = self._after1(a._noise, _CONST_MULT_MILLIS, "constant multiply")
        data = np.bitwise_and(a._slots[: a._length], plain._slots)
        node_id = self.tracker.record(OpKind.CONST_MULT, (a._node_id,))
        return Ciphertext._make(data, a._length, a._key_id, noise, node_id)

    def rotate(self, a: Ciphertext, amount: int) -> Ciphertext:
        if amount == 0:
            return a
        noise = self._after1(a._noise, _ROTATE_MILLIS, "rotate")
        n = a._length
        k = amount % n
        arr = a._slots[:n]
        data = np.concatenate((arr[k:], arr[:k]))
        node_id = self.tracker.record(OpKind.ROTATE, (a._node_id,))
        return Ciphertext._make(data, n, a._key_id, noise, node_id)

    def bootstrap(self, a: Ciphertext) -> Ciphertext:
        self.noise_model.check_decryptable(a._noise)
        data = a._slots[: a._length].copy()
        node_id = self.tracker.record(OpKind.BOOTSTRAP, (a._node_id,))
        return Ciphertext._make(
            data,
            a._length,
            a._key_id,
            self._state(0, _BOOTSTRAP_MILLIS, "bootstrap"),
            node_id,
        )

    def cyclic_extend(self, a: Ciphertext, length: int) -> Ciphertext:
        if length == a._length:
            return a
        if length < a._length:
            raise SlotCapacityError(
                f"cyclic_extend target {length} is shorter than the vector "
                f"({a._length}); use truncate instead"
            )
        self._check_width(length)
        reps = -(-length // a._length)
        data = np.tile(a._slots[: a._length], reps)[:length]
        noise = self._after1(a._noise, _ROTATE_MILLIS, "rotate")
        node_id = self.tracker.record(OpKind.ROTATE, (a._node_id,))
        return Ciphertext._make(data, length, a._key_id, noise, node_id)

    def ones(self, length: int) -> PlainVector:
        cached = self._ones_cache.get(length)
        if cached is None:
            cached = super().ones(length)
            self._ones_cache[length] = cached
        return cached

    # ------------------------------------------------------------------
    # Fused kernels (the optional ``fused_ops`` capability)
    # ------------------------------------------------------------------

    @property
    def fused_ops(self):
        """The fused-kernel capability (see :mod:`repro.fhe.backend`).

        Available only with this backend's native
        :class:`~repro.fhe.tracker.CountingTracker`: fused kernels
        record their constituent operations in bulk, which a DAG
        tracker cannot represent — a caller-supplied full tracker gets
        the (bit-identical) de-fused execution path instead.
        """
        if type(self.tracker) is not CountingTracker:
            return None
        ops = self.__dict__.get("_fused_ops")
        if ops is None:
            ops = self.__dict__["_fused_ops"] = VectorFusedOps(self)
        return ops

    @property
    def megakernel_ops(self):
        """The whole-tape megakernel capability (see :mod:`repro.fhe.backend`).

        Gated like :attr:`fused_ops`, and for the same reason: the
        megakernel records an entire tape's bookkeeping in one
        :meth:`~repro.fhe.tracker.CountingTracker.record_fused` call,
        which a DAG tracker cannot represent — a caller-supplied full
        tracker gets the (bit-identical) tape loop instead.
        """
        if type(self.tracker) is not CountingTracker:
            return None
        ops = self.__dict__.get("_megakernel_ops")
        if ops is None:
            ops = self.__dict__["_megakernel_ops"] = VectorMegakernelOps(self)
        return ops


class VectorFusedOps:
    """Fused tape kernels for the vector backend.

    Each kernel executes a whole XOR-accumulation group — the tape's
    ``rotate-mask-xor`` / ``mask-mult-accumulate`` instructions — as a
    handful of batched numpy operations plus *one* bookkeeping pass,
    instead of one full simulated op per term.  Observable semantics are
    byte-identical to the de-fused sequence: the same primitive-op
    counts land in the tracker (via
    :meth:`~repro.fhe.tracker.CountingTracker.record_fused`), the noise
    state is folded through the exact same flyweight combinators in the
    exact same order (so a budget overflow raises at the identical
    term), and key mismatches raise the same errors term-by-term.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: "VectorFheContext"):
        self._ctx = ctx

    def execute(self, spec, regs) -> Ciphertext:
        """Dispatch one fused instruction (spec from the tape compiler)."""
        if spec.kind == "rmx":
            return self.rotate_mask_xor(spec, regs)
        return self.mask_mult_accumulate(spec, regs)

    def _fold_add(self, states):
        """Balanced XOR fold over noise states (the canonical shape)."""
        ctx = self._ctx
        return fold_balanced(
            states,
            lambda a, b: ctx._after2(a, b, 0, _ADD_MILLIS, "add"),
        )

    def _fold_keys(self, sources):
        """Replay the de-fused XOR fold's compatibility checks.

        Each term value inherits its source's key (rotation and the
        per-term multiply — whose operand is already checked against
        its own source — never change it), so folding the source
        ciphertexts through the same balanced shape raises the same
        key-mismatch error, on the same pair, as the de-fused
        ``ctx.add`` fold would."""
        ctx = self._ctx

        def check(a, b):
            if a._key_id != b._key_id or a._length != b._length:
                ctx._check_compatible(a, b)  # raises with the full message
            return a

        return fold_balanced(sources, check)._key_id

    def rotate_mask_xor(self, spec, regs) -> Ciphertext:
        """``XOR_k rot(src, a_k) & mask_k`` over one source, one pass.

        The rotations become a single fancy-indexed gather over a
        precomputed index matrix, the masks one stacked AND, the
        accumulation one ``xor.reduce`` — k simulated operations in
        three numpy calls.
        """
        ctx = self._ctx
        src = regs[spec.terms[0][1]]
        n = src._length
        idx, maskmat = spec.gather_arrays(n)
        gathered = src._slots[:n][idx]
        if maskmat is not None:
            np.bitwise_and(gathered, maskmat, out=gathered)
        data = np.bitwise_xor.reduce(gathered, axis=0)

        base = src._noise
        states = []
        for amount, _, operand in spec.terms:
            state = base
            if amount:
                state = ctx._after1(state, _ROTATE_MILLIS, "rotate")
            if operand is not None:
                state = ctx._after1(
                    state, _CONST_MULT_MILLIS, "constant multiply"
                )
            states.append(state)
        noise = self._fold_add(states)
        node_id = ctx.tracker.record_fused(spec.op_counts, src._node_id)
        return Ciphertext._make(data, n, src._key_id, noise, node_id)

    def mask_mult_accumulate(self, spec, regs) -> Ciphertext:
        """``XOR_k rot(src_k, a_k) [& operand_k]`` over many sources.

        The Halevi-Shoup combine: per term one slice-rotate and one AND
        (ciphertext diagonal or plaintext mask), accumulated in place —
        with a single bulk bookkeeping pass for the whole group.
        """
        ctx = self._ctx
        n = spec.width
        acc = None
        states = []
        depth = 0
        sources = []
        for amount, src_slot, operand in spec.terms:
            src = regs[src_slot]
            sources.append(src)
            arr = src._slots[:n]
            if amount:
                arr = np.concatenate((arr[amount:], arr[:amount]))
            state = src._noise
            term_id = src._node_id
            if amount:
                state = ctx._after1(state, _ROTATE_MILLIS, "rotate")
            if operand is None:
                data = arr if amount else None
            elif isinstance(operand, int):
                other = regs[operand]
                if other._key_id != src._key_id or other._length != n:
                    ctx._check_compatible(src, other)  # raises
                data = np.bitwise_and(arr, other._slots[:n])
                state = ctx._after2(state, other._noise, 1, 0, "multiply")
                other_id = other._node_id
                term_id = (term_id if term_id >= other_id else other_id) + 1
            else:
                data = np.bitwise_and(arr, operand._slots)
                state = ctx._after1(
                    state, _CONST_MULT_MILLIS, "constant multiply"
                )
            states.append(state)
            if term_id > depth:
                depth = term_id
            if data is None:  # bare unrotated term: arr is a view
                data = arr
                if acc is None:
                    acc = arr.copy()
                    continue
            if acc is None:
                acc = data
            else:
                np.bitwise_xor(acc, data, out=acc)
        key_id = self._fold_keys(sources)
        noise = self._fold_add(states)
        node_id = ctx.tracker.record_fused(spec.op_counts, depth)
        return Ciphertext._make(acc, n, key_id, noise, node_id)


class VectorMegakernelOps:
    """Whole-tape megakernel support for the vector backend.

    The megakernel (:mod:`repro.ir.megakernel`) needs exactly one thing
    from the backend it cannot get through the arithmetic protocol: a
    **scratch context** — same backend class, same parameters, fresh
    tracker — on which it runs the tape loop once per input signature
    to capture op counts, depth, and output noise/key metadata.  The
    capture is faithful precisely because the scratch context *is* this
    backend: the same flyweight noise combinators, the same capacity
    checks, the same fused kernels.
    """

    __slots__ = ("_ctx",)

    def __init__(self, ctx: "VectorFheContext"):
        self._ctx = ctx

    def scratch_context(self) -> "VectorFheContext":
        """A fresh same-backend, same-params context for bookkeeping capture."""
        return type(self._ctx)(self._ctx.params)


class _UncheckedNoiseModel(NoiseModel):
    """A noise model whose budget can never be exhausted (debugging)."""

    #: Effectively infinite depth capacity; finite so headroom arithmetic
    #: stays in plain ints.
    UNBOUNDED = 1 << 30

    def __init__(self, params: EncryptionParams):
        super().__init__(params)
        self._capacity = self.UNBOUNDED


class PlaintextFheContext(VectorFheContext):
    """The ``"plaintext"`` backend: fast ops with the noise budget lifted.

    Levels and slack are still *tracked* (so noise introspection keeps
    working) but no operation, decryption, or bootstrap ever raises
    :class:`~repro.errors.NoiseBudgetExceededError` — the point of the
    backend is running circuits the parameters could not support, while
    debugging compiler or runtime logic.  Key identity is still checked:
    decrypting with the wrong key stays an error even in debug runs.
    """

    backend_name = "plaintext"
    noise_fidelity = "none"
    #: The debug backend runs tapes de-fused (per-op, like reference):
    #: when chasing a miscompile you want one simulated op per primitive,
    #: not batched kernels hiding the step that went wrong.  The same
    #: holds a fortiori for the whole-tape megakernel.
    fused_ops = None
    megakernel_ops = None

    def __init__(
        self,
        params: Optional[EncryptionParams] = None,
        tracker: Optional[OpTracker] = None,
        backend: Optional[str] = None,
    ):
        super().__init__(params, tracker, backend)
        self.noise_model = _UncheckedNoiseModel(self.params)
        self._capacity = self.noise_model.capacity


def _register_builtins() -> None:
    """Idempotent registration hook (import time + on-demand restore)."""
    register_backend_if_missing(
        "vector",
        VectorFheContext,
        description="fast vectorized simulator: counts-only tracking, "
        "flyweight noise states, identical bits and noise failures",
    )
    register_backend_if_missing(
        "plaintext",
        PlaintextFheContext,
        description="debug backend: noise budget lifted, circuits deeper "
        "than the modulus chain still run",
    )


_register_builtins()
