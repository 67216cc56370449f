"""The ``FheBackend`` protocol and the backend registry.

Every layer of the COPSE stack — the eager runtime, the IR executor, the
batched serve pipeline, the benchmark harness — drives the FHE substrate
through the ~20-operation surface documented here, never through a
concrete class.  A *backend* is any object implementing the protocol;
the registry maps short names to backend factories so callers select an
engine with a string::

    from repro.fhe import FheContext

    ctx = FheContext(backend="vector")        # fast aggregate bookkeeping
    ctx = FheContext(backend="reference")     # full DAG + noise fidelity
    ctx = FheContext(backend="plaintext")     # debug: no noise accounting

Built-in backends
-----------------

``reference``
    The original simulator (:class:`~repro.fhe.context.FheContext`
    itself): per-operation noise states, a full dependency-DAG tracker
    (work/span, multiplicative depth, noninterference traces).  The
    fidelity baseline every other backend must agree with bit-for-bit.

``vector``
    :class:`~repro.fhe.vector.VectorFheContext`: identical bit semantics
    and noise-*failure* semantics, but batched bookkeeping — a
    counts-only tracker (no DAG nodes), flyweight noise states, and
    allocation-light ciphertext wrapping with no per-slot Python loops.
    ~2x wall-clock on serving workloads; loses DAG-level analyses
    (span, traces).

``plaintext``
    :class:`~repro.fhe.vector.PlaintextFheContext`: a debugging backend
    that never exhausts the noise budget, so circuits deeper than the
    modulus chain still run.  Bit semantics and key checks are kept.

Third-party backends register with :func:`register_backend`; a factory is
typically a :class:`~repro.fhe.context.FheContext` subclass (inheriting
the combinators for free) but any callable returning a protocol
implementation works.  See ``examples/custom_backend.py``.

The process-wide default backend is ``reference`` unless the
``REPRO_BACKEND`` environment variable names another registered backend
(the CI matrix uses this to replay the whole differential suite under
``vector``).
"""

from __future__ import annotations

import os
import threading
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.errors import ParameterError

#: Environment variable naming the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The fidelity baseline backend (and the fallback default).
REFERENCE_BACKEND = "reference"


@runtime_checkable
class FheBackend(Protocol):
    """The operation surface every FHE backend must provide.

    This is exactly the contract :class:`~repro.fhe.context.FheContext`
    pioneered; extracting it lets the executor, runtime, and serve
    layers dispatch over *any* engine — a faster simulator, a debugging
    stub, or (one day) bindings to a real FHE library.

    Implementations must preserve the reference backend's observable
    semantics: identical result bits for identical programs, identical
    error types for protocol violations (key mismatch, slot capacity,
    plaintext domain), and — unless the backend documents
    ``noise_fidelity == "none"`` — identical noise-budget failures.
    """

    # -- identity ---------------------------------------------------------
    #: Registry name of this backend ("reference", "vector", ...).
    backend_name: str
    #: "exact" (reference-identical noise states), "aggregate" (same
    #: failure points, batched bookkeeping), or "none" (never fails).
    noise_fidelity: str

    # -- owned state ------------------------------------------------------
    params: "EncryptionParams"
    tracker: "OpTracker"
    noise_model: "NoiseModel"

    # -- keys, encoding, encryption --------------------------------------
    def keygen(self) -> "KeyPair": ...
    def encode(self, bits) -> "PlainVector": ...
    def encrypt(self, bits, public_key) -> "Ciphertext": ...
    def encrypt_plain(self, plain, public_key) -> "Ciphertext": ...
    def decrypt(self, ct, secret_key) -> np.ndarray: ...
    def decrypt_bits(self, ct, secret_key) -> List[int]: ...
    def adopt(self, ct) -> "Ciphertext": ...

    # -- primitive homomorphic operations --------------------------------
    def add(self, a, b) -> "Ciphertext": ...
    def const_add(self, a, plain) -> "Ciphertext": ...
    def multiply(self, a, b) -> "Ciphertext": ...
    def const_mult(self, a, plain) -> "Ciphertext": ...
    def rotate(self, a, amount: int) -> "Ciphertext": ...
    def bootstrap(self, a) -> "Ciphertext": ...
    def depth_headroom(self, a) -> int: ...

    # -- shape helpers ----------------------------------------------------
    def cyclic_extend(self, a, length: int) -> "Ciphertext": ...
    def truncate(self, a, length: int) -> "Ciphertext": ...

    # -- mixed plain/cipher dispatch and combinators ---------------------
    def xor_any(self, a, b): ...
    def and_any(self, a, b): ...
    def rotate_any(self, a, amount: int): ...
    def multiply_all(self, vectors: Sequence): ...
    def xor_all(self, vectors: Sequence): ...
    def ones(self, length: int) -> "PlainVector": ...
    def zeros(self, length: int) -> "PlainVector": ...
    def negate(self, a): ...

    # -- optional capabilities --------------------------------------------
    # ``fused_ops`` is an *optional* capability surface, discovered with
    # ``getattr(ctx, "fused_ops", None)`` rather than declared here (so
    # backends that predate it remain protocol-conformant).  A non-None
    # value must expose ``execute(spec, regs) -> Ciphertext`` consuming
    # the fused-instruction specs of :mod:`repro.ir.tape`
    # (``rotate-mask-xor`` single-source gathers and
    # ``mask-mult-accumulate`` product accumulations), with observable
    # semantics — result bits, noise evolution and failure points,
    # tracker op counts, error types — byte-identical to executing the
    # spec's recorded de-fused op sequence on the same backend.  The
    # vector backend implements it
    # (:class:`~repro.fhe.vector.VectorFusedOps`); the reference and
    # plaintext backends leave it ``None`` and take the de-fused path.
    #
    # ``megakernel_ops`` is the second optional capability, discovered
    # the same way (``getattr(ctx, "megakernel_ops", None)``) by the
    # whole-tape megakernel of :mod:`repro.ir.megakernel`.  A non-None
    # value must expose ``scratch_context() -> ctx`` returning a fresh
    # context of the same backend class and parameters (fresh tracker),
    # on which the megakernel runs the tape loop once per input
    # signature to capture bulk bookkeeping.  Backends leaving it
    # ``None`` make ``engine="megakernel"`` run the tape loop directly —
    # same bits, same counts, only the dispatch cost differs.
    #
    # ``adopt_many`` is the third optional capability, discovered by the
    # serve layer's per-batch model adoption
    # (``getattr(ctx, "adopt_many", None)``).  A non-None value must
    # accept a sequence of mixed plain/cipher vectors and behave exactly
    # like adopting each ciphertext in order (plain vectors pass
    # through): identical ``LOAD`` count deltas — including partial
    # counts before a width refusal — identical node ids, identical
    # error types.  The vector backend implements it with one bulk
    # tracker record per list; backends without it are adopted one
    # ciphertext at a time.
    #
    # ``encrypt_many`` is the fourth, discovered by the serve layer's
    # per-batch query encryption (``getattr(ctx, "encrypt_many",
    # None)``).  A non-None value must accept a 2-D block of bit planes
    # and a public key and behave exactly like encrypting each row in
    # order — identical ``ENCRYPT`` records, node ids, noise, error
    # types — while free to check the block once and to adopt its rows
    # without copying.  Given a 3-D ``(k, n, width)`` block it returns
    # ``n`` ``CiphertextGroup`` objects instead, one per row across the
    # ``k`` blocks, booked as the encryption of the first block alone.
    # ``FheContext`` implements it for every built-in backend; backends
    # without it are handed one plane at a time, and only a group of one.


def fold_balanced(items, combine):
    """The canonical balanced pairwise fold of the fused-ops contract.

    The single definition of the pairing shape shared by ``xor_all`` /
    ``multiply_all`` style reductions, the tape compiler, the fused
    kernels, and their de-fused fallbacks: items combine pairwise per
    layer, an odd tail carries to the next layer.  Fused bookkeeping and
    de-fused execution folding in exactly this shape is what keeps their
    noise evolution — including the term at which a budget overflow
    raises — byte-identical.
    """
    layer = list(items)
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(combine(layer[i], layer[i + 1]))
        if len(layer) % 2 == 1:
            nxt.append(layer[-1])
        layer = nxt
    return layer[0]


#: A backend factory: called as ``factory(params, tracker)`` (both
#: optional) and returning an :class:`FheBackend`.  FheContext
#: subclasses satisfy this directly.
BackendFactory = Callable[..., FheBackend]

_REGISTRY: Dict[str, BackendFactory] = {}
_DESCRIPTIONS: Dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()
_BUILTIN_NAMES = frozenset(("reference", "vector", "plaintext"))


def register_backend(
    name: str,
    factory: BackendFactory,
    description: str = "",
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name``.

    Names are case-sensitive, non-empty strings.  Re-registering an
    existing name raises unless ``replace=True`` (so a typo cannot
    silently shadow a built-in engine).
    """
    if not name or not isinstance(name, str):
        raise ParameterError("a backend needs a non-empty string name")
    if not callable(factory):
        raise ParameterError(
            f"backend factory for {name!r} must be callable, "
            f"got {type(factory).__name__}"
        )
    with _REGISTRY_LOCK:
        if name in _REGISTRY and not replace:
            raise ParameterError(
                f"a backend named {name!r} is already registered; "
                f"pass replace=True to override it"
            )
        _REGISTRY[name] = factory
        _DESCRIPTIONS[name] = description


def register_backend_if_missing(
    name: str, factory: BackendFactory, description: str = ""
) -> None:
    """Register ``factory`` unless ``name`` is already taken.

    The idempotent flavor the built-in modules use, both at import time
    and when :func:`_ensure_builtins` restores an unregistered built-in
    — a user's deliberate ``replace=True`` override is never clobbered.
    """
    if not name or not isinstance(name, str):
        raise ParameterError("a backend needs a non-empty string name")
    if not callable(factory):
        raise ParameterError(
            f"backend factory for {name!r} must be callable, "
            f"got {type(factory).__name__}"
        )
    with _REGISTRY_LOCK:
        if name in _REGISTRY:
            return
        _REGISTRY[name] = factory
        _DESCRIPTIONS[name] = description


def unregister_backend(name: str) -> None:
    """Remove a registered backend (built-ins re-register on demand)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)
        _DESCRIPTIONS.pop(name, None)


def _ensure_builtins() -> None:
    """Make sure every built-in backend is registered.

    The built-in modules register themselves at import time (lazy
    imports here avoid a cycle — context.py imports this module at load
    time); re-invoking their idempotent registration hooks additionally
    restores any built-in a caller unregistered, without touching names
    a user replaced.
    """
    with _REGISTRY_LOCK:
        if _BUILTIN_NAMES <= _REGISTRY.keys():
            return
    import repro.fhe.context as _context
    import repro.fhe.vector as _vector

    _context._register_builtin()
    _vector._register_builtins()


def get_backend(name: str) -> BackendFactory:
    """Look up a backend factory by name; raises on unknown names."""
    _ensure_builtins()
    with _REGISTRY_LOCK:
        factory = _REGISTRY.get(name)
    if factory is None:
        known = ", ".join(available_backends()) or "none"
        raise ParameterError(
            f"unknown FHE backend {name!r} (registered: {known})"
        )
    return factory


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    _ensure_builtins()
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


def backend_description(name: str) -> str:
    """The one-line description a backend registered with."""
    get_backend(name)  # raise on unknown names
    with _REGISTRY_LOCK:
        return _DESCRIPTIONS.get(name, "")


def default_backend() -> str:
    """The process-wide default: ``$REPRO_BACKEND`` or ``reference``."""
    return os.environ.get(BACKEND_ENV_VAR) or REFERENCE_BACKEND


def resolve_backend(name: Optional[str] = None) -> BackendFactory:
    """Resolve ``name`` (or the process default) to a backend factory."""
    return get_backend(name if name is not None else default_backend())


def canonical_backend_name(name: Optional[str] = None) -> str:
    """Validate ``name`` (or the process default) and return it.

    Used by layers that *store* a backend choice (the serve registry,
    runner configs) so an unknown name fails at selection time, not at
    the first batch evaluation.
    """
    resolved = name if name is not None else default_backend()
    get_backend(resolved)
    return resolved
