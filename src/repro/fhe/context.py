"""The FHE evaluation context: the simulator's analogue of an HElib context.

A :class:`FheContext` owns the encryption parameters, the noise model, and
an operation tracker, and exposes the primitive operations of Section 6 of
the paper:

* ``encrypt`` / ``decrypt``
* ``add`` (slot-wise XOR of two ciphertexts)
* ``const_add`` (XOR with an encoded plaintext vector)
* ``multiply`` (slot-wise AND of two ciphertexts; costs one level)
* ``const_mult`` (AND with an encoded plaintext vector; no relinearization)
* ``rotate`` (cyclic rotation by a constant number of slots)

plus convenience combinators used throughout the compiler and runtime:
mixed plain/cipher dispatch (``xor_any`` / ``and_any``), cyclic extension
and truncation for the Halevi-Shoup matrix product, and a balanced
``multiply_all`` product tree (log-depth accumulation, Section 4.3).

Every operation validates key consistency and logical lengths, updates the
per-ciphertext noise state (raising the moment the modulus chain would be
exhausted), and records itself in the tracker's dependency DAG.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import (
    DomainError,
    KeyMismatchError,
    ParameterError,
    SlotCapacityError,
)
from repro.fhe.backend import register_backend_if_missing, resolve_backend
from repro.fhe.ciphertext import (
    BitsLike,
    Ciphertext,
    CiphertextGroup,
    PlainVector,
    coerce_bits,
)
from repro.fhe.keys import KeyPair, PublicKey, SecretKey
from repro.fhe.noise import NoiseModel
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import OpKind, OpTracker

Vector = Union[Ciphertext, PlainVector]


class FheContext:
    """Evaluation context binding parameters, noise model, and tracker.

    ``FheContext`` is both the **reference backend** — the full-fidelity
    simulator described in this module's docstring — and the
    construction seam for every other backend: ``FheContext(params,
    backend="vector")`` consults the registry of
    :mod:`repro.fhe.backend` and returns that backend's context instead
    (the default is ``$REPRO_BACKEND`` or ``"reference"``).  Built-in
    backends subclass ``FheContext``, so ``isinstance`` checks and the
    shared combinators keep working; a registered factory that is not a
    subclass is simply called as ``factory(params, tracker)``.
    """

    #: Registry name of this backend (the protocol's identity field).
    backend_name = "reference"
    #: Reference noise states are the fidelity baseline.
    noise_fidelity = "exact"
    #: Optional fused-kernel capability (see ``repro.fhe.backend``): the
    #: reference backend executes compiled tapes de-fused, one recorded
    #: primitive at a time, so its DAG tracker and noise states stay the
    #: per-operation fidelity baseline the fused backends are held to.
    #: The whole-tape megakernel capability is declined for the same
    #: reason — a megakernel engine on this backend runs the tape loop.
    fused_ops = None
    megakernel_ops = None

    def __new__(
        cls,
        params: Optional[EncryptionParams] = None,
        tracker: Optional[OpTracker] = None,
        backend: Optional[str] = None,
    ):
        if cls is FheContext:
            impl = resolve_backend(backend)
            if impl is not FheContext:
                if isinstance(impl, type) and issubclass(impl, FheContext):
                    # A subclass: allocate it here and let Python run its
                    # __init__ with our arguments, exactly once.
                    return impl.__new__(impl, params, tracker, backend)
                # A foreign factory: construct the backend fully.  If
                # the factory happens to return an FheContext-derived
                # instance, Python will re-invoke __init__ on it (with
                # our backend alias, which need not match the instance's
                # own backend_name) — flag it so __init__ is a no-op and
                # the factory's construction stands as-is.
                obj = impl(params, tracker)
                if isinstance(obj, FheContext):
                    obj._factory_constructed = True
                return obj
        return super().__new__(cls)

    def __init__(
        self,
        params: Optional[EncryptionParams] = None,
        tracker: Optional[OpTracker] = None,
        backend: Optional[str] = None,
    ):
        if self.__dict__.pop("_factory_constructed", False):
            return  # fully built by a registered factory in __new__
        if backend is not None and backend != type(self).backend_name:
            raise ParameterError(
                f"{type(self).__name__} implements backend "
                f"{type(self).backend_name!r}, not {backend!r}"
            )
        self.params = params if params is not None else EncryptionParams.paper_defaults()
        self.tracker = tracker if tracker is not None else self._make_tracker()
        self.noise_model = NoiseModel(self.params)

    def _make_tracker(self) -> OpTracker:
        """The tracker this backend uses when the caller supplies none."""
        return OpTracker()

    # ------------------------------------------------------------------
    # Keys, encoding, encryption
    # ------------------------------------------------------------------

    def keygen(self) -> KeyPair:
        """Generate a fresh key pair at this context's security level."""
        return KeyPair.generate(self.params.security)

    def encode(self, bits: BitsLike) -> PlainVector:
        """Encode a bit vector as a plaintext packed vector."""
        vec = PlainVector(bits)
        self._check_width(vec.length)
        return vec

    def encrypt(self, bits: BitsLike, public_key: PublicKey) -> Ciphertext:
        """Encrypt a packed bit vector under ``public_key``."""
        arr = coerce_bits(bits)
        self._check_width(arr.size)
        node_id = self.tracker.record(OpKind.ENCRYPT)
        return Ciphertext(
            slots=arr.copy(),
            length=arr.size,
            key_id=public_key.key_id,
            noise=self.noise_model.fresh(),
            node_id=node_id,
        )

    def encrypt_many(self, planes: np.ndarray, public_key: PublicKey) -> List:
        """Encrypt every row of a bit block the caller just built.

        The bulk-encrypt capability (see :mod:`repro.fhe.backend`):
        ``[encrypt(row, public_key) for row in planes]`` with the block
        checked once — dtype, bits, width — instead of once per row, and
        *adopted* rather than copied, so the caller must hold no other
        reference it writes through.  The same ENCRYPT records in row
        order (node ids, tracker phase), the same fresh noise.  Anything
        but a non-empty 2-D ``uint8`` block of bits goes through
        :meth:`encrypt` row by row, which words the refusal.

        A ``(k, n, width)`` block is ``k`` such blocks encrypted as one
        group: one :class:`~repro.fhe.ciphertext.CiphertextGroup` per
        row ``i``, holding ``planes[:, i]``, whose head is the
        ciphertext of ``planes[0, i]``.  Its ``k`` ciphertexts share
        that head's key, fresh noise, node id and width, so the group
        books what encrypting ``planes[0]`` books: ``n`` ENCRYPT
        records.  A group of one is its ciphertexts.
        """
        block = np.asarray(planes)
        if block.ndim == 3:
            if len(block) != 1:
                return self._encrypt_groups(block, public_key)
            block = block[0]
        if (
            block.ndim != 2
            or block.dtype != np.uint8
            or block.size == 0
            or block.max() > 1
        ):
            return [self.encrypt(row, public_key) for row in block]
        return self._encrypt_block(block, public_key)

    def _encrypt_block(
        self, block: np.ndarray, public_key: PublicKey
    ) -> List[Ciphertext]:
        """Encrypt the rows of a non-empty 2-D ``uint8`` block of bits,
        adopting them."""
        self._check_width(block.shape[1])
        block.flags.writeable = False
        noise = self.noise_model.fresh()
        key_id = public_key.key_id
        return [
            self._wrap(row, key_id, noise, node_id)
            for row, node_id in zip(
                block, self._record_leaves(OpKind.ENCRYPT, len(block))
            )
        ]

    def _encrypt_groups(
        self, block: np.ndarray, public_key: PublicKey
    ) -> List[CiphertextGroup]:
        """:meth:`encrypt_many` of a ``(k, n, width)`` block, ``k != 1``."""
        if block.dtype != np.uint8 or block.size == 0 or block.max() > 1:
            # Every row as :func:`coerce_bits` takes it: the refusal is
            # the one :meth:`encrypt` words, and nothing is recorded.
            block = np.array([
                [coerce_bits(row) for row in rows] for rows in block
            ]).reshape(block.shape)
            if block.size == 0:
                return []
        block.flags.writeable = False
        return [
            CiphertextGroup(head, block[:, i])
            for i, head in enumerate(self._encrypt_block(block[0], public_key))
        ]

    def _record_leaves(self, kind: OpKind, count: int) -> List[int]:
        """Record ``count`` parentless ``kind`` operations in order;
        their node ids."""
        record = self.tracker.record
        return [record(kind) for _ in range(count)]

    def encrypt_plain(self, plain: PlainVector, public_key: PublicKey) -> Ciphertext:
        """Encrypt an already-encoded plaintext vector."""
        return self.encrypt(plain.to_array(), public_key)

    def decrypt(self, ct: Ciphertext, secret_key: SecretKey) -> np.ndarray:
        """Decrypt a ciphertext; fails on key mismatch or exhausted noise."""
        if secret_key.key_id != ct.key_id:
            raise KeyMismatchError(
                f"secret key {secret_key.key_id} cannot decrypt a ciphertext "
                f"under key {ct.key_id}"
            )
        self.noise_model.check_decryptable(ct.noise)
        self.tracker.record(OpKind.DECRYPT, parents=(ct.node_id,))
        return ct._payload()[: ct.length].copy()

    def decrypt_group(
        self, group: CiphertextGroup, secret_key: SecretKey
    ) -> np.ndarray:
        """Decrypt every ciphertext of ``group``: ``(k, length)`` bits.

        They share the head's key and noise state, so the head's
        decryption — its key and noise checks, its one ``DECRYPT`` —
        speaks for all of them: a group is evaluated, and booked, as
        the one ciphertext each of them would be alone.
        """
        self.decrypt(group.head, secret_key)
        return group._rows[:, : group.length].copy()

    def decrypt_bits(self, ct: Ciphertext, secret_key: SecretKey) -> List[int]:
        """Decrypt to a list of Python ints (convenience)."""
        return self.decrypt(ct, secret_key).tolist()

    def adopt(self, ct: Ciphertext) -> Ciphertext:
        """Re-register a ciphertext produced under another context's tracker.

        The batched inference service encrypts a model once and evaluates
        it in many per-batch contexts, each with its own tracker.  A node
        id only has meaning inside the tracker that issued it, so before a
        foreign ciphertext can participate in this context's DAG it must be
        adopted: a zero-cost ``LOAD`` leaf is recorded and the ciphertext is
        re-wrapped with the new node id.  Key identity and noise state are
        preserved — adoption is bookkeeping, not an FHE operation.  The
        vector must still fit this context's SIMD slots, like every other
        ciphertext entering it.
        """
        self._check_width(ct.length)
        node_id = self.tracker.record(OpKind.LOAD)
        return self._wrap(
            ct._payload()[: ct.length].copy(), ct.key_id, ct.noise, node_id
        )

    # ------------------------------------------------------------------
    # Primitive homomorphic operations
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Slot-wise XOR of two ciphertexts (the paper's *Add*)."""
        self._check_compatible(a, b)
        noise = self.noise_model.after_add(a.noise, b.noise)
        data = np.bitwise_xor(a._payload()[: a.length], b._payload()[: b.length])
        node_id = self.tracker.record(OpKind.ADD, parents=(a.node_id, b.node_id))
        return self._wrap(data, a.key_id, noise, node_id)

    def const_add(self, a: Ciphertext, plain: PlainVector) -> Ciphertext:
        """XOR with a plaintext vector (the paper's *Constant Add*)."""
        self._check_plain_length(a, plain)
        noise = self.noise_model.after_const_add(a.noise)
        data = np.bitwise_xor(a._payload()[: a.length], plain.to_array())
        node_id = self.tracker.record(OpKind.CONST_ADD, parents=(a.node_id,))
        return self._wrap(data, a.key_id, noise, node_id)

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Slot-wise AND of two ciphertexts (the paper's *Multiply*).

        Consumes one multiplicative level (relinearize + modulus switch).
        """
        self._check_compatible(a, b)
        noise = self.noise_model.after_multiply(a.noise, b.noise)
        data = np.bitwise_and(a._payload()[: a.length], b._payload()[: b.length])
        node_id = self.tracker.record(OpKind.MULTIPLY, parents=(a.node_id, b.node_id))
        return self._wrap(data, a.key_id, noise, node_id)

    def const_mult(self, a: Ciphertext, plain: PlainVector) -> Ciphertext:
        """AND with a plaintext vector (plaintext-model configurations)."""
        self._check_plain_length(a, plain)
        noise = self.noise_model.after_const_mult(a.noise)
        data = np.bitwise_and(a._payload()[: a.length], plain.to_array())
        node_id = self.tracker.record(OpKind.CONST_MULT, parents=(a.node_id,))
        return self._wrap(data, a.key_id, noise, node_id)

    def rotate(self, a: Ciphertext, amount: int) -> Ciphertext:
        """Cyclic left rotation by ``amount`` slots (costs a key switch)."""
        if amount == 0:
            return a
        noise = self.noise_model.after_rotate(a.noise)
        data = np.roll(a._payload()[: a.length], -amount)
        node_id = self.tracker.record(OpKind.ROTATE, parents=(a.node_id,))
        return self._wrap(data, a.key_id, noise, node_id)

    def bootstrap(self, a: Ciphertext) -> Ciphertext:
        """Homomorphically re-encrypt, resetting the noise (Section 2.2.1).

        The ciphertext must still be decryptable: bootstrapping happens
        *before* the modulus chain runs out, not after.  The operation is
        two orders of magnitude more expensive than a multiply (see the
        cost model), which is why the paper's parameter sweep prefers a
        longer chain.
        """
        self.noise_model.check_decryptable(a.noise)
        data = a._payload()[: a.length].copy()
        node_id = self.tracker.record(OpKind.BOOTSTRAP, parents=(a.node_id,))
        # A bootstrapped ciphertext is almost fresh: the re-encryption
        # circuit itself leaves a small noise residue.
        from repro.fhe.noise import NoiseState

        return self._wrap(data, a.key_id, NoiseState(level=0, slack=0.1), node_id)

    def depth_headroom(self, a: Ciphertext) -> int:
        """Multiplicative levels remaining before ``a`` stops decrypting."""
        return self.noise_model.capacity - a.noise.effective_depth

    # ------------------------------------------------------------------
    # Shape helpers for the Halevi-Shoup matrix product
    # ------------------------------------------------------------------

    def cyclic_extend(self, a: Ciphertext, length: int) -> Ciphertext:
        """Tile a ciphertext's logical vector cyclically to ``length`` slots.

        Used when a matrix has more rows than columns (Section 4.1.2: "v is
        cyclically extended").  In HElib this is rotations and additions
        under masks; we charge one rotation when actual work is done.
        """
        if length == a.length:
            return a
        if length < a.length:
            raise SlotCapacityError(
                f"cyclic_extend target {length} is shorter than the vector "
                f"({a.length}); use truncate instead"
            )
        self._check_width(length)
        reps = -(-length // a.length)
        data = np.tile(a._payload()[: a.length], reps)[:length]
        noise = self.noise_model.after_rotate(a.noise)
        node_id = self.tracker.record(OpKind.ROTATE, parents=(a.node_id,))
        return self._wrap(data, a.key_id, noise, node_id)

    def truncate(self, a: Ciphertext, length: int) -> Ciphertext:
        """Restrict the logical length (free: slots beyond are ignored)."""
        if length == a.length:
            return a
        if length > a.length:
            raise SlotCapacityError(
                f"cannot truncate a vector of length {a.length} to {length}"
            )
        data = a._payload()[:length].copy()
        return self._wrap(data, a.key_id, a.noise, a.node_id)

    # ------------------------------------------------------------------
    # Mixed plain/cipher dispatch
    # ------------------------------------------------------------------

    def xor_any(self, a: Vector, b: Vector) -> Vector:
        """XOR where either operand may be plaintext.

        plain (+) plain stays plaintext and costs nothing — this is how the
        plaintext-model configuration (Maurice = Sally, Section 8.3) gets
        its speedup.
        """
        if isinstance(a, Ciphertext) and isinstance(b, Ciphertext):
            return self.add(a, b)
        if isinstance(a, Ciphertext):
            return self.const_add(a, b)
        if isinstance(b, Ciphertext):
            return self.const_add(b, a)
        return PlainVector(np.bitwise_xor(a.to_array(), b.to_array()))

    def and_any(self, a: Vector, b: Vector) -> Vector:
        """AND where either operand may be plaintext."""
        if isinstance(a, Ciphertext) and isinstance(b, Ciphertext):
            return self.multiply(a, b)
        if isinstance(a, Ciphertext):
            return self.const_mult(a, b)
        if isinstance(b, Ciphertext):
            return self.const_mult(b, a)
        return PlainVector(np.bitwise_and(a.to_array(), b.to_array()))

    def rotate_any(self, a: Vector, amount: int) -> Vector:
        """Rotation where the operand may be plaintext (then free)."""
        if isinstance(a, Ciphertext):
            return self.rotate(a, amount)
        return a.rotated(amount)

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def multiply_all(self, vectors: Sequence[Vector]) -> Vector:
        """Balanced product tree: AND of all vectors in log depth.

        This is the accumulation step of Algorithm 1 (``MultAll``); the
        balanced pairing keeps the multiplicative depth at ``ceil(log2 n)``
        rather than ``n - 1``.
        """
        if not vectors:
            raise DomainError("multiply_all requires at least one vector")
        layer = list(vectors)
        while len(layer) > 1:
            nxt: List[Vector] = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self.and_any(layer[i], layer[i + 1]))
            if len(layer) % 2 == 1:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def xor_all(self, vectors: Sequence[Vector]) -> Vector:
        """XOR of all vectors (balanced for symmetry; XOR is depth-free)."""
        if not vectors:
            raise DomainError("xor_all requires at least one vector")
        layer = list(vectors)
        while len(layer) > 1:
            nxt: List[Vector] = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self.xor_any(layer[i], layer[i + 1]))
            if len(layer) % 2 == 1:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def ones(self, length: int) -> PlainVector:
        """All-ones plaintext vector (the constant for logical NOT)."""
        self._check_width(length)
        return PlainVector(np.ones(length, dtype=np.uint8))

    def zeros(self, length: int) -> PlainVector:
        """All-zeros plaintext vector."""
        self._check_width(length)
        return PlainVector(np.zeros(length, dtype=np.uint8))

    def negate(self, a: Vector) -> Vector:
        """Logical NOT: XOR with the all-ones constant."""
        return self.xor_any(a, self.ones(len(a)))

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------

    def _wrap(self, data: np.ndarray, key_id, noise, node_id) -> Ciphertext:
        return Ciphertext(
            slots=data, length=data.size, key_id=key_id, noise=noise, node_id=node_id
        )

    def _check_width(self, width: int) -> None:
        if not self.params.supports_width(width):
            raise SlotCapacityError(
                f"vector of width {width} does not fit in "
                f"{self.params.slot_count} SIMD slots ({self.params.describe()})"
            )

    def _check_compatible(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.key_id != b.key_id:
            raise KeyMismatchError(
                f"cannot combine ciphertexts under keys {a.key_id} and {b.key_id}"
            )
        if a.length != b.length:
            raise SlotCapacityError(
                f"cannot combine ciphertexts of lengths {a.length} and {b.length}"
            )

    def _check_plain_length(self, a: Ciphertext, plain: PlainVector) -> None:
        if a.length != plain.length:
            raise SlotCapacityError(
                f"ciphertext length {a.length} does not match plaintext "
                f"length {plain.length}"
            )


def _register_builtin() -> None:
    """Idempotent registration hook (import time + on-demand restore)."""
    register_backend_if_missing(
        "reference",
        FheContext,
        description="full-fidelity simulator: per-op noise states and a "
        "complete dependency-DAG tracker (work/span, traces)",
    )


_register_builtin()
