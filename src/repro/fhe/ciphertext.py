"""Packed ciphertext and plaintext-vector types.

A :class:`Ciphertext` is the simulator's analogue of an HElib ``Ctxt``: a
single object holding an entire packed vector of GF(2) slots.  The payload
is private (``_slots``); user code is expected to go through
:class:`~repro.fhe.context.FheContext` for every operation, exactly as it
would with a real FHE library.  ``repr`` never shows the payload.

A :class:`CiphertextGroup` is several ciphertexts that share one key,
noise state, node id and length, held as one payload.

A :class:`PlainVector` is an *encoded but unencrypted* packed vector — the
analogue of an HElib ``Ptxt`` — used for constant-operand operations
(constant add / constant multiply) and for plaintext-model inference in the
Maurice-equals-Sally configuration (Section 8.3 of the paper).

Both types carry a ``logical length``: the number of meaningful slots.
Rotations are cyclic over the logical length (see DESIGN.md for how this
deviates from HElib's full-width rotations; the cost model charges for the
real thing).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence, Union

import numpy as np

from repro.errors import DomainError, SlotCapacityError
from repro.fhe.noise import NoiseState

_CT_COUNTER = itertools.count(1)

BitsLike = Union[Sequence[int], np.ndarray]


def coerce_bits(values: BitsLike) -> np.ndarray:
    """Validate and convert a bit sequence to a ``uint8`` numpy array.

    Raises :class:`~repro.errors.DomainError` when any element is not 0/1,
    since the plaintext domain of the packed scheme is GF(2).
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-D bit vector, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError("empty bit vectors cannot be packed")
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DomainError(f"bit vectors must be integral, got dtype {arr.dtype}")
    # One reduction (two for a signed dtype): far cheaper on a long
    # vector than testing every slot against both 0 and 1.
    if arr.max() > 1 or (arr.dtype.kind == "i" and arr.min() < 0):
        raise DomainError("plaintext slots must be bits (0 or 1)")
    return arr.astype(np.uint8)


class PlainVector:
    """An encoded plaintext packed vector (the analogue of HElib ``Ptxt``)."""

    __slots__ = ("_slots",)

    def __init__(self, bits: BitsLike):
        self._slots = coerce_bits(bits)
        self._slots.flags.writeable = False

    @property
    def length(self) -> int:
        """Number of meaningful slots."""
        return int(self._slots.size)

    def to_array(self) -> np.ndarray:
        """Return a copy of the slot contents (plaintexts are not secret)."""
        return self._slots.copy()

    def bits(self) -> list:
        return [int(b) for b in self._slots]

    def rotated(self, amount: int) -> "PlainVector":
        """Cyclic left rotation by ``amount`` slots."""
        return PlainVector(np.roll(self._slots, -amount))

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, PlainVector) and np.array_equal(
            self._slots, other._slots
        )

    def __hash__(self):  # pragma: no cover - plain vectors used in sets rarely
        return hash(self._slots.tobytes())

    def __repr__(self) -> str:
        preview = "".join(str(int(b)) for b in self._slots[:16])
        suffix = "..." if self.length > 16 else ""
        return f"PlainVector(len={self.length}, bits={preview}{suffix})"


class Ciphertext:
    """A packed ciphertext: one encrypted vector of GF(2) slots.

    Instances are immutable.  They must only be created by
    :class:`~repro.fhe.context.FheContext`; the constructor is considered
    package-private.  The payload is deliberately inaccessible except via
    ``FheContext.decrypt`` with the matching secret key.
    """

    __slots__ = ("_slots", "_length", "_key_id", "_noise", "_node_id", "_ct_id")

    def __init__(
        self,
        slots: np.ndarray,
        length: int,
        key_id: int,
        noise: NoiseState,
        node_id: int,
    ):
        if length <= 0 or length > slots.size:
            raise SlotCapacityError(
                f"logical length {length} invalid for {slots.size} slots"
            )
        self._slots = slots
        self._slots.flags.writeable = False
        self._length = length
        self._key_id = key_id
        self._noise = noise
        self._node_id = node_id
        self._ct_id = next(_CT_COUNTER)

    # -- public metadata (all of this is visible to an evaluator in a real
    #    FHE deployment: lengths, key identity, noise estimate) -----------

    @property
    def length(self) -> int:
        """Number of meaningful (logical) slots."""
        return self._length

    @property
    def key_id(self) -> int:
        """Identifier of the public key this ciphertext is under."""
        return self._key_id

    @property
    def noise(self) -> NoiseState:
        """Current noise estimate (evaluators track this in real BGV too)."""
        return self._noise

    @property
    def node_id(self) -> int:
        """Identifier of this ciphertext's node in the operation DAG."""
        return self._node_id

    @property
    def ciphertext_id(self) -> int:
        """Unique identifier of this ciphertext object."""
        return self._ct_id

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:
        return (
            f"Ciphertext(id={self._ct_id}, len={self._length}, "
            f"key={self._key_id}, {self._noise.describe()}, <encrypted>)"
        )

    # -- package-private accessors ---------------------------------------

    def _payload(self) -> np.ndarray:
        """Raw slot contents.  Package-private: only FheContext may call."""
        return self._slots

    @classmethod
    def _make(
        cls,
        slots: np.ndarray,
        length: int,
        key_id: int,
        noise: NoiseState,
        node_id: int,
    ) -> "Ciphertext":
        """Allocation-light construction for backend-internal results.

        Skips the length validation and the read-only flag flip of
        ``__init__`` — safe only for arrays the backend itself just
        produced (fresh numpy results no other code holds), which is why
        this is package-private like ``_payload``.
        """
        ct = object.__new__(cls)
        ct._slots = slots
        ct._length = length
        ct._key_id = key_id
        ct._noise = noise
        ct._node_id = node_id
        ct._ct_id = next(_CT_COUNTER)
        return ct


class CiphertextGroup:
    """Ciphertexts that share one key, noise state, node id and length
    — those of ``head``, the first of them — held as one ``(k,
    length)`` payload, row ``j`` ciphertext ``j``'s slots (row 0 is
    ``head``'s).

    A grouped query's planes are groups
    (:meth:`~repro.fhe.context.FheContext.encrypt_many` of a ``(k, n,
    width)`` block), and the megakernel pass that runs them answers
    with one per output.  The payload is private like a ciphertext's:
    only the context and the engine that seats it read ``_rows``.  The
    public metadata is the head's: what an evaluator sees of one of
    them it sees of all.
    """

    __slots__ = ("head", "_rows")

    def __init__(self, head: Ciphertext, rows: np.ndarray):
        self.head = head
        self._rows = rows

    @property
    def length(self) -> int:
        """The head's logical length: every member's."""
        return self.head._length

    def __len__(self) -> int:
        """The number of ciphertexts in the group."""
        return len(self._rows)

    def __repr__(self) -> str:
        return f"CiphertextGroup({len(self._rows)} x {self.head!r})"


def iter_bits(values: Iterable[int]):
    """Yield validated bits from an iterable (helper for tests/examples)."""
    for v in values:
        if v not in (0, 1):
            raise DomainError(f"expected a bit, got {v!r}")
        yield int(v)
