"""Noise-budget accounting for the BGV-style simulator.

BGV is a *leveled* scheme: the modulus chain is consumed as the circuit
multiplies.  Every ciphertext multiplication performs a modulus switch that
eats one level; additions, constant operations and rotations are almost free
but not quite — key switching after a rotation and the additive noise of
XORs nibble at the budget too.  When the consumed depth reaches the
capacity implied by the parameters, decryption fails.

The simulator models this with a :class:`NoiseState` per ciphertext:

* ``level`` — integer count of multiplicative levels consumed,
* ``slack`` — fractional budget consumed by cheap operations; every full
  unit of slack costs one additional level.

The *effective depth* of a ciphertext is ``level + floor(slack)``.  The
:class:`NoiseModel` combines states for each operation kind and raises
:class:`~repro.errors.NoiseBudgetExceededError` the moment an operation
would push the effective depth past the capacity — the deterministic
analogue of a decryption failure in real BGV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import NoiseBudgetExceededError
from repro.fhe.params import EncryptionParams

#: Fractional level consumed by a homomorphic addition (XOR).
ADD_SLACK = 0.002

#: Fractional level consumed by adding a plaintext constant.
CONST_ADD_SLACK = 0.001

#: Fractional level consumed by multiplying with a plaintext constant
#: (no relinearization, so far cheaper than a ciphertext multiply).
CONST_MULT_SLACK = 0.05

#: Fractional level consumed by the key switch that follows a rotation.
ROTATE_SLACK = 0.01


@dataclass(frozen=True)
class NoiseState:
    """Noise bookkeeping attached to every ciphertext."""

    level: int = 0
    slack: float = 0.0

    @property
    def effective_depth(self) -> int:
        """Multiplicative levels consumed, counting accumulated slack."""
        return self.level + int(math.floor(self.slack + 1e-9))

    def describe(self) -> str:
        return f"level={self.level} slack={self.slack:.3f}"


#: The noise of every freshly encrypted ciphertext: one shared state (it
#: is frozen), so a signature can tell a fresh input by identity instead
#: of hashing the dataclass (:meth:`repro.ir.megakernel.MegaKernel._signature`).
FRESH = NoiseState()


class NoiseModel:
    """Combines :class:`NoiseState` values according to BGV-style rules."""

    def __init__(self, params: EncryptionParams):
        self._params = params
        self._capacity = params.depth_capacity

    @property
    def capacity(self) -> int:
        """Maximum effective depth the modulus chain supports."""
        return self._capacity

    # ------------------------------------------------------------------
    # State constructors / combinators
    # ------------------------------------------------------------------

    def fresh(self) -> NoiseState:
        """Noise of a freshly encrypted ciphertext: :data:`FRESH`."""
        return FRESH

    def after_add(self, a: NoiseState, b: NoiseState) -> NoiseState:
        state = NoiseState(
            level=max(a.level, b.level),
            slack=max(a.slack, b.slack) + ADD_SLACK,
        )
        return self._check(state, "add")

    def after_const_add(self, a: NoiseState) -> NoiseState:
        state = NoiseState(level=a.level, slack=a.slack + CONST_ADD_SLACK)
        return self._check(state, "constant add")

    def after_const_mult(self, a: NoiseState) -> NoiseState:
        state = NoiseState(level=a.level, slack=a.slack + CONST_MULT_SLACK)
        return self._check(state, "constant multiply")

    def after_rotate(self, a: NoiseState) -> NoiseState:
        state = NoiseState(level=a.level, slack=a.slack + ROTATE_SLACK)
        return self._check(state, "rotate")

    def after_multiply(self, a: NoiseState, b: NoiseState) -> NoiseState:
        # A ciphertext-ciphertext multiply consumes one level of the chain
        # (relinearize + modulus switch); the deeper operand dominates.
        state = NoiseState(
            level=max(a.level, b.level) + 1,
            slack=max(a.slack, b.slack),
        )
        return self._check(state, "multiply")

    # ------------------------------------------------------------------

    def check_decryptable(self, state: NoiseState) -> None:
        """Raise if a ciphertext in this state would fail to decrypt."""
        if state.effective_depth > self._capacity:
            raise NoiseBudgetExceededError(
                f"ciphertext at effective depth {state.effective_depth} "
                f"exceeds the modulus-chain capacity of {self._capacity} "
                f"levels ({self._params.describe()})"
            )

    def _check(self, state: NoiseState, op_name: str) -> NoiseState:
        if state.effective_depth > self._capacity:
            raise NoiseBudgetExceededError(
                f"homomorphic {op_name} would reach effective depth "
                f"{state.effective_depth}, exceeding the modulus-chain "
                f"capacity of {self._capacity} levels "
                f"({self._params.describe()}); increase `bits` or reduce "
                f"the circuit's multiplicative depth"
            )
        return state
