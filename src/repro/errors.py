"""Exception hierarchy for the COPSE reproduction.

Every error raised by this package derives from :class:`CopseError`, so
downstream users can catch a single type.  Subsystems define narrower
classes: the FHE substrate raises :class:`FheError` subclasses, the model
layer raises :class:`ModelError` subclasses, and the compiler/runtime raise
:class:`CompileError` / :class:`RuntimeProtocolError`.
"""

from __future__ import annotations

import numbers


class CopseError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# FHE substrate errors
# ---------------------------------------------------------------------------


class FheError(CopseError):
    """Base class for errors raised by the FHE simulator."""


class ParameterError(FheError):
    """Invalid or inconsistent encryption parameters."""


class KeyMismatchError(FheError):
    """An operation combined ciphertexts under different keys, or a
    decryption was attempted with the wrong secret key."""


class NoiseBudgetExceededError(FheError):
    """The ciphertext noise exceeded the capacity of the modulus chain.

    In a real BGV implementation this manifests as a decryption failure;
    the simulator raises eagerly at the operation that exhausts the budget
    so circuits that would not decrypt are rejected deterministically.
    """


class SlotCapacityError(FheError):
    """A plaintext vector does not fit in the available SIMD slots."""


class DomainError(FheError):
    """A plaintext value lies outside the plaintext domain (GF(2))."""


# ---------------------------------------------------------------------------
# Model-layer errors
# ---------------------------------------------------------------------------


class ModelError(CopseError):
    """Base class for decision-forest model errors."""


class SerializationError(ModelError):
    """A serialized model could not be parsed."""


class ValidationError(ModelError):
    """A decision forest failed structural validation."""


class TrainingError(ModelError):
    """Model training could not proceed (e.g. empty dataset)."""


# ---------------------------------------------------------------------------
# Compiler / runtime errors
# ---------------------------------------------------------------------------


class CompileError(CopseError):
    """The COPSE compiler rejected a model."""


class PrecisionError(CompileError):
    """A threshold or feature does not fit in the chosen fixed-point
    precision."""


class RuntimeProtocolError(CopseError):
    """A party performed a protocol step out of order or with data it does
    not own (e.g. Sally attempting to decrypt)."""


class LeakageError(CopseError):
    """A security-analysis query was malformed (unknown scenario, etc.)."""


class OracleMismatchError(CopseError):
    """A secure evaluation decrypted to a result the plaintext oracle
    does not give for the same features."""


# ---------------------------------------------------------------------------
# Serving errors
# ---------------------------------------------------------------------------


class ServeError(CopseError):
    """The serving layer rejected an operation (lifecycle, admission,
    or scheduling), as opposed to the query itself being malformed."""


class RejectedQuery(ServeError):
    """Admission control rejected a query instead of queueing it.

    Raised at ``submit`` time when the target model's pending queue is at
    its configured bound — the overload signal callers are expected to
    handle (back off, shed, or retry elsewhere), instead of the queue
    growing without bound.  When the refused query was part of a block
    (``submit_many``), ``admitted`` holds the futures of the queries
    admitted ahead of it, in order — they stay queued and are served.
    """

    def __init__(self, message: str, *, model: str = "",
                 tenant: str = "", queue_depth: int = 0, limit: int = 0,
                 admitted=()):
        super().__init__(message)
        self.model = model
        self.tenant = tenant
        self.queue_depth = queue_depth
        self.limit = limit
        self.admitted = admitted


class PoisonQueryError(ServeError):
    """Quarantine isolated this query as the one crashing its workers.

    Raised on the query's future after bisection narrowed a repeatedly
    worker-killing batch down to this single query and moved it to the
    dead-letter queue.  Carries enough context to find the quarantine
    trail in the router's decision log.
    """

    def __init__(self, message: str, *, model: str = "",
                 tenant: str = "", seq: int = -1, attempts: int = 0):
        super().__init__(message)
        self.model = model
        self.tenant = tenant
        self.seq = seq
        self.attempts = attempts


class WorkerPoolExhaustedError(ServeError):
    """No cluster worker is left to run this query.

    Raised on a query's future when the last worker of the pool was
    given up on — its replacements kept dying before reporting ready,
    past the respawn budget — so the query could never be placed.
    """


# ---------------------------------------------------------------------------
# Typed refusals of ill-typed arguments
# ---------------------------------------------------------------------------


def require_int(what: str, value) -> None:
    """Refuse a ``value`` that is not an integer, as a
    :class:`ValidationError` — before a comparison or a ``range`` turns
    it into a raw ``TypeError`` somewhere state has already changed."""
    if not isinstance(value, (int, numbers.Integral)):
        raise ValidationError(
            f"{what} must be an integer, got {value!r}"
        )


def require_at_least(what: str, value, low: int) -> None:
    """:func:`require_int`, and refuse a ``value`` below ``low``."""
    require_int(what, value)
    if value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")


def require_real(what: str, value) -> None:
    """Refuse a ``value`` that is not a real number (NaN included)."""
    if not isinstance(value, (int, float, numbers.Real)) or value != value:
        raise ValidationError(
            f"{what} must be a real number, got {value!r}"
        )
