"""Picklable envelopes for the multi-process serve cluster.

Everything that crosses a router/worker process boundary is defined
here, and everything here must survive ``pickle`` under the ``spawn``
start method (no lambdas, locks, futures, open trackers, or lazily
cached derived state — :class:`~repro.ir.tape.FusedSpec` drops its
gather caches in ``__getstate__`` for exactly this reason, and
:class:`~repro.ir.megakernel.MegaKernel` reduces to its tape and
recompiles lazily on the other side):

* :class:`ShippedModel` — the compiled model bundle a worker receives
  **exactly once** per (worker, epoch): the registered model's cached
  parameters, layout, keys, once-encrypted batched model, and compiled
  plan/tape/megakernel.  Binding is fail-closed by the existing
  :meth:`~repro.core.compiler.CompiledModel.fingerprint`: the envelope
  carries the fingerprint it was shipped under, and :meth:`verify`
  recomputes and cross-checks it against every cached artifact before
  the worker will evaluate a single batch.
* :class:`BatchRequest` / :class:`BatchResult` — one cut batch's raw
  integer features out, and its distilled measurements back (decrypted
  bitvectors, phase milliseconds, oracle verdicts).  The worker's
  :class:`~repro.fhe.tracker.OpTracker` never crosses the boundary —
  results carry plain numbers only.

Messages are ``(tag, payload...)`` tuples; the tags are the protocol
constants below.  Every message except ``MSG_LOAD`` is small; a worker
always returns to ``recv`` between evaluations, so the router can ship
a multi-megabyte envelope without a send/send deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.errors import ServeError
from repro.core.engines import artifacts_of
from repro.core.seccomp import VARIANT_ALOUFI

__all__ = [
    "ShippedModel",
    "BatchRequest",
    "BatchResult",
    "MSG_LOAD",
    "MSG_EVAL",
    "MSG_PING",
    "MSG_STOP",
    "MSG_READY",
    "MSG_LOADED",
    "MSG_PONG",
    "MSG_RESULT",
]

# Router -> worker message tags.
MSG_LOAD = "load"    #: ("load", ShippedModel)
MSG_EVAL = "eval"    #: ("eval", BatchRequest)
MSG_PING = "ping"    #: ("ping",)
MSG_STOP = "stop"    #: ("stop",)

# Worker -> router message tags.
MSG_READY = "ready"      #: ("ready", worker_id, epoch)
MSG_LOADED = "loaded"    #: ("loaded", worker_id, epoch, model, fingerprint)
MSG_PONG = "pong"        #: ("pong", worker_id, epoch)
MSG_RESULT = "result"    #: ("result", BatchResult)


@dataclass(frozen=True)
class ShippedModel:
    """A registered model, packaged for one-shot shipment to a worker.

    Field-for-field :class:`~repro.serve.registry.RegisteredModel`
    (both conversions copy by field name, so a field recorded there
    cannot be dropped here) plus ``fingerprint``, which is
    the :meth:`CompiledModel.fingerprint` recorded at packaging time;
    :meth:`verify` is the fail-closed gate every receiver runs before
    rebuilding a worker-side registered model.
    """

    name: str
    fingerprint: str
    compiled: object
    params: object
    layout: object
    spec: object
    keys: object
    batched_model: object
    cost_model: object
    encrypted_model: bool
    engine: str
    backend: str
    plan: Optional[object] = field(default=None, repr=False)
    tape: Optional[object] = field(default=None, repr=False)
    megakernel: Optional[object] = field(default=None, repr=False)
    forest: Optional[object] = field(default=None, repr=False)
    setup_ms: float = 0.0
    seccomp_variant: str = VARIANT_ALOUFI

    @classmethod
    def from_registered(cls, registered) -> "ShippedModel":
        """Package a :class:`RegisteredModel` (fingerprint recorded now)."""
        return cls(
            fingerprint=registered.compiled.fingerprint(),
            **{
                f.name: getattr(registered, f.name)
                for f in fields(registered)
            },
        )

    def verify(self) -> str:
        """Fail-closed integrity check; returns the verified fingerprint.

        Recomputes the compiled model's fingerprint and requires every
        cached artifact in the envelope — the batched ciphertext bundle,
        the lowered plan, the compiled tape, the megakernel — to
        carry exactly it.  An
        envelope that cannot prove it is one consistent model is
        refused before any batch can be evaluated against it.
        """
        actual = self.compiled.fingerprint()
        if actual != self.fingerprint:
            raise ServeError(
                f"shipped model {self.name!r} fails verification: "
                f"envelope fingerprint {self.fingerprint} != compiled "
                f"model fingerprint {actual}"
            )
        checks = [
            ("batched model", getattr(self.batched_model, "fingerprint",
                                      None)),
        ] + [
            (kind, getattr(artifact, "model_fingerprint", None))
            for kind, artifact in artifacts_of(self).items()
            if artifact is not None
        ]
        for what, fp in checks:
            if fp != actual:
                raise ServeError(
                    f"shipped model {self.name!r} fails verification: "
                    f"{what} fingerprint {fp} != compiled model "
                    f"fingerprint {actual}"
                )
        return actual

    def to_registered(self):
        """Rebuild the worker-side :class:`RegisteredModel` (verified)."""
        from repro.serve.registry import RegisteredModel

        self.verify()
        return RegisteredModel(
            **{f.name: getattr(self, f.name) for f in fields(RegisteredModel)}
        )


@dataclass(frozen=True)
class BatchRequest:
    """One cut batch, router -> worker: raw integer features only."""

    batch_id: int
    model: str
    #: Router's epoch for the target worker at dispatch time; echoed in
    #: the result so a completion from a superseded worker incarnation
    #: is recognized and dropped.
    epoch: int
    features: Tuple[Tuple[int, ...], ...]
    verify_oracle: bool = False


@dataclass(frozen=True)
class BatchResult:
    """One evaluated batch, worker -> router: distilled numbers only."""

    batch_id: int
    model: str
    worker: int
    epoch: int
    #: Per-query decrypted label bitvectors (None when ``error`` is set).
    bitvectors: Optional[Tuple[Tuple[int, ...], ...]]
    phase_ms: Dict[str, float]
    inference_ms: float
    data_encrypt_ms: float
    #: Per-query oracle agreement (None when verification was off).
    oracle_ok: Optional[Tuple[bool, ...]] = None
    oracle_failures: Optional[int] = None
    #: repr of the worker-side exception, when evaluation failed.
    error: Optional[str] = None
    #: Set when the worker fell down the engine ladder mid-batch: the
    #: engine that actually produced the bitvectors (router audits it).
    degraded_engine: Optional[str] = None
