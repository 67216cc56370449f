"""The transport seam: wire types, and the two ways a batch is run.

The serve facade (:class:`~repro.serve.service.CopseService`) owns
admission, routing and futures; a :class:`Transport` is only what
differs between evaluating a cut batch **in this process** and in a
**pool of worker processes** — bring a worker incarnation up or down,
carry out one of the router's instructions (:class:`ShipAction`,
:class:`AssignAction`, :class:`HedgeAction`), wait for what happened
(:class:`Completion`, :class:`WorkerDied`, :class:`Heartbeat`), close:

* :class:`InThreadTransport` is a worker without a pipe: the pump
  thread runs the worker's routine, one assignment at a time; nothing
  is pickled, a ship is a no-op and a worker cannot die.
* :class:`ProcessTransport` runs ``multiprocessing`` workers behind
  pipes, each in :func:`repro.serve.worker.worker_main`, forked from
  one preloaded server (``forkserver``; ``spawn`` where the platform
  has no fork server).
* :class:`~repro.serve.loadgen.VirtualTransport` (the simulator's)
  schedules each outcome on a virtual clock instead of evaluating.

The two that evaluate hand back one :class:`BatchResult` per assignment
to one handler.

Everything that crosses the process boundary is defined here too, and
must survive ``pickle`` (a worker's target and arguments are pickled
under ``forkserver`` as under ``spawn``; no lambdas,
locks, futures, open trackers, or lazily cached derived state —
:class:`~repro.ir.tape.FusedSpec` drops its gather caches in
``__getstate__`` for exactly this reason, and
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
* :class:`BatchRequest` / :class:`BatchResult` — one assignment's raw
  integer features out as one ``(n, features)`` array (with the
  ``fills`` that cut them into batches),
  and its distilled measurements back: the decrypted bitvectors and
  oracle verdicts flat, batch after batch, and a :class:`BatchPart` of
  plain numbers per batch (operation counts included: the worker's
  :class:`~repro.fhe.tracker.OpTracker` never crosses the boundary).

Messages are ``(tag, payload...)`` tuples; the tags are the protocol
constants below.  Every message except ``MSG_LOAD`` is small; a worker
always returns to ``recv`` between evaluations, so the router can ship
a multi-megabyte envelope without a send/send deadlock.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ServeError, ValidationError, require_real
from repro.core.engines import artifacts_of
from repro.core.seccomp import VARIANT_ALOUFI
from repro.serve.batched_runtime import shared_pass_lanes
from repro.serve.batcher import BatchRecord, classification_results
from repro.serve.scheduler import Assignment, settle

__all__ = [
    "ShipAction",
    "AssignAction",
    "HedgeAction",
    "Completion",
    "WorkerDied",
    "Heartbeat",
    "Transport",
    "InThreadTransport",
    "ProcessTransport",
    "MAX_STARTUP_DEATHS",
    "ShippedModel",
    "BatchRequest",
    "BatchPart",
    "BatchResult",
    "MSG_LOAD",
    "MSG_EVAL",
    "MSG_PING",
    "MSG_STOP",
    "MSG_READY",
    "MSG_PONG",
    "MSG_RESULT",
]

# Router -> worker message tags.
MSG_LOAD = "load"    #: ("load", ShippedModel); no reply
MSG_EVAL = "eval"    #: ("eval", BatchRequest)
MSG_PING = "ping"    #: ("ping",)
MSG_STOP = "stop"    #: ("stop",)

# Worker -> router message tags.
MSG_READY = "ready"      #: ("ready", worker_id, epoch)
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
    """One assignment, router -> worker: raw integer features only."""

    batch_id: int
    model: str
    #: Router's epoch for the target worker at dispatch time; echoed in
    #: the result so a completion from a superseded worker incarnation
    #: is recognized and dropped.
    epoch: int
    #: Every query's features, flat: one ``(n, features)`` array.
    features: Sequence[Sequence[int]]
    verify_oracle: bool = False
    #: Features in each batch of the assignment, in order (empty: they
    #: are all one batch).
    fills: Tuple[int, ...] = ()

    def batches(self) -> List[Sequence[Sequence[int]]]:
        """The features of each batch, as the routine takes them."""
        out, at = [], 0
        for fill in self.fills or (len(self.features),):
            out.append(self.features[at : at + fill])
            at += fill
        return out


class BatchPart(NamedTuple):
    """What one batch of an assignment measured, worker -> router."""

    phase_ms: Dict[str, float]
    inference_ms: float
    data_encrypt_ms: float
    #: Queries the oracle disagreed with (None: verification was off).
    oracle_failures: Optional[int] = None
    #: ``Type: message`` of the worker-side exception, when this batch's
    #: evaluation failed past the engine ladder (no bitvectors then).
    error: Optional[str] = None
    #: Set when the worker fell down the engine ladder mid-batch: the
    #: engine that actually produced the bitvectors (router audits it).
    degraded_engine: Optional[str] = None
    #: Operation counts per tracker phase: ``{phase: {op: count}}``.
    phase_op_counts: Dict[str, Dict[str, int]] = {}


@dataclass(frozen=True)
class BatchResult:
    """One evaluated assignment, worker -> router: distilled numbers
    only.  The :class:`BatchPart` fields below are the first batch's
    (``batch_id``); ``rest`` holds those of the batches after it."""

    batch_id: int
    model: str
    worker: int
    epoch: int
    #: Per-query decrypted label bitvectors of the batches that were
    #: answered, batch after batch (None when none was).
    bitvectors: Optional[Sequence[Sequence[int]]]
    phase_ms: Dict[str, float]
    inference_ms: float
    data_encrypt_ms: float
    #: Per-query oracle agreement, flat like ``bitvectors`` (None when
    #: verification was off).
    oracle_ok: Optional[Tuple[bool, ...]] = None
    oracle_failures: Optional[int] = None
    error: Optional[str] = None
    degraded_engine: Optional[str] = None
    rest: Tuple[BatchPart, ...] = ()
    phase_op_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def parts(self) -> Tuple[BatchPart, ...]:
        """One :class:`BatchPart` per batch of the assignment."""
        return (BatchPart(
            self.phase_ms, self.inference_ms, self.data_encrypt_ms,
            self.oracle_failures, self.error, self.degraded_engine,
            self.phase_op_counts,
        ),) + self.rest


# ---------------------------------------------------------------------------
# Router -> transport instructions, transport -> facade events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShipAction:
    """Router instruction: send ``model``'s envelope to ``worker``."""

    worker: int
    epoch: int
    model: str


@dataclass
class AssignAction:
    """Router instruction: evaluate ``assignment`` on its bound worker."""

    assignment: Assignment
    epoch: int
    #: True when a ShipAction for the same worker precedes this batch —
    #: the simulator charges the ship latency to this batch.
    newly_shipped: bool = False


@dataclass
class HedgeAction:
    """Router instruction: *also* evaluate ``assignment`` on ``worker``.

    Emitted when a batch has been in flight past its hedge threshold:
    the engine sends the same batch to a second worker and lets the
    first valid completion win (the loser is dropped by the epoch/busy
    staleness check).  ``assignment.worker`` still names the primary.
    """

    assignment: Assignment
    worker: int
    epoch: int
    newly_shipped: bool = False


@dataclass
class Completion:
    """An assignment came back from ``(worker, epoch)``.

    ``records`` holds, per batch of the assignment, what the stats
    aggregator books — None where the evaluation raised
    (deterministic: failed, never retried); ``failed`` maps those
    batches' positions to the worker-side ``Type: message``.
    ``resolve`` delivers the results to the futures; the facade runs it
    outside its lock once the router accepts the completion.
    """

    assignment: Assignment
    worker: int
    epoch: int
    records: List[Optional[BatchRecord]]
    resolve: Callable[[], None]
    failed: Dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerDied:
    """Incarnation ``epoch`` of ``worker`` is gone (pipe EOF) or must go
    (it sent a malformed result)."""

    worker: int
    epoch: int


@dataclass(frozen=True)
class Heartbeat:
    worker: int
    epoch: int


#: Respawn budget: a worker slot is given up on once this many
#: incarnations in a row died before their first ``MSG_READY`` or could
#: not be started at all (a broken environment, an unimportable
#: ``__main__``, no file descriptors left) — starting such a worker
#: again would crash-loop.
MAX_STARTUP_DEATHS = 3


class Transport:
    """Where batches are evaluated, as the facade sees it.

    A transport implements ``send(action)`` and ``wait(timeout)`` (block
    — the one call made *without* the facade's lock — until something
    happened).  The rest is written once: ``stage`` / ``unstage`` (keep
    what evaluating a model's batches needs; report the queue's
    ``lanes``, how many of them one evaluation runs), the in-flight map
    and ``receive`` (every :class:`BatchResult` through the one
    completion handler, :meth:`_result_event`).  The lifecycle defaults
    are the in-thread answers: a worker is a slot, not a process.
    """

    #: Longest the pump sleeps in ``wait`` before re-reading the timers.
    poll_interval_s = 0.5
    #: Seconds between liveness pings; None: workers cannot hang, and
    #: the router starts no liveness clock for them.
    heartbeat_interval_s: Optional[float] = None
    #: How long ``close()`` waits for admitted work; None: all of it.
    close_grace_s: Optional[float] = None

    def __init__(self, verify_oracle: bool, clock):
        self.verify_oracle = verify_oracle
        self.clock = clock
        #: model name -> what its batches are evaluated and answered
        #: against: the registered model, or its field-for-field envelope.
        self._staged: Dict[str, object] = {}
        #: batch_id -> assignment awaiting its result.
        self._inflight: Dict[int, Assignment] = {}

    #: What :meth:`stage` keeps of a registered model: itself, here.
    _package = staticmethod(lambda registered: registered)

    def stage(self, registered) -> int:
        self._staged[registered.name] = self._package(registered)
        # A worker process runs the pump thread's routine on the shipped
        # artifact: what shares a pass here does there.
        return shared_pass_lanes(registered)

    def unstage(self, name: str) -> None:
        self._staged.pop(name, None)

    def _request(self, assignment: Assignment, epoch: int) -> BatchRequest:
        """``assignment`` as its evaluator takes it, now in flight."""
        self._inflight[assignment.batch_id] = assignment
        return BatchRequest(
            assignment.batch_id, assignment.queue, epoch,
            assignment.features(), self.verify_oracle, assignment.fills,
        )

    def start_worker(self, worker: int, epoch: int) -> None:
        """Bring up incarnation ``epoch`` of ``worker``."""

    def stop_worker(self, worker: int, graceful: bool = False) -> None:
        """Take ``worker`` down: asked to (``graceful``: an idle worker
        being retired), or killed and reaped."""

    def startup_deaths(self, worker: int) -> int:
        """Incarnations of ``worker`` started since one last came up."""
        return 0

    def room(self) -> Optional[int]:
        """New batches that may be cut now (None: the router's own
        bound, one per free worker)."""
        return None

    def forget(self, batch_id: int) -> None:
        """The router gave up on this in-flight batch (its worker died):
        a late result for it must resolve nothing."""
        self._inflight.pop(batch_id, None)

    def wake(self) -> None:
        """Cut the current ``wait`` short (a timer may have moved)."""

    def heartbeat_round(self, now: float) -> bool:
        """Does this step close a heartbeat round?  The facade checks
        liveness then, and only then: between rounds no worker has had
        the chance to answer, so none can be declared silent."""
        return False

    def close(self) -> None:
        """Release everything; the pump has already stopped."""

    def _arrivals(self, waited) -> List[object]:
        """What ``wait`` returned, as results and events."""
        return waited

    def receive(self, waited) -> List[object]:
        events = (
            self._result_event(arrival) if isinstance(arrival, BatchResult)
            else arrival for arrival in self._arrivals(waited)
        )
        return [event for event in events if event is not None]

    def _result_event(self, result: BatchResult):
        """The one completion handler: the :class:`Completion` of an
        evaluated assignment — None for a duplicate, a
        :class:`WorkerDied` for a result of the wrong shape."""
        assignment = self._inflight.pop(result.batch_id, None)
        if assignment is None:
            return None  # duplicated or hedged-and-already-resolved
        # Trust what the result *says* about its origin, not what the
        # dispatch remembered: a hedged batch resolves from whichever
        # replica answered first.
        worker, epoch = result.worker, result.epoch
        staged = self._staged.get(assignment.queue)
        if staged is None:
            # The model was unregistered under the assignment: every
            # query fails loudly, nothing is retried.
            return Completion(assignment, worker, epoch,
                              [None] * len(assignment.fills), lambda: None)
        parts = result.parts()
        bitvectors = result.bitvectors or ()
        verdicts = result.oracle_ok
        answered = sum(
            fill for fill, part in zip(assignment.fills, parts)
            if part.error is None
        )
        if (
            len(parts) != len(assignment.fills)
            or len(bitvectors) != answered
            or (verdicts is not None and len(verdicts) != answered)
        ):
            # A truncated/corrupted completion envelope.  Fail closed:
            # the sender is lying about the assignment's shape, so treat
            # it as a worker fault — the facade kills it and takes the
            # crash/respawn path (the queries park or quarantine;
            # nothing is resolved from a malformed result).
            self._inflight[assignment.batch_id] = assignment
            return WorkerDied(worker, epoch)
        records: List[Optional[BatchRecord]] = []
        failed: Dict[int, str] = {}
        answered = []  # (batch id, runs, first query, size, inference ms)
        at = 0
        for position, (runs, fill, part) in enumerate(
            zip(assignment.parts, assignment.fills, parts)
        ):
            at, first = at + fill, at
            if part.error is not None:
                # Deterministic evaluation failure: no retry — a second
                # run would fail identically; the batch's queries fail
                # quoting it, the others are answered.
                records.append(None)
                failed[position] = part.error
                continue
            degraded = None
            if part.degraded_engine is not None:
                degraded = (staged.engine, part.degraded_engine)
            batch_id = assignment.batch_id + position
            records.append(BatchRecord(
                model=assignment.queue, batch_id=batch_id,
                size=fill, capacity=staged.layout.capacity,
                phase_op_counts=part.phase_op_counts, phase_ms=part.phase_ms,
                inference_ms=part.inference_ms,
                data_encrypt_ms=part.data_encrypt_ms,
                oracle_failures=part.oracle_failures, degraded=degraded,
            ))
            answered.append((batch_id, runs, first, fill, part.inference_ms))

        def resolve() -> None:
            features = assignment.features()
            futures, outcomes, at = [], [], 0
            for batch_id, runs, first, size, inference_ms in answered:
                span, at = slice(at, at + size), at + size
                outcomes += classification_results(
                    staged, batch_id, features[first : first + size],
                    bitvectors[span], inference_ms,
                    None if verdicts is None else verdicts[span],
                )
                futures += [f for run in runs for f in run.futures]
            settle(futures, outcomes)  # a replica's second answer: skipped

        return Completion(assignment, worker, epoch, records, resolve, failed)


class InThreadTransport(Transport):
    """A worker without a pipe: the pump thread evaluates.

    One assignment at a time, and only cut when the evaluator is free
    (:meth:`room`): batch evaluation holds the GIL between its numpy
    calls, so a second evaluating thread only interleaves (measured
    slower than serial), and a batch cut early would age in a list —
    inflating the service-time estimate the deadline cut subtracts and
    leaving the slots later arrivals could have filled.  What is
    already *ready* when the evaluator frees up is another matter: an
    engine that can run several ciphertexts in one go (the megakernel:
    eight to a kernel pass) is handed every ready batch of the queue
    as one assignment — :meth:`stage` reports how many it takes.
    """

    def __init__(self, verify_oracle: bool, tracer, clock):
        super().__init__(verify_oracle, clock)
        self.tracer = tracer  # with a clock: ``wait`` emits stage spans
        self._action: Optional[AssignAction] = None
        self._wake = threading.Event()

    def room(self) -> int:
        return 0 if self._action is not None else 1

    def send(self, action) -> None:
        if isinstance(action, AssignAction):  # a ship: the model is here
            self._action = action
            self._wake.set()

    def wake(self) -> None:
        self._wake.set()

    def wait(self, timeout: float) -> List[BatchResult]:
        """Evaluate the held assignment through the worker's routine
        (the assignment's feature rows as they are; traced, one span per
        stage however many ciphertexts), or sleep until woken."""
        from repro.serve.worker import _eval_result

        if self._action is None:
            self._wake.wait(timeout)
        self._wake.clear()
        action = self._action
        if action is None:
            return []
        assignment = action.assignment
        tracer, clock = self.tracer, self.clock
        opened = []  # the open stage span: (span id, what it ends with)

        def on_stage(name: str) -> None:
            if opened:
                span, attrs = opened.pop()
                tracer.end(span, clock.now(), **attrs)
            worker = assignment.worker
            span = tracer.begin(
                name, clock.now(), parent=assignment.span,
                track="batcher" if worker is None else f"worker:{worker}",
                batch_id=assignment.batch_id, size=assignment.size,
                ciphertexts=len(assignment.fills),
            )
            staged = self._staged.get(assignment.queue)
            opened.append((span, {"engine": getattr(staged, "engine", None)}
                           if name == "execute" else {}))

        traced = tracer is not None and clock is not None
        result = _eval_result(
            assignment.worker, self._request(assignment, action.epoch),
            self._staged, on_stage if traced else None,
        )
        if opened:
            tracer.end(opened[0][0], clock.now(), oracle_failures=sum(
                part.oracle_failures or 0 for part in result.parts()
                if part.error is None
            ))
        self._action = None
        return [result]


#: One launch of the fork server at a time: a launch borrows the
#: process environment.
_SERVER_LOCK = threading.Lock()


def _pool_context():
    """The start method of pool workers: ``forkserver``, or ``spawn``
    where the platform has no fork server."""
    if "forkserver" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _ensure_server() -> None:
    """Have this interpreter's fork server running, preloaded.

    Before its first fork the server imports the worker's whole import
    closure, numpy included, so a worker starts as a fork of ~5 ms.
    Not the parent's ``__main__``: each worker imports that itself, as
    a spawned one does, so a script that cannot be imported kills its
    workers, never the server.

    The server is a fresh ``python -c`` that must import ``repro``
    however this interpreter found it, and before Python 3.12 it never
    applies the ``sys.path`` it is handed (and swallows the preload's
    ``ImportError``): a caller that put ``src/`` on ``sys.path`` itself
    would get a server that preloaded nothing.  So the launch runs with
    this ``sys.path`` as ``PYTHONPATH``, restored right after.  A
    running server is left as it is — one started by other code
    without the preload too: its workers import for themselves.
    """
    from multiprocessing import forkserver

    with _SERVER_LOCK:
        forkserver.set_forkserver_preload(["repro.serve.worker"])
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(sys.path)
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved


class ProcessTransport(Transport):
    """``multiprocessing`` workers behind pipes.

    Workers are forked from one server per interpreter that has already
    imported them (:func:`_ensure_server`, started at the first
    :meth:`start_worker`), or spawned where there is no fork server.
    Only moves bytes: every shipped object must pickle, workers see raw
    integer features and return plain numbers; the registry, session
    keys and every query future stay on the facade's side.  A worker
    that dies leaves EOF on its pipe, which :meth:`receive` reports —
    so a failed send loses nothing and raises nothing.
    """

    #: Cut timers and liveness are re-checked at least this often
    #: (slack cuts across processes are best-effort at this resolution:
    #: nothing wakes a pipe wait early).
    poll_interval_s = 0.05
    #: A result can be lost and a worker can hang, so shutdown does not
    #: wait for in-flight batches longer than it waits for a join.
    close_grace_s = 5.0
    #: Workers are shipped the envelope, and results are built from it.
    _package = staticmethod(ShippedModel.from_registered)

    def __init__(self, verify_oracle: bool, clock,
                 heartbeat_interval_s: float, worker_entry=None):
        require_real("heartbeat_interval_s", heartbeat_interval_s)
        if heartbeat_interval_s <= 0:
            raise ValidationError(
                f"heartbeat_interval_s must be > 0, got "
                f"{heartbeat_interval_s}"
            )
        super().__init__(verify_oracle, clock)
        self.heartbeat_interval_s = heartbeat_interval_s
        #: Target of pool processes; tests swap in a chaos shim (see
        #: repro.serve.faults.chaos_worker_main).  Must pickle.
        self._worker_entry = worker_entry
        self._mp = _pool_context()
        #: Per worker slot, its last process (None: none was started)
        #: and the live pipe to it (None: none is live).
        self._procs: List[object] = []
        self._conns: List[object] = []
        #: Per worker slot, the epoch its live incarnation was started
        #: under, and the incarnations started since one last reported
        #: ``MSG_READY`` (see :data:`MAX_STARTUP_DEATHS`).
        self._epochs: List[int] = []
        self._unready_starts: List[int] = []
        #: The live pipes, as :meth:`wait` (lock-free) reads them.
        self._listening: Tuple[object, ...] = ()
        self._last_ping = clock.now()

    def _listen(self) -> None:
        self._listening = tuple(c for c in self._conns if c is not None)

    def start_worker(self, worker: int, epoch: int) -> None:
        from repro.serve.worker import worker_main

        if worker == len(self._procs):  # a fresh id: one past the last
            self._procs.append(None)
            self._conns.append(None)
            self._epochs.append(0)
            self._unready_starts.append(0)
        entry = (
            self._worker_entry if self._worker_entry is not None
            else worker_main
        )
        # A start that raises counts as a death at start-up, like one
        # that dies before ``MSG_READY``.
        self._epochs[worker] = epoch
        self._unready_starts[worker] += 1
        parent = None
        try:
            if self._mp.get_start_method() == "forkserver":
                _ensure_server()
            parent, child = self._mp.Pipe()
            try:
                proc = self._mp.Process(
                    target=entry,
                    args=(child, worker, epoch),
                    daemon=True,
                    name=f"copse-worker-{worker}",
                )
                proc.start()
            finally:
                child.close()
        except Exception as exc:
            if parent is not None:
                parent.close()
            raise ServeError(
                f"worker {worker} (epoch {epoch}) could not be started: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._procs[worker] = proc
        self._conns[worker] = parent
        self._listen()

    def stop_worker(self, worker: int, graceful: bool = False) -> None:
        conn, proc = self._conns[worker], self._procs[worker]
        # The process stays listed until a restart replaces it: a
        # retired one exits on its own time, and close() reaps it.
        self._conns[worker] = None
        self._listen()
        if conn is None:  # its start failed: nothing came up
            return
        if graceful:
            self._send_to(conn, (MSG_STOP,))
        elif proc.is_alive():
            proc.terminate()
        try:
            conn.close()
        except OSError:
            pass
        if not graceful:
            proc.join(timeout=0.5)

    def startup_deaths(self, worker: int) -> int:
        return self._unready_starts[worker]

    @staticmethod
    def _send_to(conn, message) -> None:
        """A dead pipe is :meth:`receive`'s to report, as EOF: the
        crash path re-places the batch, so a failed send loses nothing
        and no raw ``OSError`` reaches ``submit`` / ``preload``."""
        if conn is None:
            return  # a retired worker's slot
        try:
            conn.send(message)
        except (OSError, ValueError):  # BrokenPipeError is an OSError
            pass

    def send(self, action) -> None:
        if isinstance(action, ShipAction):
            self._send_to(
                self._conns[action.worker],
                (MSG_LOAD, self._staged[action.model]),
            )
            return
        assignment = action.assignment
        worker = (
            action.worker if isinstance(action, HedgeAction)
            else assignment.worker
        )
        # A hedge send reuses the primary's inflight entry: results
        # carry (worker, epoch), so either replica can resolve it.
        self._send_to(
            self._conns[worker],
            (MSG_EVAL, self._request(assignment, action.epoch)),
        )

    def wait(self, timeout: float):
        from multiprocessing.connection import wait as conn_wait

        try:
            return conn_wait(self._listening, timeout)
        except OSError:
            return []

    def _arrivals(self, waited) -> List[object]:
        arrivals: List[object] = []
        for conn in waited:
            try:
                worker = self._conns.index(conn)
            except ValueError:
                continue  # replaced while we waited
            try:
                message = conn.recv()
            except (EOFError, OSError):
                arrivals.append(WorkerDied(worker, self._epochs[worker]))
                continue
            tag = message[0]
            if tag == MSG_RESULT:
                arrivals.append(message[1])
            elif tag in (MSG_READY, MSG_PONG):
                if tag == MSG_READY:
                    self._unready_starts[worker] = 0
                arrivals.append(Heartbeat(worker, message[2]))
        return arrivals

    def heartbeat_round(self, now: float) -> bool:
        """Every ``heartbeat_interval_s``: ping each live worker."""
        if now - self._last_ping < self.heartbeat_interval_s:
            return False
        self._last_ping = now
        for conn in self._listening:
            self._send_to(conn, (MSG_PING,))
        return True

    def close(self) -> None:
        conns = list(self._listening)
        for conn in conns:
            self._send_to(conn, (MSG_STOP,))
        for proc in self._procs:
            if proc is None:
                continue  # a slot whose only start failed
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
