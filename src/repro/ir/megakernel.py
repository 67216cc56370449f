"""Megakernel execution: a compiled tape with zero per-instruction dispatch.

The compiled tape of :mod:`repro.ir.tape` already removed the per-node
graph walk, but its hot loop still pays one Python ``if/elif`` dispatch
per instruction — measured at roughly a microsecond each, a third of a
batched plan+vector evaluation.  A :class:`MegaKernel` compiles the tape
one level further, into a **single callable with no per-instruction
Python dispatch**:

* **one preallocated register plane** — values live as rows of a single
  ``(rows, lanes)`` ``uint8`` ndarray sized by a liveness pass: the
  instruction stream is rewritten into SSA values, scheduled by
  dependency level, and a linear-scan allocator reuses rows the moment
  their last reader has run, so ``rows`` tracks the peak number of
  simultaneously live values (plus the resident model inputs, a
  deduplicated constant pool and an all-ones row), not the instruction
  count.  The plane and the step scratch buffers persist across runs
  per thread — steady-state execution allocates only the gathered
  windows of a multi-destination gather step (numpy's index select has
  no ``out=``);
* **resident model rows** — the model is known long before any query,
  so what a run does to it is staged too.  The inputs a query supplies
  (:func:`~repro.ir.copse_ir.is_query_input`) take the plane's first
  rows and are seated every run; every other input is a per-model
  constant and gets a *permanent* row, like the constant pool, seated
  once per (thread, bundle).  :meth:`MegaKernel.run` recognises
  a bundle it has already seated by the identity of its plane containers
  — only immutable ones qualify, i.e. the tuples of the adopted view
  that ``BatchedEncryptedModel.adopt_into`` memoises — and then binds,
  signs and seats the query alone.  A new thread, an unpickled kernel,
  another bundle, or a call through :meth:`MegaKernel.execute` takes
  the full seat.  Only data placement is remembered: the fail-closed
  refusals below run on every bind;
* **bit-sliced plane** — every step is a bitwise AND / XOR or a byte
  move (window reads, ``take``, ``copyto``), and none of those mixes
  the bits of a byte.  So the one plane holds up to eight ciphertexts
  of one model bundle at a time, ciphertext *j* in bit *j* of every
  lane, and one pass of the unchanged step program serves them all:
  a grouped query — its planes
  :class:`~repro.fhe.ciphertext.CiphertextGroup` objects of *k*
  ciphertexts that share one key, noise state, node id and width —
  has its rows shifted to their bit and ORed together, everything its
  ciphertexts share — the resident model rows, the constant pool, the
  ones row, the Aloufi helper — is seated as a mask (``0x00`` /
  ``0xFF``) or a shared row, and ciphertext *j*'s outputs are bit *j*
  of the output rows, answered as one group.  A query of one
  ciphertext is the group of one, in bit 0; there is no second plane
  and no second program.  A group is one run: bound, signed, booked
  and refused once, as each of its ciphertexts would be alone.  Eight
  is what a ``uint8`` lane holds — a wider dtype multiplies the bytes
  every step moves;
* **segment grammar** — SSA scheduling collapses the stream into one
  *segment* per dependency level, far fewer than the tape's hazard
  breaks allow (register reuse in the tape forces a new segment at every
  write-after-read).  Every instruction lowers to gather **terms**
  ``rot(src, amount) [& operand]``: adds contribute two bare terms,
  constant adds and multiplies read a constant-pool row, Halevi-Shoup
  products pair source and operand rows, and rotations / cyclic extends
  become *window reads*: ``rot(src, a)`` at width ``w`` is ``w``
  contiguous bytes at offset ``a % sw`` of ``src[:sw]`` tiled
  periodically.  A level executes as a handful of *steps*: one gather
  that tiles each distinct rotated source once into a per-thread
  buffer and copies every destination out as one window (row
  ``memcpy`` calls; no per-element index exists), then per ``(width,
  terms-per-instruction)`` block one AND of the source rows against
  the operand rows — a side that repeats under every instruction is
  held once and broadcast, a side that forms a run of the plane is
  read in place — and one XOR over the term axis; single-instruction
  levels compile to a single in-place ufunc call on row views;
* **bulk bookkeeping** — noise states, tracker op counts,
  multiplicative depth, and noise-*failure* points do not depend on
  slot data, only on input metadata (key partition, noise states, node
  ids, widths).  The kernel therefore runs the tape loop **once per
  input signature** on a scratch context of the same backend class,
  harvests the per-op counts, depth, and output noise/key/node-id
  metadata — or the exact exception the tape raised — and replays them
  on every subsequent run via one
  :meth:`~repro.fhe.tracker.CountingTracker.record_fused` call.  Bits,
  simulated cost, op counts, and failure points are byte-identical to
  the tape by construction: the bookkeeping *is* the tape's, recorded
  in bulk.  Key ids are canonicalized in the signature (serve mints
  fresh keys per batch; only the partition affects behavior), so the
  capture cost amortizes across a whole serve session; the model
  inputs' share of the signature is an interned id, computed once per
  seated bundle.

The megakernel is an **optional backend capability**, discovered like
``fused_ops``: ``getattr(ctx, "megakernel_ops", None)``.  The vector
backend implements it (scratch-context minting, gated on its native
:class:`~repro.fhe.tracker.CountingTracker`); the reference and
plaintext backends leave it ``None`` and the kernel transparently falls
back to the tape loop — as it also does for the rare tape shapes the
gather grammar does not cover.  Either path runs
under the caller's phase, so engine-labelled serve stats hold on every
backend.

A kernel carries its tape's model fingerprint and performs the same
fail-closed bind check as :func:`~repro.ir.plan.bind_model_query` on
every run, resident or not; pickling (cluster
``ShippedModel`` shipment) ships only the tape — the compiled gather
planes, the bookkeeping cache, and the per-thread register planes
rebuild lazily on first worker-side execution, mirroring
:class:`~repro.ir.tape.FusedSpec`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import RuntimeProtocolError
from repro.fhe.ciphertext import Ciphertext, CiphertextGroup, PlainVector
from repro.fhe.noise import FRESH
from repro.ir.tape import (
    OP_ADD,
    OP_CADD,
    OP_CMUL,
    OP_EXT,
    OP_FUSED,
    OP_MUL,
    OP_ROT,
    OP_TRUNC,
    CompiledTape,
)

__all__ = ["MAX_GROUP", "MegaKernel", "compile_megakernel"]

#: Runs one pass of the step program can serve: the bits of a ``uint8``
#: lane (module docstring, "bit-sliced plane").
MAX_GROUP = 8

#: Bit ``j`` of a lane for ciphertext ``j`` of a group.
_SHIFTS = np.arange(MAX_GROUP, dtype=np.uint8)


class _Book:
    """Cached bookkeeping of one tape run for one input signature.

    ``outputs`` maps output names to metadata tuples —
    ``("c", canonical_key, noise, node_id, length)`` for ciphertexts
    (the canonical key index resolves against the *current* bindings'
    key list at replay) or ``("p", length)`` for plain results.
    ``error`` caches the exact exception the tape raised, with the op
    counts recorded up to the failure point in ``counts``; replay lands
    the partial counts first and then re-raises, so the tracker state
    matches a live failure byte for byte.
    """

    __slots__ = ("counts", "depth", "outputs", "error")

    def __init__(self, counts, depth, outputs, error):
        self.counts = counts
        self.depth = depth
        self.outputs = outputs
        self.error = error


class _Term:
    """One gather term during compilation (pre-materialization).

    ``src`` and ``operand`` are SSA value ids; ``operand`` is ``None``
    for bare XOR terms.  ``amount`` is the left-rotation folded into
    the term's read.
    """

    __slots__ = ("src", "amount", "operand")

    def __init__(self, src, amount, operand=None):
        self.src = src
        self.amount = amount
        self.operand = operand


class _Instr:
    """One lowered instruction: ``value = XOR_t rot(src_t) [& op_t]``."""

    __slots__ = ("value", "width", "terms", "level")

    def __init__(self, value, width, terms, level):
        self.value = value
        self.width = width
        self.terms = terms
        self.level = level


class _GatherStep:
    """One gather step: rotated/tiled terms of one level+width.

    ``specs`` is a list of ``(src_value, amount, dest_value)`` — the
    materializer (:func:`_window_spec`) turns it into a tiling of the
    distinct sources plus one window start per destination.
    """

    __slots__ = ("width", "specs")

    def __init__(self, width, specs):
        self.width = width
        self.specs = specs

    @property
    def reads(self):
        return [s for s, _, _ in self.specs]

    @property
    def writes(self):
        return [d for _, _, d in self.specs]


class _BlockStep:
    """One row-gather block: same-level instructions of uniform
    ``(width, terms-per-instruction)`` shape."""

    __slots__ = ("width", "k", "instrs")

    def __init__(self, width, k, instrs):
        self.width = width
        self.k = k
        self.instrs = instrs

    @property
    def reads(self):
        out = []
        for instr in self.instrs:
            for term in instr.terms:
                out.append(term.src)
                if term.operand is not None:
                    out.append(term.operand)
        return out

    @property
    def writes(self):
        return [instr.value for instr in self.instrs]


class MegaKernel:
    """A :class:`~repro.ir.tape.CompiledTape` compiled past Python.

    Construction is cheap: the gather program builds lazily on first
    execution (and after unpickling), and the kernel exposes the tape's
    profile, fingerprint, and shape metadata unchanged, so baseline
    guards and cost estimates need no separate accounting.
    """

    def __init__(self, tape: CompiledTape):
        from repro.ir.copse_ir import is_query_input

        self.tape = tape
        self._lock = threading.Lock()
        self._local = threading.local()
        self._plan: Optional[_Plan] = None
        self._unsupported: Optional[str] = None
        self._input_set = frozenset(tape.input_slots)
        #: Inputs a query supplies, seated every run, vs. the per-model
        #: constants that stay resident in the plane (module docstring).
        self._query_names = sorted(filter(is_query_input, tape.input_slots))
        self._model_names = sorted(self._input_set.difference(self._query_names))
        #: input-signature -> :class:`_Book`.  Plain dict: a racing
        #: duplicate capture is benign (identical value), a torn read is
        #: impossible (single assignment).
        self._book: Dict[Tuple, _Book] = {}
        #: Model-input metadata tuple -> small id standing for it in the
        #: signature, so a resident bundle's share of the book key is one
        #: int instead of a re-hashed tuple of every plane's metadata.
        self._fragments: Dict[Tuple, int] = {}

    # -- tape metadata passthrough (one source of truth) ----------------

    @property
    def profile(self):
        return self.tape.profile

    @property
    def peak_live(self) -> int:
        return self.tape.peak_live

    @property
    def num_slots(self) -> int:
        return self.tape.num_slots

    @property
    def num_instructions(self) -> int:
        return self.tape.num_instructions

    @property
    def rotations(self) -> int:
        return self.tape.rotations

    @property
    def input_widths(self) -> Dict[str, int]:
        return self.tape.input_widths

    @property
    def encrypted_model(self) -> bool:
        return self.tape.encrypted_model

    @property
    def model_fingerprint(self) -> Optional[str]:
        return self.tape.model_fingerprint

    @property
    def variant(self) -> str:
        return self.tape.variant

    @property
    def batched(self) -> bool:
        return self.tape.batched

    @property
    def batch_shape(self):
        return self.tape.batch_shape

    # -- compiled-plane metrics (build on demand) ------------------------

    def ensure_compiled(self) -> bool:
        """Build the gather program if needed; False on tape-loop fallback."""
        if self._plan is None and self._unsupported is None:
            with self._lock:
                if self._plan is None and self._unsupported is None:
                    try:
                        self._plan = _compile_plan(self.tape)
                    except _Unsupported as why:
                        self._unsupported = str(why)
        return self._plan is not None

    @property
    def supported(self) -> bool:
        return self.ensure_compiled()

    @property
    def num_rows(self) -> int:
        """Rows of the register plane (live values + resident model
        inputs + constant pool)."""
        self.ensure_compiled()
        return self._plan.rows if self._plan else 0

    @property
    def data_rows(self) -> int:
        """Peak simultaneously-live per-run values (the liveness
        allocator's high-water mark: query inputs and intermediates)."""
        self.ensure_compiled()
        return self._plan.data_rows if self._plan else 0

    @property
    def resident_rows(self) -> int:
        """Permanent rows holding the model inputs."""
        self.ensure_compiled()
        return len(self._plan.model_seats[0]) if self._plan else 0

    @property
    def lanes(self) -> int:
        self.ensure_compiled()
        return self._plan.lanes if self._plan else 0

    @property
    def num_segments(self) -> int:
        """Dependency levels (each one hazard-free by construction)."""
        self.ensure_compiled()
        return self._plan.num_segments if self._plan else 0

    @property
    def num_blocks(self) -> int:
        """Execution steps (gathers + blocks) across all segments."""
        self.ensure_compiled()
        return len(self._plan.steps) if self._plan else 0

    def describe(self) -> str:
        if not self.ensure_compiled():
            return (
                f"megakernel[fallback: {self._unsupported}] over "
                f"{self.tape.describe()}"
            )
        return (
            f"megakernel: {self.num_instructions} instructions -> "
            f"{self.num_segments} segments ({self.num_blocks} steps) "
            f"over a {self.num_rows}x{self.lanes} register plane "
            f"({self.data_rows} live rows + {self.resident_rows} resident "
            f"model rows + constant pool), rotations "
            f"{self.rotations}, depth {self.profile.depth}"
        )

    # -- pickling: ship the tape, rebuild everything else lazily ---------

    def __getstate__(self):
        return self.tape

    def __setstate__(self, state):
        self.__init__(state)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        ctx,
        model,
        query,
        phase: Optional[str] = None,
    ):
        """Execute against a runtime model bundle + encrypted query.

        ``query`` may be a group (its planes
        :class:`~repro.fhe.ciphertext.CiphertextGroup` objects of ``k``
        ciphertexts, :attr:`EncryptedQuery.group_size
        <repro.core.runtime.EncryptedQuery.group_size>`): its
        ciphertexts take bits ``0 .. k-1`` of one pass and the result is
        the :class:`CiphertextGroup` of theirs.  A group is one run: the
        tape's fail-closed fingerprint check, the query binding (one
        helper encryption), the signature and its book (looked up or
        captured), the bulk bookkeeping under ``phase`` and the seat
        refusals happen once, as for the one ciphertext each of its
        members would be alone — they share its keys, noise, node ids
        and widths, so they share its book.  The phase defaults to the
        megakernel phase so serve stats attribute the work to this
        engine on every backend (including tape-loop fallbacks).

        When this thread's plane already holds the bundle's planes (see
        :meth:`_resident_for`) only the query is bound, signed and
        seated; otherwise the run takes the full seat.  The
        encryption-shape and fingerprint refusals are **not** cached:
        :func:`~repro.ir.plan.check_model_bundle` (which
        :func:`~repro.ir.plan.bind_model_query` runs too) runs on every
        run, so an impostor bundle is rejected identically on the first
        batch and the millionth.

        Without a pass — a backend without ``megakernel_ops``, a tape
        outside the gather grammar — the tape loop runs the query, and
        refuses a group; a pass holds at most :data:`MAX_GROUP`.
        """
        from repro.core.engines import PHASE_MEGAKERNEL
        from repro.ir.plan import bind_query_inputs, check_model_bundle

        if phase is None:
            phase = PHASE_MEGAKERNEL
        count = query.group_size
        if count > self.group_limit(ctx):
            raise RuntimeProtocolError(
                f"a group of {count} ciphertexts runs only in one "
                f"megakernel pass, at most {MAX_GROUP} on a backend "
                f"with megakernel_ops"
            )
        if not self._has_pass(ctx):
            return _labels_of(self.tape.execute(
                ctx, self._bind_all(ctx, model, query), phase=phase,
            ))
        state = self._buffer(self._plan)
        resident = self._resident_for(model, query)
        if resident is not None:
            check_model_bundle(
                self.encrypted_model, self.model_fingerprint, model
            )
            book, keys, slots = self._seat_run(
                state, ctx,
                bind_query_inputs(ctx, self.input_widths, query),
                phase, count, resident,
            )
        else:
            bindings = self._bind_all(ctx, model, query)
            self._require_bound(bindings)
            book, keys, slots = self._seat_run(
                state, ctx, bindings, phase, count,
                holder=self._holder_of(model, query),
            )
        self._pass(state, count, slots)
        return _labels_of(self._outputs(state, book, keys, count))

    def group_limit(self, ctx) -> int:
        """Ciphertexts on ``ctx``'s backend that one run can hold: a
        lane's bits where the pass exists, else one."""
        return MAX_GROUP if self._has_pass(ctx) else 1

    def _has_pass(self, ctx) -> bool:
        """Whether ``ctx``'s backend runs the pass (``megakernel_ops``)
        and the tape fits the gather grammar; else the tape loop runs."""
        return (
            getattr(ctx, "megakernel_ops", None) is not None
            and self.ensure_compiled()
        )

    def _bind_all(self, ctx, model, query):
        """Every input bound, behind the tape's fail-closed checks."""
        from repro.ir.plan import bind_model_query

        return bind_model_query(
            ctx,
            self.input_widths,
            self.encrypted_model,
            self.model_fingerprint,
            model,
            query,
        )

    def execute(self, ctx, bindings, phase: Optional[str] = None):
        """Run with named input bindings (the tape executor API).

        Falls back to the tape loop when the backend lacks the
        ``megakernel_ops`` capability or when the tape's shape escapes
        the gather grammar — identical bits and bookkeeping either way.
        Every input is seated; nothing is taken as resident.
        """
        ops = getattr(ctx, "megakernel_ops", None)
        if ops is None or not self.ensure_compiled():
            return self.tape.execute(ctx, bindings, phase=phase)
        self._require_bound(bindings)
        state = self._buffer(self._plan)
        book, keys, slots = self._seat_run(state, ctx, bindings, phase, 1)
        self._pass(state, 1, slots)
        return self._outputs(state, book, keys, 1)

    # -- residency: what a thread's plane already holds -------------------

    def _holder_of(self, model, query):
        """What identifies ``model``'s planes for residency, or None.

        Only *immutable* plane containers qualify — the tuples of an
        adopted view (:meth:`BatchedEncryptedModel.adopt_into
        <repro.serve.batched_runtime.BatchedEncryptedModel.adopt_into>`)
        — because residency is decided by their identity alone: a list
        could change under the same identity.  A plaintext-model kernel
        has no model inputs, so nothing of the bundle is held.
        """
        containers = ()
        if self.encrypted_model:
            containers = _plane_containers(model)
            if not all(
                type(planes) is tuple
                for planes in (*containers, *containers[2])
            ):
                return None
        elif self._model_names:
            return None
        return containers, len(query.planes)

    def _resident_for(self, model, query):
        """This thread's :class:`_Resident` if it holds ``model``.

        Holds means: the plane was fully seated from these very
        container objects (kept alive by the record, so the identities
        cannot be recycled) for a query of this many planes.  A new
        thread, an unpickled kernel, another bundle object or a bundle
        whose containers were replaced all miss and take the full seat.
        """
        state = getattr(self._local, "state", None)
        resident = state.resident if state is not None else None
        if resident is None or resident.num_planes != len(query.planes):
            return None
        if self.encrypted_model:
            for held, planes in zip(
                resident.containers, _plane_containers(model)
            ):
                if held is not planes:
                    return None
        return resident

    def _require_bound(self, bindings) -> None:
        if not bindings.keys() >= self._input_set:
            missing = self._input_set - bindings.keys()
            raise RuntimeProtocolError(
                f"unbound IR inputs: {sorted(missing)}"
            )

    # -- the kernel proper -------------------------------------------------

    def _seat_run(self, state, ctx, bindings, phase, count, resident=None,
                  holder=None):
        """Book one run of ``count`` ciphertexts and seat everything but
        its query rows.

        With ``resident`` the model rows are already seated and
        ``bindings`` carries the query inputs only.  Otherwise
        ``bindings`` is complete and every model row is seated; if
        ``holder`` identifies where the model planes came from
        (:meth:`_holder_of`), the thread records them as resident.
        Returns ``(book, keys, slots)``: the run's bookkeeping, its
        canonical key list, and its checked query slots — which
        :meth:`_pass` seats (see :func:`_checked_slots`).
        """
        plan = self._plan
        fragment = (
            resident.fragment if resident is not None
            else self._model_fragment(bindings)
        )
        signature, keys = self._signature(ctx, bindings, fragment)
        book = self._book.get(signature)
        if book is None:
            if resident is not None:
                bindings = {**resident.bindings, **bindings}
            book = self._capture(
                ctx.megakernel_ops, _heads(bindings), phase, keys
            )
            self._book[signature] = book

        # Bookkeeping first, exactly as the tape would have produced it:
        # on a cached failure the partial counts land and the original
        # exception re-raises before any slot data moves, leaving the
        # identical tracker state a live noise overflow would.
        if phase is not None:
            with ctx.tracker.phase(phase):
                if book.counts:
                    ctx.tracker.record_fused(book.counts, book.depth)
        elif book.counts:
            ctx.tracker.record_fused(book.counts, book.depth)
        if book.error is not None:
            raise book.error

        if resident is None:
            # Forget first: a refusal half-way through must not leave a
            # record claiming rows it did not finish seating.
            state.resident = None
            _seat_masks(state.plane, plan.model_seats, bindings)
            if holder is not None:
                state.resident = _Resident(
                    holder[0], holder[1], fragment,
                    {name: bindings[name] for name in self._model_names},
                )
        return book, keys, _checked_slots(
            plan.query_seats[0], bindings, count
        )

    def _pass(self, state, count, slots) -> None:
        """Seat the query slots of a run of ``count`` ciphertexts —
        ciphertext ``j`` in bit ``j`` of each lane — and run the step
        program once."""
        seats = self._plan.query_seats
        if count == 1:
            _store(state.plane, seats, slots)
        else:
            _store_sliced(state.plane, seats, count, slots)
        for step in state.program:
            step()

    def _outputs(self, state, book, keys, count):
        """Wrap what the pass left in the output rows: bit 0 for a run
        of one ciphertext; bits ``0 .. count-1``, one
        :class:`CiphertextGroup` per encrypted output, for a group."""
        plan = self._plan
        R = state.plane
        outputs = {}
        for name, ref in self.tape.output_refs.items():
            if not isinstance(ref, int):
                outputs[name] = ref
                continue
            row = plan.output_rows[name]
            meta = book.outputs[name]
            length = meta[4] if meta[0] == "c" else meta[1]
            slots = R[row, :length]
            if count == 1:
                slots = slots & 1  # a fresh array: the plane is reused
            else:
                rows = slots >> _SHIFTS[:count, None]
                rows &= 1
                slots = rows[0]
            if meta[0] == "c":
                _, canon_key, noise, node_id, length = meta
                outputs[name] = Ciphertext._make(
                    slots, length, keys[canon_key], noise, node_id,
                )
                if count > 1:
                    outputs[name] = CiphertextGroup(outputs[name], rows)
            else:
                outputs[name] = PlainVector(slots)
        return outputs

    # -- per-run plumbing ------------------------------------------------

    @staticmethod
    def _describe_inputs(names, bindings, keys: List[int]) -> List:
        """Flat metadata of ``names``' bindings, key ids canonicalized.

        ``keys`` is the canonical key list so far and grows by first
        appearance.  Input order is fixed by ``names`` and a "c"/"p"
        marker leads each entry, so positions stay unambiguous without
        hashing name strings and nested tuples.  A fresh input's noise
        is the shared :data:`~repro.fhe.noise.FRESH` state and stands as
        ``None`` (no noise state is ever ``None``), so the common
        signature hashes no noise dataclass.  A group is described by
        its head: its ciphertexts are booked as that one would be.
        """
        canon = {key_id: index for index, key_id in enumerate(keys)}
        items: List = []
        extend = items.extend
        canon_get = canon.get
        for name in names:
            value = bindings[name]
            if type(value) is CiphertextGroup:
                value = value.head
            if isinstance(value, Ciphertext):
                key_id = value._key_id
                index = canon_get(key_id)
                if index is None:
                    index = canon[key_id] = len(keys)
                    keys.append(key_id)
                noise = value._noise
                extend(
                    ("c", index, None if noise is FRESH else noise,
                     value._node_id, value._length)
                )
            else:
                extend(("p", value.length))
        return items

    def _model_fragment(self, bindings) -> Tuple[int, Tuple[int, ...]]:
        """``(interned id, key list)`` of the model inputs' metadata.

        The id stands for the exact metadata tuple (one id per distinct
        tuple, per kernel), so a signature built from it is as
        injective as one spelling the tuple out — and a resident bundle
        reuses it instead of re-walking every plane.
        """
        keys: List[int] = []
        items = tuple(self._describe_inputs(self._model_names, bindings, keys))
        with self._lock:  # len() and insert must not interleave
            ident = self._fragments.setdefault(items, len(self._fragments))
        return ident, tuple(keys)

    def _signature(self, ctx, bindings, fragment):
        """(cache key, canonical key list) for the current bindings.

        The key covers everything the bookkeeping depends on — backend
        class, parameters, and per-input metadata — with key ids
        *canonicalized* to their first-appearance index, model inputs
        first (``fragment``, from :meth:`_model_fragment`) and query
        inputs after: operations only ever compare keys for equality,
        so two binding sets with the same key partition produce
        identical counts, noise, and failure behavior even though serve
        mints fresh keys per batch.
        """
        ident, model_keys = fragment
        keys = list(model_keys)
        items = [type(ctx).__name__, ctx.params, ident]
        items += self._describe_inputs(self._query_names, bindings, keys)
        return tuple(items), keys

    def _capture(self, ops, bindings, phase, keys) -> _Book:
        """Run the tape once on a scratch context and harvest its books.

        ``keys`` is the signature's canonical key list: output metadata
        stores indices into it, resolved against the current run's list
        at replay.
        """
        scratch = ops.scratch_context()
        tracker = scratch.tracker
        outputs = None
        error = None
        try:
            if phase is not None:
                with tracker.phase(phase):
                    outputs = self.tape._execute(scratch, bindings)
            else:
                outputs = self.tape._execute(scratch, bindings)
        except Exception as exc:
            error = exc
        counts = {
            kind: n for kind, n in tracker.total_counts().items() if n
        }
        depth = tracker.multiplicative_depth()
        canon = {key_id: index for index, key_id in enumerate(keys)}
        meta = {}
        if outputs is not None:
            for name, ref in self.tape.output_refs.items():
                if not isinstance(ref, int):
                    continue
                value = outputs[name]
                if isinstance(value, Ciphertext):
                    meta[name] = (
                        "c", canon[value._key_id], value._noise,
                        value._node_id, value._length,
                    )
                else:
                    meta[name] = ("p", value.length)
        return _Book(counts, depth, meta, error)

    def _buffer(self, plan) -> "_ThreadState":
        """Per-thread register plane + compiled step closures.

        Constant and ones rows are seated once, as masks (the same bit
        for every ciphertext of a pass) — no step ever writes a
        constant-pool row, so they survive every run.  The closures bind
        this thread's plane and exact-size scratch buffers, so the
        steady-state loop is ufunc and copy calls on fixed views.
        """
        state = getattr(self._local, "state", None)
        if state is None:
            R = np.zeros((plan.rows, plan.lanes), dtype=np.uint8)
            for row, arr in plan.const_seats:
                np.negative(arr, out=R[row, : arr.size])
            if plan.ones_row is not None:
                R[plan.ones_row, :] = 0xFF
            program = [_bind_step(R, spec) for spec in plan.steps]
            state = self._local.state = _ThreadState(R, program)
        return state


def _plane_containers(model):
    return (
        model.threshold_planes,
        model.reshuffle_diagonals,
        model.level_diagonals,
        model.level_masks,
    )


class _Resident:
    """What one thread's plane holds in its model rows, and from where.

    ``containers`` are the bundle's (immutable) plane containers the
    rows were seated from — held strongly, compared by identity;
    ``fragment`` is their share of the signature and ``bindings`` the
    name -> plane map, kept for the rare capture of a new signature.
    """

    __slots__ = ("containers", "num_planes", "fragment", "bindings")

    def __init__(self, containers, num_planes, fragment, bindings):
        self.containers = containers
        self.num_planes = num_planes
        self.fragment = fragment
        self.bindings = bindings


class _ThreadState:
    """One thread's register plane, step closures and residency record."""

    __slots__ = ("plane", "program", "resident")

    def __init__(self, plane, program):
        self.plane = plane
        self.program = program
        self.resident: Optional[_Resident] = None


def _heads(bindings):
    """``bindings`` with each group in its head's place: what the tape
    loop runs when it captures a group's book."""
    return {
        name: value.head if type(value) is CiphertextGroup else value
        for name, value in bindings.items()
    }


def _labels_of(outputs):
    """The result ciphertext (or group) among a run's named outputs."""
    from repro.ir.plan import OUTPUT_LABELS

    result = outputs[OUTPUT_LABELS]
    if not isinstance(result, (Ciphertext, CiphertextGroup)):  # pragma: no cover
        raise RuntimeProtocolError("megakernel result must be encrypted")
    return result


def _checked_slots(specs, bindings, count=1) -> List[np.ndarray]:
    """Validate one input group with the tape's exact errors.

    ``specs`` are the ``(name, row, width, is_cipher)`` of
    :func:`_seat_group`; returns each input's slots, cut to its width,
    in that order.  In a run of ``count`` ciphertexts an encrypted
    input may be a :class:`CiphertextGroup` of as many: its slots are
    its ``(count, width)`` rows, checked by its head.  A ciphertext is
    one row that every ciphertext of the run shares (the helper).
    """
    arrs = []
    append = arrs.append
    for name, row, width, is_cipher in specs:
        value = bindings[name]
        rows = None
        if is_cipher:
            if type(value) is CiphertextGroup:
                if len(value) != count:
                    raise RuntimeProtocolError(
                        f"input {name!r} is a group of {len(value)} "
                        f"ciphertexts in a run of {count}"
                    )
                rows, value = value._rows, value.head
            elif not isinstance(value, Ciphertext):
                raise RuntimeProtocolError(
                    f"input {name!r} must be a ciphertext"
                )
            length = value._length
        elif isinstance(value, PlainVector):
            length = value._slots.shape[0]
        else:
            raise RuntimeProtocolError(
                f"input {name!r} must be a plaintext vector"
            )
        if length != width:
            raise RuntimeProtocolError(
                f"input {name!r} has width {length}, "
                f"declared {width}"
            )
        slots = value._slots if rows is None else rows
        append(slots if slots.shape[-1] == width else slots[..., :width])
    return arrs


def _store(R, seats, arrs) -> None:
    """Seat one run's checked slots as they are: bit 0 of each lane.

    ``seats`` is ``(specs, start)`` from :func:`_seat_group`: when the
    group occupies consecutive full-lane rows from ``start`` (the common
    batched-serve shape), all its slots land with a single
    ``np.concatenate`` into a flat view of those rows instead of one
    row store each.
    """
    specs, start = seats
    if start is not None:
        try:
            np.concatenate(
                arrs, out=R[start : start + len(arrs)].reshape(-1)
            )
            return
        except (TypeError, ValueError):
            pass  # exotic dtype: fall back to per-row casts
    for spec, slots in zip(specs, arrs):
        R[spec[1], : spec[2]] = slots


def _store_sliced(R, seats, count, arrs) -> None:
    """Seat the checked slots of a run of ``count`` ciphertexts,
    ciphertext ``j`` in bit ``j``.

    An input's slots are ``(count, width)`` rows, or one row that all
    of them share.  The same two arms as :func:`_store`: the slots are
    stacked by ciphertext (all inputs at once, or input by input),
    ciphertext ``j``'s are shifted left by ``j`` and the stack is ORed
    together.  (``np.packbits`` along the ciphertext axis does the same
    ten times slower: it walks the short axis per output byte.)
    """
    specs, start = seats
    shifts = _SHIFTS[:count, None]
    if start is not None:
        stack = np.empty((count, len(specs), R.shape[1]), np.uint8)
        for i, slots in enumerate(arrs):
            stack[:, i] = slots
        np.left_shift(stack, shifts[..., None], out=stack)
        np.bitwise_or.reduce(stack, axis=0, out=R[start : start + len(specs)])
        return
    for spec, slots in zip(specs, arrs):
        stack = np.empty((count, spec[2]), np.uint8)
        stack[:] = slots
        np.left_shift(stack, shifts, out=stack)
        np.bitwise_or.reduce(stack, axis=0, out=R[spec[1], : spec[2]])


def _seat_masks(R, seats, bindings) -> None:
    """Check and seat one input group as masks — ``0x00`` / ``0xFF``,
    the same bit for every ciphertext a pass holds (the resident model
    rows)."""
    specs, start = seats
    _store(R, seats, _checked_slots(specs, bindings))
    if start is not None:
        block = R[start : start + len(specs)]
        np.negative(block, out=block)
    else:
        for _, row, width, _ in specs:
            np.negative(R[row, :width], out=R[row, :width])


def compile_megakernel(tape: CompiledTape) -> MegaKernel:
    """Compile a tape into a megakernel (the program builds lazily)."""
    return MegaKernel(tape)


# ---------------------------------------------------------------------------
# Compilation: tape -> SSA levels -> liveness rows -> gather/block steps
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """Internal marker: this tape shape escapes the gather grammar.

    Raised only during plan compilation and never propagates — the
    kernel records the reason and falls back to the tape loop, which
    preserves the exact runtime behavior (including whatever error the
    tape itself raises for inconsistent widths).
    """


class _Plan:
    """The materialized program: row layout + executable step specs."""

    __slots__ = (
        "rows", "lanes", "steps", "const_seats", "ones_row",
        "output_rows", "num_segments", "data_rows",
        "query_seats", "model_seats",
    )

    def __init__(self, rows, lanes, steps, const_seats, ones_row,
                 output_rows, num_segments, data_rows,
                 query_seats, model_seats):
        self.rows = rows
        self.lanes = lanes
        self.steps = steps
        self.const_seats = const_seats
        self.ones_row = ones_row
        self.output_rows = output_rows
        self.num_segments = num_segments
        self.data_rows = data_rows
        #: Seating of the query inputs (every run) and of the model
        #: inputs (once per resident bundle); see :func:`_seat_group`.
        self.query_seats = query_seats
        self.model_seats = model_seats


class _Value:
    """One SSA value: width, dependency level, and liveness extent."""

    __slots__ = ("width", "level", "row")

    def __init__(self, width, level):
        self.width = width
        self.level = level
        self.row = None


def _compile_plan(tape: CompiledTape) -> _Plan:
    """Lower the instruction stream into the level/liveness program."""
    values: List[_Value] = []
    const_pool: Dict[bytes, int] = {}
    const_arrays: List[np.ndarray] = []
    const_values: List[int] = []

    def new_value(width: int, level: int) -> int:
        values.append(_Value(width, level))
        return len(values) - 1

    def const_value(arr: np.ndarray) -> int:
        """SSA value of the pooled constant (deduplicated by bits)."""
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        key = arr.tobytes()
        v = const_pool.get(key)
        if v is None:
            if arr.size == 0:
                raise _Unsupported("zero-width constant")
            v = new_value(arr.size, 0)
            const_pool[key] = v
            const_arrays.append(arr)
            const_values.append(v)
        return v

    # SSA renaming: tape register slot -> current value id.
    slot_value: Dict[int, int] = {}
    input_values: Dict[str, int] = {}
    for name, slot in tape.input_slots.items():
        width = tape.input_widths[name]
        if width <= 0:
            raise _Unsupported("zero-width input")
        v = new_value(width, 0)
        slot_value[slot] = v
        input_values[name] = v

    def value_of(slot: int) -> int:
        v = slot_value.get(slot)
        if v is None:
            raise _Unsupported(f"read of unwritten slot {slot}")
        return v

    has_operand = [False]
    instrs: List[_Instr] = []

    def emit(dest_slot: int, width: int, terms: List[_Term]) -> None:
        if width <= 0:
            raise _Unsupported(f"zero-width result in slot {dest_slot}")
        level = 1 + max(
            max(
                values[t.src].level,
                values[t.operand].level if t.operand is not None else 0,
            )
            for t in terms
        )
        v = new_value(width, level)
        instrs.append(_Instr(v, width, terms, level))
        slot_value[dest_slot] = v

    def mul_term(src: int, operand: int, w: int) -> _Term:
        has_operand[0] = True
        return _Term(src, 0, operand=operand)

    for ins in tape.instructions:
        op, dest = ins[0], ins[1]
        if op == OP_ADD:
            a, b = value_of(ins[2]), value_of(ins[3])
            w = values[a].width
            if values[b].width != w:
                raise _Unsupported("ADD width mismatch")
            emit(dest, w, [_Term(a, 0), _Term(b, 0)])
        elif op == OP_CADD:
            a = value_of(ins[2])
            w = values[a].width
            arr = ins[3].to_array()
            if arr.size != w:
                raise _Unsupported("CADD width mismatch")
            emit(dest, w, [_Term(a, 0), _Term(const_value(arr), 0)])
        elif op == OP_MUL:
            a, b = value_of(ins[2]), value_of(ins[3])
            w = values[a].width
            if values[b].width != w:
                raise _Unsupported("MUL width mismatch")
            emit(dest, w, [mul_term(a, b, w)])
        elif op == OP_CMUL:
            a = value_of(ins[2])
            w = values[a].width
            arr = ins[3].to_array()
            if arr.size != w:
                raise _Unsupported("CMUL width mismatch")
            emit(dest, w, [mul_term(a, const_value(arr), w)])
        elif op == OP_ROT:
            a = value_of(ins[2])
            emit(dest, values[a].width, [_Term(a, ins[3])])
        elif op == OP_EXT:
            a = value_of(ins[2])
            length = ins[3]
            if length <= 0:
                raise _Unsupported("EXTEND to zero width")
            # the % source-width in the index build is the cyclic tiling
            emit(dest, length, [_Term(a, 0)])
        elif op == OP_TRUNC:
            a = value_of(ins[2])
            length = ins[3]
            if length <= 0 or length > values[a].width:
                raise _Unsupported("TRUNCATE outside the source width")
            emit(dest, length, [_Term(a, 0)])
        elif op == OP_FUSED:
            spec = ins[2]
            w = spec.width
            terms = []
            for amount, src, operand in spec.terms:
                a = value_of(src)
                if values[a].width != w:
                    raise _Unsupported("fused-term width mismatch")
                if operand is None:
                    terms.append(_Term(a, amount))
                elif isinstance(operand, int):
                    b = value_of(operand)
                    if values[b].width != w:
                        raise _Unsupported("fused-operand width mismatch")
                    terms.append(_Term(a, amount, operand=b))
                    has_operand[0] = True
                else:
                    arr = operand.to_array()
                    if arr.size != w:
                        raise _Unsupported("fused-mask width mismatch")
                    terms.append(mul_term(a, const_value(arr), w))
                    # masks apply after rotation; keep the amount
                    terms[-1].amount = amount
            emit(dest, w, terms)
        else:
            raise _Unsupported(f"unknown opcode {op}")

    output_values: Dict[str, int] = {}
    for name, ref in tape.output_refs.items():
        if isinstance(ref, int):
            output_values[name] = value_of(ref)

    ones_value = None
    if has_operand[0]:
        ones_value = new_value(1, 0)

    from repro.ir.copse_ir import is_query_input

    query_values = {
        name: v for name, v in input_values.items() if is_query_input(name)
    }
    model_values = {
        name: v for name, v in input_values.items()
        if name not in query_values
    }
    return _schedule(
        tape, values, instrs, const_arrays, const_values, ones_value,
        query_values, model_values, output_values,
    )


def _needs_gather(values, term: _Term, width: int) -> bool:
    """True when the term's read cannot be a plain row copy."""
    src_width = values[term.src].width
    return (term.amount % src_width != 0) or src_width < width


def _seat_group(tape, values, lanes, inputs):
    """``(specs, start)`` for seating one group of inputs.

    ``specs`` are ``(name, row, width, is_cipher)`` in row order;
    ``start`` is the first row when the group occupies
    consecutive rows at full lane width — one concatenate then seats
    it — and ``None`` otherwise.
    """
    input_cipher = tape.input_cipher
    specs = tuple(sorted(
        (
            (name, values[v].row, values[v].width, input_cipher[name])
            for name, v in inputs.items()
        ),
        key=lambda spec: spec[1],
    ))
    start = specs[0][1] if specs else None
    if not all(
        spec[1] == start + i and spec[2] == lanes
        for i, spec in enumerate(specs)
    ):
        start = None
    return specs, start


def _schedule(tape, values, instrs, const_arrays, const_values,
              ones_value, query_values, model_values,
              output_values) -> _Plan:
    """Level-schedule instructions, run liveness, materialize steps.

    Row layout, top to bottom: the query inputs (rows ``0..q-1``), the
    recycled rows of the intermediates, then the permanent rows — model
    inputs in binding order, the constant pool, the all-ones row.
    """
    # -- group instructions by dependency level -------------------------
    by_level: Dict[int, List[_Instr]] = {}
    for instr in instrs:
        by_level.setdefault(instr.level, []).append(instr)

    # -- build abstract steps: per level, a gather for rotated / tiled
    #    terms (direct to the instruction's value when it is the whole
    #    instruction), then blocks grouped by (width, k).
    steps: List = []
    for level in sorted(by_level):
        gathers: Dict[int, List[Tuple[int, int, int]]] = {}
        blocks: Dict[Tuple[int, int], List[_Instr]] = {}
        for instr in by_level[level]:
            w = instr.width
            direct = (
                len(instr.terms) == 1
                and instr.terms[0].operand is None
                and _needs_gather(values, instr.terms[0], w)
            )
            if direct:
                term = instr.terms[0]
                gathers.setdefault(w, []).append(
                    (term.src, term.amount, instr.value)
                )
                continue
            for term in instr.terms:
                if _needs_gather(values, term, w):
                    scratch = len(values)
                    values.append(_Value(w, level))
                    gathers.setdefault(w, []).append(
                        (term.src, term.amount, scratch)
                    )
                    term.src = scratch
                    term.amount = 0
            blocks.setdefault((w, len(instr.terms)), []).append(instr)
        for w in sorted(gathers):
            steps.append(_GatherStep(w, gathers[w]))
        for (w, k) in sorted(blocks):
            steps.append(_BlockStep(w, k, blocks[(w, k)]))

    # -- liveness: last step reading each value -------------------------
    last_use = [None] * len(values)
    for s, step in enumerate(steps):
        for v in step.reads:
            last_use[v] = s
    permanent = set(const_values)
    if ones_value is not None:
        permanent.add(ones_value)
    permanent.update(output_values.values())
    # Model inputs are seated once per bundle, not once per run, so no
    # intermediate may ever take over their rows.
    permanent.update(model_values.values())

    # -- linear scan: rows recycle the step after their last read.
    #    Reads of step s complete before its writes, so a value last
    #    read at s can hand its row to a value written at s.
    free_at: Dict[int, List[int]] = {}
    for v, value in enumerate(values):
        if v in permanent:
            continue
        if last_use[v] is not None:
            free_at.setdefault(last_use[v], []).append(v)
    free_rows: List[int] = []
    next_row = [0]

    def alloc_row() -> int:
        if free_rows:
            return free_rows.pop()
        row = next_row[0]
        next_row[0] += 1
        return row

    for v in query_values.values():
        values[v].row = alloc_row()
    for s, step in enumerate(steps):
        freed = [values[v].row for v in free_at.get(s, ())]
        if isinstance(step, _GatherStep):
            # A single-destination gather copies from its source row
            # straight into its destination row (no buffer between),
            # so a gather's writes must not reuse a row this step still
            # reads; rows read here free for the *next* step instead.
            for v in step.writes:
                values[v].row = alloc_row()
            free_rows.extend(freed)
        else:
            # Block reads are buffered (or exactly row-aligned for the
            # in-place single-instruction ufuncs), so a row last read
            # here can seat a value written here.
            free_rows.extend(freed)
            for v in step.writes:
                values[v].row = alloc_row()

    data_rows = next_row[0]
    # Model inputs take rows in the order the steps first read them, so
    # the diagonals a block consumes form one run it can read in place.
    row = data_rows
    resident = set(model_values.values())
    read_order = [v for step in steps for v in step.reads if v in resident]
    for v in dict.fromkeys(read_order + list(model_values.values())):
        values[v].row = row
        row += 1
    const_seats: List[Tuple[int, np.ndarray]] = []
    for v, arr in zip(const_values, const_arrays):
        values[v].row = row
        const_seats.append((row, arr))
        row += 1
    ones_row = None
    if ones_value is not None:
        ones_row = row
        values[ones_value].row = row
        row += 1
    rows = row

    lanes = max(value.width for value in values)

    # -- materialize executable step specs ------------------------------
    specs = []
    for step in steps:
        if isinstance(step, _GatherStep):
            specs.append(_window_spec(values, step))
        else:
            n, k = len(step.instrs), step.k
            s1 = np.array(
                [
                    values[t.src].row
                    for instr in step.instrs for t in instr.terms
                ],
                dtype=np.intp,
            )
            any_op = any(
                t.operand is not None
                for instr in step.instrs for t in instr.terms
            )
            s2 = None
            if any_op:
                s2 = np.array(
                    [
                        values[t.operand].row if t.operand is not None
                        else ones_row
                        for instr in step.instrs for t in instr.terms
                    ],
                    dtype=np.intp,
                )
            dests = np.array(
                [values[i.value].row for i in step.instrs], dtype=np.intp
            )
            specs.append(("block", s1, s2, n, k, dests))

    output_rows = {
        name: values[v].row for name, v in output_values.items()
    }
    return _Plan(
        rows, lanes, specs, const_seats, ones_row, output_rows,
        len(by_level), data_rows,
        _seat_group(tape, values, lanes, query_values),
        _seat_group(tape, values, lanes, model_values),
    )


def _window_spec(values, step: _GatherStep):
    """``("gather", fills, starts, dests, w, size)`` for one gather step.

    ``rot(src, a)`` read at width ``w`` is the ``w`` bytes at offset
    ``a % sw`` of ``src[:sw]`` laid out periodically.  So each
    *distinct* source gets ``sw - 1 + w`` bytes of a flat per-thread
    buffer — sources of one width side by side, ``fills`` holding
    ``(source rows, sw, buffer offset)`` per width — and every
    destination is one contiguous window of it, ``starts`` holding
    where each begins.  No per-element index exists: the plan carries
    one integer per destination and one per distinct source.
    """
    w = step.width
    groups: Dict[int, Dict[int, None]] = {}  # sw -> sources, first-read order
    for src, _, _ in step.specs:
        groups.setdefault(values[src].width, {})[src] = None
    fills, tile_at, size = [], {}, 0
    for sw, members in groups.items():
        fills.append((
            np.array([values[src].row for src in members], dtype=np.intp),
            sw, size,
        ))
        for src in members:
            tile_at[src] = size
            size += sw - 1 + w
    starts = np.array(
        [
            tile_at[src] + amount % values[src].width
            for src, amount, _ in step.specs
        ],
        dtype=np.intp,
    )
    dests = np.array(
        [values[d].row for _, _, d in step.specs], dtype=np.intp
    )
    return ("gather", tuple(fills), starts, dests, w, size)


def _bind_step(R: np.ndarray, spec):
    """Compile one step spec into a zero-arg closure over this thread's
    plane.

    Rows past a value's width hold don't-care bytes: gathers tile from
    ``src[:source width]`` only and so never read them, row reads only
    ever feed instructions at most as wide as their source, and outputs
    slice ``[:length]`` — so every fast path below runs full-lane
    in-place ufuncs with no per-run slicing.
    """
    lanes = R.shape[1]
    tag = spec[0]
    take_rows = R.take  # bound method skips the np.take dispatch
    copyto = np.copyto
    if tag == "gather":
        _, fills, starts, dests, w, size = spec
        copies = []  # (dst, src) fixed views, run in order
        if len(dests) == 1:
            # One destination: its window goes straight from the source
            # row to the destination row — the period's two pieces,
            # then doubling within the destination — because tiling a
            # buffer for one read measurably loses (3.7 vs 2.3 us for
            # the old element take at 960 lanes; this form: 1.6).  The
            # allocator never hands a gather a row the step still
            # reads, so the two rows are distinct.
            sw, at = fills[0][1], int(starts[0])
            src, out = R[fills[0][0][0]], R[dests[0]]
            head = min(sw - at, w)
            wrap = min(at, w - head)
            copies.append((out[:head], src[at : at + head]))
            if wrap:
                copies.append((out[head : head + wrap], src[:wrap]))
            _extend(copies, out, head + wrap, w)

            def step():
                for dst, src in copies:
                    copyto(dst, src)
            return step
        buf = np.empty(size, dtype=np.uint8)
        windows = sliding_window_view(buf, w)
        seeds = []  # (tile[:, :sw], source rows): rows that form no run
        for rows, sw, offset in fills:
            pitch = sw - 1 + w
            tile = buf[offset : offset + pitch * len(rows)].reshape(-1, pitch)
            run = _row_run(R, rows)
            if run is None:
                seeds.append((tile[:, :sw], rows))
            else:
                copies.append((tile[:, :sw], run[:, :sw]))
            _extend(copies, tile, sw, pitch)
        out = _row_run(R, dests)
        if out is not None:
            out = out[:, :w]

        def step():
            for dst, rows in seeds:
                dst[...] = R[rows, : dst.shape[1]]
            for dst, src in copies:
                copyto(dst, src)
            if out is None:
                R[dests, :w] = windows[starts]
            else:
                out[...] = windows[starts]
        return step

    _, s1, s2, n, k, dests = spec
    if n == 1 and k == 1:
        out = R[dests[0]]
        a = R[s1[0]]
        if s2 is None:
            def step():
                copyto(out, a)
        else:
            b = R[s2[0]]

            def step():
                np.bitwise_and(a, b, out=out)
        return step
    if n == 1 and k == 2 and s2 is None:
        out = R[dests[0]]
        a, b = R[s1[0]], R[s1[1]]

        def step():
            np.bitwise_xor(a, b, out=out)
        return step

    # ``terms`` is what the XOR reduces: the source rows themselves, or
    # their AND with the operand rows landed in ``g3`` — so no plane row
    # is written before every read of the step is done.
    g3 = None if s2 is None else np.empty((n, k, lanes), dtype=np.uint8)
    terms, rows1 = _operand(R, s1, n, k, g3)
    gathers = [] if rows1 is None else [(rows1, terms.reshape(-1, lanes))]
    a = b = None
    if s2 is not None:
        b, rows2 = _operand(R, s2, n, k)
        if rows2 is not None:
            gathers.append((rows2, b.reshape(-1, lanes)))
        a, terms = terms, g3
    out = (
        terms[:, 0] if k == 1
        else np.empty((len(terms), lanes), dtype=np.uint8)
    )

    def step():
        for rows, into in gathers:
            take_rows(rows, axis=0, out=into)
        if b is not None:
            np.bitwise_and(a, b, out=g3)
        if k == 2:  # half the cost of a reduce over an axis of two
            np.bitwise_xor(terms[:, 0], terms[:, 1], out=out)
        elif k > 2:
            np.bitwise_xor.reduce(terms, axis=1, out=out)
        R[dests] = out
    return step


def _extend(copies: List, row: np.ndarray, done: int, total: int) -> None:
    """Append the copies that continue ``row[..., :done]`` periodically
    up to ``total`` bytes, doubling what is there each time."""
    while done < total:
        more = min(done, total - done)
        copies.append((row[..., done : done + more], row[..., :more]))
        done += more


def _operand(R: np.ndarray, rows: np.ndarray, n: int, k: int, scratch=None):
    """One side of a block step as ``(array, rows to gather or None)``.

    The array broadcasts against ``(n, k, lanes)``.  Three arms: rows
    that form one run of the plane — a matrix's resident model
    diagonals, allocated in the order the block reads them — are viewed
    in place; the same ``k`` rows under every one of the ``n``
    instructions (one rotated vector against ``n`` matrices) are held
    once, as ``(1, k, lanes)``, and broadcast; anything else is
    gathered whole, into ``scratch`` when the caller lends one.
    """
    lanes = R.shape[1]
    grid = rows.reshape(n, k)
    if n > 1 and (grid == grid[0]).all():
        rows, n, scratch = grid[0], 1, None
    run = _row_run(R, rows)
    if run is not None:
        return run.reshape(n, k, lanes), None
    if scratch is None:
        scratch = np.empty((n, k, lanes), dtype=np.uint8)
    return scratch, rows


def _row_run(R: np.ndarray, rows: np.ndarray) -> Optional[np.ndarray]:
    """A view of ``rows`` when they are consecutive, else ``None``."""
    first = int(rows[0])
    if np.array_equal(rows, np.arange(first, first + len(rows))):
        return R[first : first + len(rows)]
    return None
