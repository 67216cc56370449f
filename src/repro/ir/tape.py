"""Compiled tapes: linearized inference plans with register reuse.

The plan engine (:mod:`repro.ir.plan`) executes an optimized
:class:`~repro.ir.nodes.IrGraph` by re-walking it per batch through the
interpreter of :mod:`repro.ir.executor`: one Python ``if/elif`` dispatch
per node, arguments resolved through a ``values`` list that keeps every
intermediate ciphertext alive until the run ends.  A
:class:`CompiledTape` compiles that hot structure exactly once:

* **linearization** — the graph becomes a flat instruction array with
  integer opcodes; per-batch execution is one tight loop, no graph in
  sight;
* **liveness analysis + register allocation** — every SSA value gets a
  *slot* whose lifetime ends at its last use, so slots are reused and
  intermediates become garbage the moment they are dead.  The peak
  number of simultaneously live ciphertexts is computed at compile time
  (:attr:`CompiledTape.peak_live`) and regression-tested;
* **rotation scheduling** — the tape pipeline runs
  :func:`~repro.ir.passes.schedule_rotations` (plus DCE) over the
  plan's graph, so the per-(level, diagonal) masked-gather rotations
  collapse into shared pivot/residual chains: strictly fewer rotations
  than the plan executes, at identical bits;
* **kernel fusion** — XOR-accumulation trees over masked/rotated
  products become single fused instructions (``rotate-mask-xor`` for
  one-source gathers, ``mask-mult-accumulate`` for Halevi-Shoup
  combines).  A backend exposing the optional ``fused_ops`` capability
  (the vector backend) executes each as one numpy pass; every other
  backend runs the recorded de-fused sequence, so bits, noise states,
  and tracker counts are byte-identical either way.

A tape carries the plan's :meth:`~repro.core.compiler.CompiledModel.
fingerprint` and performs the same fail-closed bind check: a cached tape
refuses to execute against any model it was not compiled for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import CompileError, RuntimeProtocolError
from repro.fhe.backend import FheBackend, fold_balanced
from repro.fhe.ciphertext import Ciphertext, PlainVector
from repro.fhe.context import Vector
from repro.fhe.tracker import OpKind
from repro.ir.executor import tile_plain_extend
from repro.ir.nodes import IrGraph, IrOp, const_bits
from repro.ir.passes import (
    _use_counts,
    collect_xor_tree,
    dead_code_elimination,
    fold_xor_trees,
    schedule_rotations,
)

__all__ = [
    "CompiledTape",
    "FusedSpec",
    "OPCODE_NAMES",
    "compile_tape",
    "fold_balanced",
]

# Integer opcodes: dispatch in the execution loop is one int comparison
# chain, not an enum walk.
OP_ADD = 0       # dest = cipher ^ cipher
OP_CADD = 1      # dest = cipher ^ inline PlainVector
OP_MUL = 2       # dest = cipher & cipher
OP_CMUL = 3      # dest = cipher & inline PlainVector
OP_ROT = 4       # dest = rotate(cipher, amount)
OP_EXT = 5       # dest = cyclic_extend(value, length)
OP_TRUNC = 6     # dest = truncate(value, length)
OP_FUSED = 7     # dest = fused accumulation (see FusedSpec)

#: Human-readable opcode names, indexed by opcode — the profiler's and
#: report generator's vocabulary.
OPCODE_NAMES = (
    "add", "const_add", "mul", "const_mul", "rotate",
    "extend", "truncate", "fused",
)

#: Minimum product terms before an XOR tree is worth fusing (a two-term
#: tree is just one add; fusing it only adds dispatch overhead).
_MIN_FUSED_PRODUCTS = 2


# The canonical balanced fold is defined next to the fused-ops contract
# it underpins (repro.fhe.backend) and re-exported here for tape users.


class FusedSpec:
    """One fused accumulation: ``dest = XOR_k rot(src_k, a_k) [& op_k]``.

    ``terms`` is a tuple of ``(amount, src_slot, operand)`` where
    ``operand`` is ``None`` (bare value), a :class:`PlainVector`
    (plaintext mask — a *rotate-mask-xor* / *mask-mult-accumulate*
    term), or an ``int`` register slot (ciphertext operand — an
    encrypted-model Halevi-Shoup product term).  ``kind`` is ``"rmx"``
    when every term rotates the *same* source under plaintext masks
    (executable as a single gather over a precomputed index matrix) and
    ``"mmacc"`` otherwise.

    The semantics — also the de-fused fallback and the bookkeeping
    recipe every fused backend must reproduce — are: for each term in
    order, rotate (when ``amount != 0``), then multiply by the operand
    (when present); finally combine all term values with the balanced
    XOR fold of :func:`fold_balanced`.
    """

    __slots__ = (
        "kind", "width", "terms", "op_counts", "_idx", "_maskmat",
    )

    def __init__(self, terms: Tuple, width: int):
        self.terms = terms
        self.width = width
        rotations = sum(1 for a, _, _ in terms if a)
        const_mults = sum(
            1 for _, _, op in terms if isinstance(op, PlainVector)
        )
        multiplies = sum(1 for _, _, op in terms if isinstance(op, int))
        self.op_counts: Dict[OpKind, int] = {OpKind.ADD: len(terms) - 1}
        if rotations:
            self.op_counts[OpKind.ROTATE] = rotations
        if const_mults:
            self.op_counts[OpKind.CONST_MULT] = const_mults
        if multiplies:
            self.op_counts[OpKind.MULTIPLY] = multiplies
        single_source = len({src for _, src, _ in terms}) == 1
        plain_only = multiplies == 0
        self.kind = "rmx" if (single_source and plain_only) else "mmacc"
        self._idx = None
        self._maskmat = None

    def gather_arrays(self, length: int):
        """(index matrix, mask matrix) for the single-pass ``rmx`` kernel.

        Row ``k`` of the index matrix gathers ``rot(src, a_k)``; the mask
        matrix stacks the plaintext masks (all-ones rows for bare
        terms, or ``None`` when no term carries a mask).  Built once per
        tape and cached — the arrays depend only on the spec.
        """
        if self._idx is None:
            base = np.arange(length, dtype=np.intp)
            idx = np.stack(
                [(base + amount) % length for amount, _, _ in self.terms]
            )
            if any(isinstance(op, PlainVector) for _, _, op in self.terms):
                rows = []
                for _, _, op in self.terms:
                    if isinstance(op, PlainVector):
                        rows.append(op.to_array())
                    else:
                        rows.append(np.ones(length, dtype=np.uint8))
                self._maskmat = np.stack(rows)
            # Publish the index matrix last: tapes are shared across
            # serve worker threads, and a reader that sees ``_idx``
            # non-None must also see the finished mask matrix (a racing
            # duplicate build is benign; a half-published one is not).
            self._idx = idx
        return self._idx, self._maskmat

    # ``__slots__`` classes pickle their slot dict by default, which
    # would ship the lazily-built gather caches (dense index/mask
    # matrices) to every spawned serve worker.  Ship only the defining
    # fields; ``__init__`` recomputes kind/op_counts and the caches
    # rebuild lazily on first worker-side execution.
    def __getstate__(self):
        return (self.terms, self.width)

    def __setstate__(self, state):
        self.__init__(*state)


def _defused(ctx: FheBackend, spec: FusedSpec, regs: List) -> Ciphertext:
    """Execute a fused instruction as its primitive op sequence."""
    values = []
    for amount, src, operand in spec.terms:
        value = regs[src]
        if amount:
            value = ctx.rotate(value, amount)
        if operand is not None:
            if isinstance(operand, int):
                value = ctx.multiply(value, regs[operand])
            else:
                value = ctx.const_mult(value, operand)
        values.append(value)
    return fold_balanced(values, ctx.add)


# ---------------------------------------------------------------------------
# The compiled tape
# ---------------------------------------------------------------------------


@dataclass
class CompiledTape:
    """A linearized, register-allocated, fusion-compiled inference plan.

    ``instructions`` are ``(opcode, dest_slot, a, b, frees)`` tuples;
    ``frees`` lists the slots whose values die at that instruction (the
    executor drops the references, so register reuse is also memory
    reuse).  ``profile`` is the :class:`~repro.ir.plan.GraphProfile` of
    the rotation-scheduled graph the tape was compiled from — its
    ``rotations`` are the counts the regression baseline pins below the
    plan engine's.
    """

    instructions: List[Tuple]
    num_slots: int
    #: Peak number of simultaneously live ciphertext values (inputs
    #: included) at any point of the execution — the register allocator's
    #: reported, regression-tested memory metric.
    peak_live: int
    input_slots: Dict[str, int]
    input_widths: Dict[str, int]
    input_cipher: Dict[str, bool]
    #: name -> register slot (int) or baked plaintext constant.
    output_refs: Dict[str, Union[int, PlainVector]]
    profile: "GraphProfile"
    variant: str = ""
    encrypted_model: bool = True
    width: int = 0
    batch_shape: Optional[Tuple[int, int]] = None
    model_fingerprint: Optional[str] = None
    fused: bool = True

    @property
    def batched(self) -> bool:
        return self.batch_shape is not None

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    @property
    def rotations(self) -> int:
        return self.profile.rotations

    def describe(self) -> str:
        shape = (
            f"batched {self.batch_shape[1]}x{self.batch_shape[0]}"
            if self.batched
            else "single-query"
        )
        return (
            f"tape[{shape}]: {self.num_instructions} instructions, "
            f"{self.num_slots} slots (peak live {self.peak_live}), "
            f"rotations {self.rotations}, depth {self.profile.depth}"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        ctx,
        model,
        query,
        phase: Optional[str] = None,
    ) -> Ciphertext:
        """Execute against a runtime model bundle + encrypted query.

        Binding performs the same fail-closed fingerprint check as
        :meth:`~repro.ir.plan.InferencePlan.bindings_for`: a bundle that
        cannot prove it is the model this tape was compiled for is
        refused.  ``phase`` defaults to the tape phase.
        """
        from repro.core.engines import PHASE_TAPE
        from repro.ir.plan import OUTPUT_LABELS, bind_model_query

        if phase is None:
            phase = PHASE_TAPE
        bindings = bind_model_query(
            ctx,
            self.input_widths,
            self.encrypted_model,
            self.model_fingerprint,
            model,
            query,
        )
        outputs = self.execute(ctx, bindings, phase=phase)
        result = outputs[OUTPUT_LABELS]
        if not isinstance(result, Ciphertext):  # pragma: no cover
            raise RuntimeProtocolError("tape result must be encrypted")
        return result

    def execute(
        self,
        ctx: FheBackend,
        bindings: Dict[str, Vector],
        phase: Optional[str] = None,
        profiler=None,
    ) -> Dict[str, Vector]:
        """Run the tape with named input bindings (the executor API).

        ``profiler`` (a :class:`~repro.obs.profiler.TapeProfiler`) is
        told about each instruction as :meth:`_execute` finishes it; the
        default ``None`` costs the loop one test per instruction.
        """
        missing = set(self.input_slots) - set(bindings)
        if missing:
            raise RuntimeProtocolError(
                f"unbound IR inputs: {sorted(missing)}"
            )
        if phase is not None:
            with ctx.tracker.phase(phase):
                return self._execute(ctx, bindings, profiler)
        return self._execute(ctx, bindings, profiler)

    def _bind_inputs(self, bindings) -> List:
        """Validate input bindings and seat them in a fresh register file."""
        regs: List[Optional[Vector]] = [None] * self.num_slots
        for name, slot in self.input_slots.items():
            value = bindings[name]
            if self.input_cipher[name]:
                if not isinstance(value, Ciphertext):
                    raise RuntimeProtocolError(
                        f"input {name!r} must be a ciphertext"
                    )
            elif not isinstance(value, PlainVector):
                raise RuntimeProtocolError(
                    f"input {name!r} must be a plaintext vector"
                )
            if value.length != self.input_widths[name]:
                raise RuntimeProtocolError(
                    f"input {name!r} has width {value.length}, "
                    f"declared {self.input_widths[name]}"
                )
            regs[slot] = value
        return regs

    def _execute(
        self, ctx: FheBackend, bindings, profiler=None
    ) -> Dict[str, Vector]:
        regs = self._bind_inputs(bindings)
        fused = getattr(ctx, "fused_ops", None) if self.fused else None
        add = ctx.add
        const_add = ctx.const_add
        multiply = ctx.multiply
        const_mult = ctx.const_mult
        rotate = ctx.rotate
        if profiler is not None:
            profiler.begin_run(ctx.tracker)
        for index, ins in enumerate(self.instructions):
            op = ins[0]
            if op == OP_MUL:
                value = multiply(regs[ins[2]], regs[ins[3]])
            elif op == OP_CMUL:
                value = const_mult(regs[ins[2]], ins[3])
            elif op == OP_ADD:
                value = add(regs[ins[2]], regs[ins[3]])
            elif op == OP_CADD:
                value = const_add(regs[ins[2]], ins[3])
            elif op == OP_FUSED:
                spec = ins[2]
                if fused is not None:
                    value = fused.execute(spec, regs)
                else:
                    value = _defused(ctx, spec, regs)
            elif op == OP_ROT:
                value = rotate(regs[ins[2]], ins[3])
            elif op == OP_EXT:
                source = regs[ins[2]]
                if isinstance(source, Ciphertext):
                    value = ctx.cyclic_extend(source, ins[3])
                else:
                    value = PlainVector(
                        tile_plain_extend(
                            source.to_array(), ins[3],
                            f"tape register {ins[2]}",
                        )
                    )
            elif op == OP_TRUNC:
                source = regs[ins[2]]
                if isinstance(source, Ciphertext):
                    value = ctx.truncate(source, ins[3])
                else:
                    value = PlainVector(source.to_array()[: ins[3]])
            else:  # pragma: no cover - opcode set is closed
                raise CompileError(f"unknown tape opcode {op}")
            regs[ins[1]] = value
            frees = ins[4]
            if frees:
                for slot in frees:
                    regs[slot] = None
            if profiler is not None:
                profiler.instruction(index, OPCODE_NAMES[op], value)
        return {
            name: (regs[ref] if isinstance(ref, int) else ref)
            for name, ref in self.output_refs.items()
        }


# ---------------------------------------------------------------------------
# Compilation: fusion discovery, linearization, register allocation
# ---------------------------------------------------------------------------


@dataclass
class _AbstractInstr:
    """A pre-regalloc instruction whose references are graph node ids."""

    opcode: int
    node_id: int                 # the graph node this defines
    refs: List[int] = field(default_factory=list)  # node-id operands
    attr: object = None          # amount/length/IrOp for generic
    terms: Optional[List[Tuple[int, int, object]]] = None  # fused


def _find_fusable_trees(graph: IrGraph, uses, pinned):
    """Match XOR-accumulation trees worth fusing.

    Returns ``(matched, folded)``: ``matched`` maps tree-root node id to
    its ordered term list ``(amount, src_node, operand)`` with operand
    ``None`` / const node id (marked plain) / cipher node id; ``folded``
    is the set of node ids absorbed into fused instructions (interior
    XORs, product leaves, single-use rotations).
    """
    nodes = graph.nodes
    matched: Dict[int, List[Tuple[int, int, object]]] = {}
    folded: set = set()

    def leaf_term(nid: int, unrotated: bool):
        """(amount, src, operand, absorbed_ids) for a product leaf, or
        None when the leaf must stay a bare materialized value.
        ``unrotated``: no product of the leaf's tree folds a rotation."""
        node = nodes[nid]
        if (
            node.op not in (IrOp.MULTIPLY, IrOp.CONST_MULT)
            or uses[nid] != 1
            or nid in pinned
            or not node.is_cipher
        ):
            return None
        absorbed = [nid]
        if node.op is IrOp.CONST_MULT:
            value, const = node.args
            if nodes[const].op is not IrOp.CONST_PT:
                return None
            operand: object = ("const", const)
        else:
            a, b = node.args
            if not (nodes[a].is_cipher and nodes[b].is_cipher):
                return None
            # The factors commute.  A single-use rotation is folded into
            # the term as its source.  Beside rotated products (a
            # Halevi-Shoup ``XOR_i rot(v, i) & d_i``) the graph's order
            # stands, so the diagonals stay one run the megakernel reads
            # in place.  In an unrotated tree the more-shared factor is
            # the operand: the level products AND every matrix with the
            # same gathers, and the megakernel holds a side that repeats
            # under a block once.
            value, operand = a, ("cipher", b)
            if not _foldable_rotate(a) and (
                _foldable_rotate(b) or (unrotated and uses[b] < uses[a])
            ):
                value, operand = b, ("cipher", a)
        amount = 0
        if _foldable_rotate(value):
            rot = nodes[value]
            absorbed.append(value)
            value, amount = rot.args[0], rot.attr[0]
        return amount, value, operand, absorbed

    def _foldable_rotate(nid: int) -> bool:
        node = nodes[nid]
        return (
            node.op is IrOp.ROTATE
            and uses[nid] == 1
            and nid not in pinned
            and node.is_cipher
            and nodes[node.args[0]].is_cipher
        )

    unrotated: Dict[int, tuple] = {}  # product leaf -> leaf_term(leaf, True)

    def leaf(nid: int):
        """(products, any rotated), or None: plain bare leaves stay unfused."""
        hit = leaf_term(nid, True)
        if hit is None:
            return (0, False) if nodes[nid].is_cipher else None
        unrotated[nid] = hit
        return 1, bool(hit[0])

    trees = fold_xor_trees(graph, uses, pinned, leaf, lambda a, b: (
        a[0] + b[0], a[1] or b[1]))
    for root in reversed(graph.nodes):
        rid = root.node_id
        tree = trees[rid] if root.is_cipher else None
        if not tree or tree[0] < _MIN_FUSED_PRODUCTS or rid in folded:
            continue
        leaves, interior = collect_xor_tree(graph, rid, uses, pinned)
        # Most trees are unrotated; a rotated one is oriented again.
        # (Orientation never moves a rotation, so the flag is sound.)
        terms: List[Tuple[int, int, object]] = []
        for nid in leaves:
            hit = leaf_term(nid, False) if tree[1] else unrotated.get(nid)
            if hit is None:
                terms.append((0, nid, None))
                continue
            amount, value, operand, absorbed = hit
            terms.append((amount, value, operand))
            folded.update(absorbed)
        matched[rid] = terms
        folded.update(interior)
    return matched, folded


def compile_tape(
    graph: IrGraph,
    *,
    fuse: bool = True,
    schedule: bool = True,
    variant: str = "",
    encrypted_model: bool = True,
    width: int = 0,
    batch_shape: Optional[Tuple[int, int]] = None,
    model_fingerprint: Optional[str] = None,
) -> CompiledTape:
    """Lower an (optimized) graph into a :class:`CompiledTape`.

    ``schedule`` runs the rotation scheduler (its shared re-emission
    also merges and fuses whatever ``graph`` left unshared) and DCE
    first;
    ``fuse`` emits fused accumulation instructions — disable it to get a
    tape whose every instruction is one primitive op (used by the parity
    tests; execution results are byte-identical either way).
    """
    from repro.ir.plan import GraphProfile

    if schedule:
        graph = dead_code_elimination(schedule_rotations(graph))
    profile = GraphProfile.of(graph)

    uses = _use_counts(graph)
    pinned = set(graph.outputs.values()) | set(graph.inputs.values())

    if fuse:
        matched, folded = _find_fusable_trees(graph, uses, pinned)
    else:
        matched, folded = {}, set()

    # Dispositions: const nodes become inline PlainVectors, inputs bind
    # to slots at run start, folded nodes vanish into fused terms, and
    # everything else defines one instruction.
    consts: Dict[int, PlainVector] = {}
    abstract: List[_AbstractInstr] = []
    input_nodes: List[int] = []
    for node in graph.nodes:
        nid = node.node_id
        if node.op is IrOp.CONST_PT:
            consts[nid] = PlainVector(const_bits(node))
            continue
        if node.op in (IrOp.INPUT_CT, IrOp.INPUT_PT):
            input_nodes.append(nid)
            continue
        if nid in folded:
            continue
        if nid in matched:
            terms = []
            refs = []
            for amount, src, operand in matched[nid]:
                refs.append(src)
                if operand is None:
                    terms.append((amount, src, None))
                elif operand[0] == "const":
                    terms.append((amount, src, consts[operand[1]]))
                else:
                    refs.append(operand[1])
                    terms.append((amount, src, operand[1]))
            abstract.append(
                _AbstractInstr(OP_FUSED, nid, refs, node.width, terms)
            )
            continue
        abstract.append(_make_abstract(graph, node, consts))

    # Liveness: last instruction index referencing each node; outputs
    # live to the end.  Inputs occupy slots from position 0.
    end = len(abstract)
    last_use: Dict[int, int] = {}
    for i, ins in enumerate(abstract):
        for ref in ins.refs:
            last_use[ref] = i
    for nid in graph.outputs.values():
        if nid not in consts:
            last_use[nid] = end

    slot_of: Dict[int, int] = {}
    free: List[int] = []
    num_slots = 0
    live_cipher = 0
    peak_live = 0

    def alloc(nid: int) -> int:
        nonlocal num_slots
        slot = free.pop() if free else num_slots
        if slot == num_slots:
            num_slots += 1
        slot_of[nid] = slot
        return slot

    input_slots: Dict[str, int] = {}
    for nid in input_nodes:
        alloc(nid)
        if graph.node(nid).is_cipher:
            live_cipher += 1
    peak_live = live_cipher
    for name, nid in graph.inputs.items():
        input_slots[name] = slot_of[nid]

    instructions: List[Tuple] = []
    for i, ins in enumerate(abstract):
        node = graph.node(ins.node_id)
        # Resolve operand slots before releasing anything: operands
        # dying here free their slots for reuse from this instruction's
        # destination onward (reads happen before the write in the
        # executor, so dest may alias a dead operand).
        resolved = {ref: slot_of[ref] for ref in ins.refs}
        dying = [
            ref for ref in sorted(resolved)
            if last_use.get(ref) == i
        ]
        if node.is_cipher:
            live_cipher += 1
            if live_cipher > peak_live:
                peak_live = live_cipher
        frees: List[int] = []
        for ref in dying:
            slot = slot_of.pop(ref)
            free.append(slot)
            frees.append(slot)
            if graph.node(ref).is_cipher:
                live_cipher -= 1
        dest = alloc(ins.node_id)
        # A slot both freed and immediately reused as dest must not be
        # cleared after the instruction writes it.
        frees = tuple(s for s in frees if s != dest)
        instructions.append(
            _concretize(ins, dest, resolved, frees)
        )

    output_refs: Dict[str, Union[int, PlainVector]] = {}
    for name, nid in graph.outputs.items():
        if nid in consts:
            output_refs[name] = consts[nid]
        else:
            output_refs[name] = slot_of[nid]

    return CompiledTape(
        instructions=instructions,
        num_slots=num_slots,
        peak_live=peak_live,
        input_slots=input_slots,
        input_widths={
            name: graph.node(nid).width
            for name, nid in graph.inputs.items()
        },
        input_cipher={
            name: graph.node(nid).op is IrOp.INPUT_CT
            for name, nid in graph.inputs.items()
        },
        output_refs=output_refs,
        profile=profile,
        variant=variant,
        encrypted_model=encrypted_model,
        width=width,
        batch_shape=batch_shape,
        model_fingerprint=model_fingerprint,
        fused=fuse,
    )


def _make_abstract(graph: IrGraph, node, consts) -> _AbstractInstr:
    """Map one unfused graph node to its abstract instruction."""
    nid = node.node_id
    args = node.args
    arg_nodes = [graph.node(a) for a in args]
    statically_cipher = all(
        n.is_cipher or n.op is IrOp.CONST_PT for n in arg_nodes
    )
    if node.op is IrOp.ADD and node.is_cipher and statically_cipher:
        return _AbstractInstr(OP_ADD, nid, list(args))
    if node.op is IrOp.MULTIPLY and node.is_cipher and statically_cipher:
        return _AbstractInstr(OP_MUL, nid, list(args))
    if node.op in (IrOp.CONST_ADD, IrOp.CONST_MULT) and node.is_cipher:
        value, const = args
        if graph.node(const).op is IrOp.CONST_PT and graph.node(value).is_cipher:
            opcode = OP_CADD if node.op is IrOp.CONST_ADD else OP_CMUL
            return _AbstractInstr(opcode, nid, [value], consts[const])
    if node.op is IrOp.ROTATE and node.is_cipher:
        return _AbstractInstr(OP_ROT, nid, [args[0]], node.attr[0])
    if node.op is IrOp.EXTEND:
        return _AbstractInstr(OP_EXT, nid, [args[0]], node.attr[0])
    if node.op is IrOp.TRUNCATE:
        return _AbstractInstr(OP_TRUNC, nid, [args[0]], node.attr[0])
    # No lowering mixes a plaintext input into ciphertext arithmetic
    # (model constants are CONST_PT), so the tape has no opcode for it.
    raise CompileError(f"cannot compile IR op {node.op!r} to a tape")


def _concretize(ins: _AbstractInstr, dest, slot_of, frees) -> Tuple:
    """Resolve an abstract instruction's node ids to register slots."""
    if ins.opcode == OP_FUSED:
        terms = tuple(
            (
                amount,
                slot_of[src],
                slot_of[operand] if isinstance(operand, int) else operand,
            )
            for amount, src, operand in ins.terms
        )
        return (OP_FUSED, dest, FusedSpec(terms, ins.attr), None, frees)
    if ins.opcode in (OP_ADD, OP_MUL):
        return (
            ins.opcode, dest, slot_of[ins.refs[0]], slot_of[ins.refs[1]],
            frees,
        )
    return (ins.opcode, dest, slot_of[ins.refs[0]], ins.attr, frees)
