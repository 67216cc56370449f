"""IR node and graph types.

The IR is a flat SSA graph: every node is an operation producing one
packed vector; arguments are node ids of earlier nodes (topological by
construction).  Nodes are immutable records, and their semantic key
``(op, args, attr)`` is exactly what common-subexpression elimination
deduplicates on.

Node kinds:

=============  ==========================================================
INPUT_CT       named ciphertext input (bound at execution time)
INPUT_PT       named plaintext input
CONST_PT       plaintext constant baked into the graph (``attr`` = packed
               payload; see *Constant representation* below)
ADD            ciphertext XOR ciphertext
CONST_ADD      ciphertext XOR plaintext
MULTIPLY       ciphertext AND ciphertext
CONST_MULT     ciphertext AND plaintext
ROTATE         cyclic left rotation (``attr`` = amount)
EXTEND         cyclic extension to a longer width (``attr`` = new width)
TRUNCATE       logical-width restriction (``attr`` = new width)
=============  ==========================================================

``is_cipher`` tracks whether a node's value is encrypted; plaintext-only
arithmetic never appears as ADD/MULTIPLY nodes (the builder folds it).

Constant representation
-----------------------
A ``CONST_PT`` node's ``attr`` is an immutable ``bytes`` payload, one
byte per slot.  CPython hashes it once and caches the hash, compares it
with ``memcmp``, and ``np.frombuffer`` reads it without a copy — a gather
mask is hundreds of slots wide and a lowering emits thousands of them,
so boxing each slot into a Python ``int`` dominated staging.  The
payload is private to this module's three accessors: :func:`pack_const`
validates bits into a payload, :func:`const_bits` views a node's payload
as a read-only ``uint8`` array, :func:`roll_payload` rotates one.
Builder, passes, tape compiler and executor go through them and never
index, iterate or convert ``attr`` of a constant themselves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import CompileError
from repro.fhe.ciphertext import BitsLike, coerce_bits


class IrOp(enum.Enum):
    INPUT_CT = "input_ct"
    INPUT_PT = "input_pt"
    CONST_PT = "const_pt"
    ADD = "add"
    CONST_ADD = "const_add"
    MULTIPLY = "multiply"
    CONST_MULT = "const_mult"
    ROTATE = "rotate"
    EXTEND = "extend"
    TRUNCATE = "truncate"

    # Members are singletons compared by identity; hash them by identity
    # too.  ``Enum.__hash__`` is a Python-level call, and every
    # hash-consing key and op-count lookup of staging holds an op.
    __hash__ = object.__hash__


#: Ops whose result is a ciphertext whenever they appear in a graph.
_CIPHER_OPS = {
    IrOp.INPUT_CT,
    IrOp.ADD,
    IrOp.CONST_ADD,
    IrOp.MULTIPLY,
    IrOp.CONST_MULT,
}

#: Ops that count as ciphertext work when their result is encrypted —
#: every op but the bindings, constants, and the free logical-width
#: restriction (TRUNCATE).
COUNTED_OPS = frozenset({
    IrOp.ADD,
    IrOp.CONST_ADD,
    IrOp.MULTIPLY,
    IrOp.CONST_MULT,
    IrOp.ROTATE,
    IrOp.EXTEND,
})


class IrNode:
    """One SSA operation: an immutable slotted record, equal by fields
    (DESIGN.md, "Constant representation and the optimizer").  ``attr``
    is a tuple (input name, rotation amount, target width) — or, for
    CONST_PT, the packed ``bytes`` payload."""

    __slots__ = ("node_id", "op", "args", "attr", "width", "is_cipher")

    def __init__(self, node_id: int, op: IrOp, args: Tuple[int, ...],
                 attr: Union[Tuple, bytes] = (), width: int = 0,
                 is_cipher: bool = True):
        self.node_id, self.op, self.args = node_id, op, args
        self.attr, self.width, self.is_cipher = attr, width, is_cipher

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is IrNode and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return IrNode, self._fields()

    def __repr__(self):
        fields = zip(self.__slots__, self._fields())
        return "IrNode(" + ", ".join(f"{k}={v!r}" for k, v in fields) + ")"

    @property
    def key(self):
        """Semantic identity (everything except the node id)."""
        return (self.op, self.args, self.attr)


@dataclass
class IrGraph:
    """A whole circuit: nodes in topological order plus named outputs."""

    nodes: List[IrNode] = field(default_factory=list)
    outputs: Dict[str, int] = field(default_factory=dict)
    inputs: Dict[str, int] = field(default_factory=dict)
    #: The graph executor's encoded constants (node id -> PlainVector),
    #: filled on the first run.  Derived state: not compared, not pickled.
    _const_cache: Dict[int, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_const_cache"] = {}
        return state

    def node(self, node_id: int) -> IrNode:
        return self.nodes[node_id]

    def add(self, op: IrOp, args, attr=(), width=0, is_cipher=None) -> int:
        for a in args:
            if not 0 <= a < len(self.nodes):
                raise CompileError(f"IR argument {a} out of range")
        if is_cipher is None:
            is_cipher = op in _CIPHER_OPS or any(
                self.nodes[a].is_cipher for a in args
            )
        node = IrNode(
            node_id=len(self.nodes),
            op=op,
            args=tuple(args),
            attr=attr if type(attr) is bytes else tuple(attr),
            width=width,
            is_cipher=is_cipher,
        )
        self.nodes.append(node)
        return node.node_id

    def mark_output(self, name: str, node_id: int) -> None:
        if name in self.outputs:
            raise CompileError(f"duplicate output name {name!r}")
        if not 0 <= node_id < len(self.nodes):
            raise CompileError(f"output {name!r} out of range")
        self.outputs[name] = node_id

    def mark_input(self, name: str, node_id: int) -> None:
        if name in self.inputs:
            raise CompileError(f"duplicate input name {name!r}")
        self.inputs[name] = node_id

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def describe(self) -> str:
        from repro.ir.passes import analyze_counts, analyze_depth

        counts = analyze_counts(self)
        summary = " ".join(f"{k.value}={v}" for k, v in sorted(
            counts.items(), key=lambda kv: kv[0].value))
        return (
            f"ir graph: nodes={self.num_nodes} outputs={len(self.outputs)} "
            f"depth={analyze_depth(self)} [{summary}]"
        )


def pack_const(bits: BitsLike) -> bytes:
    """Validate ``bits`` (non-empty, 1-D, every slot 0 or 1) and pack them
    into a ``CONST_PT`` payload."""
    return coerce_bits(bits).tobytes()


def const_bits(node: IrNode) -> np.ndarray:
    """The slots of ``CONST_PT`` ``node``: a zero-copy, read-only
    ``uint8`` view of its payload."""
    return np.frombuffer(node.attr, dtype=np.uint8)


def roll_payload(payload: bytes, shift: int) -> bytes:
    """``np.roll`` over a payload: slot ``i`` moves to ``i + shift``."""
    shift %= len(payload)
    return payload[-shift:] + payload[:-shift] if shift else payload


def validate_graph(graph: IrGraph) -> None:
    """Structural validation: ids are positions, args name earlier nodes,
    outputs in range, input nodes actually being input ops."""
    for position, node in enumerate(graph.nodes):
        if node.node_id != position:
            raise CompileError(f"node {node.node_id} at position {position}")
        for a in node.args:
            if not 0 <= a < position:
                raise CompileError(f"node {position} references node {a}")
    for name, node_id in graph.outputs.items():
        if not 0 <= node_id < graph.num_nodes:
            raise CompileError(f"output {name!r} out of range")
    for name, node_id in graph.inputs.items():
        op = graph.node(node_id).op
        if op not in (IrOp.INPUT_CT, IrOp.INPUT_PT):
            raise CompileError(
                f"input {name!r} bound to non-input node kind {op.value}"
            )
