"""Graph construction with context-like combinators.

The builder mirrors :class:`~repro.fhe.context.FheContext`'s vocabulary
(xor / and / rotate / extend / truncate / xor_all / and_all) but produces
IR nodes instead of executing.  Plaintext-only arithmetic is folded at
build time — a plaintext constant XOR a plaintext constant is just
another constant — so ADD/MULTIPLY nodes always involve a ciphertext.

Emission is shared: every combinator hash-conses its node on
``(op, args, attr)``, so asking twice for the same value returns the
node emitted the first time, and a rotation of a rotation is one
rotation.  A finished build is therefore already what common
subexpression elimination and rotation fusion would make of it; only
dead code can remain.  :meth:`IrGraph.add` stays bare, for graphs that
need duplicates.

The builder also *tallies* what it was asked for, hits included:
:meth:`IrBuilder.emitted` is the node count, ciphertext op counts and
multiplicative depth the build would have had with one node per
combinator call (a repeat has its first emission's depth).  That is the
"naive" profile a plan reports as ``raw``, read without building the
naive graph.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.errors import CompileError
from repro.fhe.backend import fold_balanced
from repro.ir.nodes import (
    COUNTED_OPS,
    IrGraph,
    IrNode,
    IrOp,
    const_bits,
    pack_const,
    roll_payload,
)


class IrBuilder:
    """Builds an :class:`IrGraph` through shared combinator calls."""

    def __init__(self) -> None:
        self.graph = IrGraph()
        #: (op, args, attr) -> the node emitted for it.  Equal constants
        #: are one node, so they share one payload object too.
        self._shared: Dict[tuple, int] = {}
        #: node id -> multiplicative depth.
        self._depths: List[int] = []
        #: :meth:`replay` memo: key -> (node, tally delta of its emission).
        self._replays: Dict[Hashable, Tuple[int, int, Dict[IrOp, int]]] = {}
        # The emission tally (see :meth:`emitted`).
        self._emitted_nodes = 0
        self._emitted_counts: Dict[IrOp, int] = {}
        self._max_depth = 0

    # ------------------------------------------------------------------
    # Shared emission
    # ------------------------------------------------------------------

    def _emit(self, op: IrOp, args: tuple, attr, width: int,
              is_cipher: bool, like: IrNode = None) -> int:
        """The node for ``(op, args, attr)``: the one already emitted, or
        a new one — ``like`` itself when that node would be its copy.
        Every call is tallied."""
        self._emitted_nodes += 1
        if is_cipher and op in COUNTED_OPS:
            counts = self._emitted_counts
            counts[op] = counts.get(op, 0) + 1
        key = (op, args, attr)
        node_id = self._shared.get(key)
        if node_id is not None:
            return node_id
        nodes = self.graph.nodes
        node_id = len(nodes)
        if like is None or like.node_id != node_id or like.args != args:
            like = IrNode(node_id, op, args, attr, width, is_cipher)
        nodes.append(like)
        self._shared[key] = node_id
        depths = self._depths
        if len(depths) < node_id:
            self._catch_up(node_id)
        depth = 0
        for a in args:
            if depths[a] > depth:
                depth = depths[a]
        if op is IrOp.MULTIPLY:
            depth += 1
            if depth > self._max_depth:
                self._max_depth = depth
        depths.append(depth)
        return node_id

    def _catch_up(self, end: int) -> None:
        """Depths of nodes added through bare :meth:`IrGraph.add`."""
        nodes, depths = self.graph.nodes, self._depths
        for node in nodes[len(depths):end]:
            depth = max((depths[a] for a in node.args), default=0)
            depths.append(depth + (node.op is IrOp.MULTIPLY))

    def emitted(self) -> Tuple[int, Dict[IrOp, int], int]:
        """``(nodes, ciphertext op counts, depth)`` of every emission so
        far, shared or not: the profile of the same calls made against a
        graph that never shares."""
        return (
            self._emitted_nodes, dict(self._emitted_counts), self._max_depth
        )

    def replay(self, key: Hashable, emit: Callable[[], int]) -> int:
        """``emit()`` once per ``key``; a repeat returns the first
        emission's node and tallies what that emission tallied.

        For whole sub-programs the caller knows to be identical (same
        key, same node): the hash-consing would return the same node, but
        not before re-making every call.
        """
        hit = self._replays.get(key)
        if hit is not None:
            node_id, nodes, counts = hit
            self._emitted_nodes += nodes
            emitted = self._emitted_counts
            for op, n in counts.items():
                emitted[op] = emitted.get(op, 0) + n
            return node_id
        nodes_before = self._emitted_nodes
        counts_before = dict(self._emitted_counts)
        node_id = emit()
        delta = {
            op: n - counts_before.get(op, 0)
            for op, n in self._emitted_counts.items()
            if n != counts_before.get(op, 0)
        }
        self._replays[key] = (
            node_id, self._emitted_nodes - nodes_before, delta
        )
        return node_id

    def copy(self, node: IrNode, args: tuple) -> int:
        """Re-emit ``node`` over ``args`` (its arguments, already
        re-emitted here), shared and rotation-fused like any combinator.
        Binding names are the caller's: nothing is marked."""
        if node.op is IrOp.ROTATE:
            return self.rotate(args[0], node.attr[0])
        return self._emit(
            node.op, args, node.attr, node.width, node.is_cipher, node
        )

    # ------------------------------------------------------------------
    # Inputs and constants
    # ------------------------------------------------------------------

    def input_ct(self, name: str, width: int) -> int:
        node_id = self._emit(IrOp.INPUT_CT, (), (name,), width, True)
        self.graph.mark_input(name, node_id)
        return node_id

    def input_pt(self, name: str, width: int) -> int:
        node_id = self._emit(IrOp.INPUT_PT, (), (name,), width, False)
        self.graph.mark_input(name, node_id)
        return node_id

    def const(self, bits) -> int:
        return self.const_packed(pack_const(bits))

    def const_packed(self, payload: bytes) -> int:
        """A constant from a payload :func:`~repro.ir.nodes.pack_const`
        already validated (emitters that reuse one mask many times)."""
        return self._emit(IrOp.CONST_PT, (), payload, len(payload), False)

    def ones(self, width: int) -> int:
        return self.const(np.ones(width, dtype=np.uint8))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _width(self, node_id: int) -> int:
        if not 0 <= node_id < len(self.graph.nodes):  # every combinator asks
            raise CompileError(f"IR node {node_id} out of range")
        return self.graph.nodes[node_id].width

    def _check_widths(self, a: int, b: int) -> int:
        wa, wb = self._width(a), self._width(b)
        if wa != wb:
            raise CompileError(
                f"IR width mismatch: {wa} vs {wb} "
                f"(nodes {a} and {b})"
            )
        return wa

    def _const_bits(self, node_id: int):
        node = self.graph.node(node_id)
        if node.op is not IrOp.CONST_PT:
            return None
        return const_bits(node)

    def xor(self, a: int, b: int) -> int:
        width = self._check_widths(a, b)
        na, nb = self.graph.node(a), self.graph.node(b)
        if na.op is IrOp.CONST_PT and nb.op is IrOp.CONST_PT:
            return self.const(np.bitwise_xor(const_bits(na), const_bits(nb)))
        if na.is_cipher and nb.is_cipher:
            return self._emit(IrOp.ADD, _ordered(a, b), (), width, True)
        if na.is_cipher:
            return self._emit(IrOp.CONST_ADD, (a, b), (), width, True)
        if nb.is_cipher:
            return self._emit(IrOp.CONST_ADD, (b, a), (), width, True)
        # plaintext inputs (not constants): still a plaintext value.
        return self._emit(IrOp.CONST_ADD, (a, b), (), width, False)

    def and_(self, a: int, b: int) -> int:
        width = self._check_widths(a, b)
        na, nb = self.graph.node(a), self.graph.node(b)
        if na.op is IrOp.CONST_PT and nb.op is IrOp.CONST_PT:
            return self.const(np.bitwise_and(const_bits(na), const_bits(nb)))
        if na.is_cipher and nb.is_cipher:
            return self._emit(IrOp.MULTIPLY, _ordered(a, b), (), width, True)
        if na.is_cipher:
            return self._emit(IrOp.CONST_MULT, (a, b), (), width, True)
        if nb.is_cipher:
            return self._emit(IrOp.CONST_MULT, (b, a), (), width, True)
        return self._emit(IrOp.CONST_MULT, (a, b), (), width, False)

    def negate(self, a: int) -> int:
        return self.xor(a, self.ones(self._width(a)))

    def rotate(self, a: int, amount: int) -> int:
        width = self._width(a)
        amount %= width
        if amount == 0:
            return a
        node = self.graph.node(a)
        # Build-time fusion: rotating a rotation is one rotation.
        if node.op is IrOp.ROTATE:
            inner_amount = node.attr[0]
            return self.rotate(node.args[0], inner_amount + amount)
        if node.op is IrOp.CONST_PT:
            return self.const_packed(roll_payload(node.attr, -amount))
        return self._emit(IrOp.ROTATE, (a,), (amount,), width, node.is_cipher)

    def extend(self, a: int, length: int) -> int:
        width = self._width(a)
        if length == width:
            return a
        if length < width:
            raise CompileError(
                f"extend target {length} shorter than width {width}"
            )
        ca = self._const_bits(a)
        if ca is not None:
            reps = -(-length // width)
            return self.const(np.tile(ca, reps)[:length])
        node = self.graph.node(a)
        return self._emit(
            IrOp.EXTEND, (a,), (length,), length, node.is_cipher
        )

    def truncate(self, a: int, length: int) -> int:
        width = self._width(a)
        if length == width:
            return a
        if length > width:
            raise CompileError(
                f"truncate target {length} longer than width {width}"
            )
        ca = self._const_bits(a)
        if ca is not None:
            return self.const(ca[:length])
        node = self.graph.node(a)
        return self._emit(
            IrOp.TRUNCATE, (a,), (length,), length, node.is_cipher
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def xor_all(self, items: Sequence[int]) -> int:
        return self._reduce(items, self.xor)

    def and_all(self, items: Sequence[int]) -> int:
        return self._reduce(items, self.and_)

    def _reduce(self, items: Sequence[int], combine) -> int:
        if not items:
            raise CompileError("cannot reduce an empty list")
        return fold_balanced(items, combine)

    # ------------------------------------------------------------------

    def output(self, name: str, node_id: int) -> None:
        self.graph.mark_output(name, node_id)

    def build(self) -> IrGraph:
        from repro.ir.nodes import validate_graph

        validate_graph(self.graph)
        return self.graph


def _ordered(a: int, b: int):
    """Canonical argument order for commutative ops (one key per pair)."""
    return (a, b) if a <= b else (b, a)
