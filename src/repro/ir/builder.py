"""Graph construction with context-like combinators.

The builder mirrors :class:`~repro.fhe.context.FheContext`'s vocabulary
(xor / and / rotate / extend / truncate / xor_all / and_all) but produces
IR nodes instead of executing.  Plaintext-only arithmetic is folded at
build time — a plaintext constant XOR a plaintext constant is just
another constant — so ADD/MULTIPLY nodes always involve a ciphertext.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import CompileError
from repro.ir.nodes import IrGraph, IrOp, const_bits, pack_const, roll_payload


class IrBuilder:
    """Builds an :class:`IrGraph` through combinator calls."""

    def __init__(self) -> None:
        self.graph = IrGraph()
        # Payload pool: equal constants of one graph share one ``bytes``
        # object, so CSE's key comparison is a pointer check and pickle
        # writes the payload once.
        self._payloads: Dict[bytes, bytes] = {}

    # ------------------------------------------------------------------
    # Inputs and constants
    # ------------------------------------------------------------------

    def input_ct(self, name: str, width: int) -> int:
        node_id = self.graph.add(
            IrOp.INPUT_CT, (), attr=(name,), width=width, is_cipher=True
        )
        self.graph.mark_input(name, node_id)
        return node_id

    def input_pt(self, name: str, width: int) -> int:
        node_id = self.graph.add(
            IrOp.INPUT_PT, (), attr=(name,), width=width, is_cipher=False
        )
        self.graph.mark_input(name, node_id)
        return node_id

    def const(self, bits) -> int:
        return self.const_packed(pack_const(bits))

    def const_packed(self, payload: bytes) -> int:
        """A constant from a payload :func:`~repro.ir.nodes.pack_const`
        already validated (emitters that reuse one mask many times)."""
        payload = self._payloads.setdefault(payload, payload)
        return self.graph.add(
            IrOp.CONST_PT,
            (),
            attr=payload,
            width=len(payload),
            is_cipher=False,
        )

    def ones(self, width: int) -> int:
        return self.const(np.ones(width, dtype=np.uint8))

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _width(self, node_id: int) -> int:
        return self.graph.node(node_id).width

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
            return self.graph.add(IrOp.ADD, _ordered(a, b), width=width)
        if na.is_cipher:
            return self.graph.add(IrOp.CONST_ADD, (a, b), width=width)
        if nb.is_cipher:
            return self.graph.add(IrOp.CONST_ADD, (b, a), width=width)
        # plaintext inputs (not constants): still a plaintext value.
        return self.graph.add(
            IrOp.CONST_ADD, (a, b), width=width, is_cipher=False
        )

    def and_(self, a: int, b: int) -> int:
        width = self._check_widths(a, b)
        na, nb = self.graph.node(a), self.graph.node(b)
        if na.op is IrOp.CONST_PT and nb.op is IrOp.CONST_PT:
            return self.const(np.bitwise_and(const_bits(na), const_bits(nb)))
        if na.is_cipher and nb.is_cipher:
            return self.graph.add(IrOp.MULTIPLY, _ordered(a, b), width=width)
        if na.is_cipher:
            return self.graph.add(IrOp.CONST_MULT, (a, b), width=width)
        if nb.is_cipher:
            return self.graph.add(IrOp.CONST_MULT, (b, a), width=width)
        return self.graph.add(
            IrOp.CONST_MULT, (a, b), width=width, is_cipher=False
        )

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
        return self.graph.add(
            IrOp.ROTATE, (a,), attr=(amount,), width=width,
            is_cipher=node.is_cipher,
        )

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
        return self.graph.add(
            IrOp.EXTEND, (a,), attr=(length,), width=length,
            is_cipher=node.is_cipher,
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
        return self.graph.add(
            IrOp.TRUNCATE, (a,), attr=(length,), width=length,
            is_cipher=node.is_cipher,
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
        layer: List[int] = list(items)
        while len(layer) > 1:
            nxt: List[int] = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(combine(layer[i], layer[i + 1]))
            if len(layer) % 2 == 1:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    # ------------------------------------------------------------------

    def output(self, name: str, node_id: int) -> None:
        self.graph.mark_output(name, node_id)

    def build(self) -> IrGraph:
        from repro.ir.nodes import validate_graph

        validate_graph(self.graph)
        return self.graph


def _ordered(a: int, b: int):
    """Canonical argument order for commutative ops (helps CSE)."""
    return (a, b) if a <= b else (b, a)
