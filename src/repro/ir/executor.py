"""IR execution against any FHE backend.

``execute`` walks a graph in topological order, mapping each node to the
corresponding :class:`~repro.fhe.backend.FheBackend` operation — the
context is consumed purely through the protocol surface (``encode`` /
``xor_any`` / ``and_any`` / ``rotate_any`` / ``cyclic_extend`` /
``truncate``), so plans run identically on the reference simulator, the
vector backend, or any registered engine, and every cost and noise
effect is accounted by that backend exactly as in the direct runtime
path.  Inputs are bound by name; outputs come back as a name-to-vector
dictionary.  The walk is not profiled: per-instruction attribution is
the compiled tape's (:class:`~repro.obs.profiler.TapeProfiler`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import CompileError, RuntimeProtocolError, ValidationError
from repro.fhe.backend import FheBackend
from repro.fhe.ciphertext import Ciphertext, PlainVector
from repro.fhe.context import Vector
from repro.ir.nodes import IrGraph, IrOp, const_bits


def tile_plain_extend(arr: np.ndarray, length: int, source: str) -> np.ndarray:
    """Cyclically tile a plaintext bit array out to ``length`` slots.

    The one shared EXTEND-tiling kernel for every engine — the graph
    executor, the compiled tape, and the megakernel all call this, so a
    degenerate operand fails identically everywhere.  A zero-length
    plain operand has no cyclic extension (the ceil-division tiling
    would divide by zero), so it raises
    :class:`~repro.errors.ValidationError` naming the input and its
    width instead of leaking a bare ``ZeroDivisionError``.
    """
    if arr.size == 0:
        raise ValidationError(
            f"cannot EXTEND {source} to {length} slots: the plain "
            f"operand has width 0, and a zero-length vector has no "
            f"cyclic extension"
        )
    reps = -(-length // arr.size)
    return np.tile(arr, reps)[:length]


def execute(
    graph: IrGraph,
    ctx: FheBackend,
    bindings: Dict[str, Vector],
    phase: Optional[str] = None,
) -> Dict[str, Vector]:
    """Run ``graph`` with the given input bindings.

    Every named input must be bound; ciphertext inputs must be bound to
    ciphertexts of the declared width (plaintext inputs to plain
    vectors).  When ``phase`` is given, all operations are recorded under
    that tracker phase.
    """
    missing = set(graph.inputs) - set(bindings)
    if missing:
        raise RuntimeProtocolError(
            f"unbound IR inputs: {sorted(missing)}"
        )

    if phase is not None:
        with ctx.tracker.phase(phase):
            return _run(graph, ctx, bindings)
    return _run(graph, ctx, bindings)


def _run(graph: IrGraph, ctx: FheBackend, bindings) -> Dict[str, Vector]:
    values: List[Optional[Vector]] = [None] * graph.num_nodes
    # Plaintext constants are immutable and identical across executions,
    # so each graph encodes them once and reuses the PlainVectors on
    # every subsequent run (plans execute per batch, graphs are shared).
    consts: Dict[int, PlainVector] = graph._const_cache

    for node in graph.nodes:
        if node.op is IrOp.INPUT_CT:
            value = bindings[node.attr[0]]
            if not isinstance(value, Ciphertext):
                raise RuntimeProtocolError(
                    f"input {node.attr[0]!r} must be a ciphertext"
                )
            if value.length != node.width:
                raise RuntimeProtocolError(
                    f"input {node.attr[0]!r} has width {value.length}, "
                    f"declared {node.width}"
                )
            values[node.node_id] = value
        elif node.op is IrOp.INPUT_PT:
            value = bindings[node.attr[0]]
            if not isinstance(value, PlainVector):
                raise RuntimeProtocolError(
                    f"input {node.attr[0]!r} must be a plaintext vector"
                )
            if value.length != node.width:
                raise RuntimeProtocolError(
                    f"input {node.attr[0]!r} has width {value.length}, "
                    f"declared {node.width}"
                )
            values[node.node_id] = value
        elif node.op is IrOp.CONST_PT:
            value = consts.get(node.node_id)
            if value is None:
                value = ctx.encode(const_bits(node))
                consts[node.node_id] = value
            values[node.node_id] = value
        elif node.op in (IrOp.ADD, IrOp.CONST_ADD):
            a, b = (values[i] for i in node.args)
            values[node.node_id] = ctx.xor_any(a, b)
        elif node.op in (IrOp.MULTIPLY, IrOp.CONST_MULT):
            a, b = (values[i] for i in node.args)
            values[node.node_id] = ctx.and_any(a, b)
        elif node.op is IrOp.ROTATE:
            values[node.node_id] = ctx.rotate_any(
                values[node.args[0]], node.attr[0]
            )
        elif node.op is IrOp.EXTEND:
            source = values[node.args[0]]
            if isinstance(source, Ciphertext):
                values[node.node_id] = ctx.cyclic_extend(source, node.attr[0])
            else:
                values[node.node_id] = PlainVector(
                    tile_plain_extend(
                        source.to_array(), node.attr[0],
                        f"IR node {node.args[0]}",
                    )
                )
        elif node.op is IrOp.TRUNCATE:
            source = values[node.args[0]]
            if isinstance(source, Ciphertext):
                values[node.node_id] = ctx.truncate(source, node.attr[0])
            else:
                values[node.node_id] = PlainVector(
                    source.to_array()[: node.attr[0]]
                )
        else:  # pragma: no cover - enum is closed
            raise CompileError(f"unknown IR op {node.op!r}")

    return {
        name: values[node_id] for name, node_id in graph.outputs.items()
    }
