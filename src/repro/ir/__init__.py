"""An encrypted-vector-arithmetic IR with an optimizer.

The paper's conclusion names this as the next step: "implementing
COPSE's primitives not in terms of low-level FHE libraries like HElib
but instead in terms of higher-level FHE-based intermediate languages,
like EVA, allowing for further tuning and optimization."

This subpackage is that layer, scaled to the simulator — and since the
plan-compiled execution path it is the layer the *live* inference
pipeline runs through: :mod:`repro.ir.plan` lowers a compiled model
(single-query or batched) into an :class:`~repro.ir.plan.InferencePlan`
that :class:`~repro.core.runtime.CopseServer` and the serve registry
execute with ``engine="plan"`` (the serve default is ``"tape"``, below):

* :mod:`repro.ir.nodes` — a small SSA graph over packed vectors: inputs
  (ciphertext or plaintext), constants, XOR/AND (with constant-operand
  forms), rotation, cyclic extension, truncation;
* :mod:`repro.ir.builder` — graph construction with the same combinator
  vocabulary as :class:`~repro.fhe.context.FheContext`, folding
  plaintext-only operations, sharing equal nodes and fusing rotation
  chains at build time, and tallying the naive emission's profile;
* :mod:`repro.ir.passes` — the optimizer: rotation fusion, common
  subexpression elimination, dead-code elimination, plus op-count and
  multiplicative-depth analyses;
* :mod:`repro.ir.executor` — runs a graph against a context and input
  bindings (all costs land in the context's tracker as usual);
* :mod:`repro.ir.copse_ir` — stages a compiled COPSE model into one
  inference graph;
* :mod:`repro.ir.plan` — :func:`lower_inference` /
  :func:`lower_batched_inference` wrap the lowered-and-optimized graph,
  its input-binding spec, and raw-vs-optimized analyses into a cached,
  executable :class:`InferencePlan`;
* :mod:`repro.ir.tape` — :meth:`InferencePlan.compile_tape` lowers the
  optimized graph one tier further into a :class:`CompiledTape`: a flat
  instruction array with liveness-based register reuse, the
  baby-step/giant-step rotation schedule of
  :func:`~repro.ir.passes.schedule_rotations`, and fused kernels the
  vector backend executes as single numpy passes (``engine="tape"``,
  the serve default).

The headline win (checked in ``tests/bench/test_ablations.py``): the
cyclic extensions of the rotated branch vector are identical across all
``d`` level matrices, and the builder's sharing emits them once, saving
``(d-1) * b`` rotations beyond even the hand-scheduled runtime.
"""

from repro.ir.nodes import IrGraph, IrNode, IrOp
from repro.ir.builder import IrBuilder
from repro.ir.passes import (
    analyze_cost,
    analyze_counts,
    analyze_depth,
    common_subexpression_elimination,
    dead_code_elimination,
    fuse_rotations,
    optimize,
    schedule_rotations,
)
from repro.ir.executor import execute
from repro.ir.copse_ir import build_inference_graph
from repro.ir.plan import (
    GraphProfile,
    InferencePlan,
    build_batched_inference_graph,
    lower_batched_inference,
    lower_inference,
)
from repro.ir.tape import CompiledTape, compile_tape

__all__ = [
    "IrOp",
    "IrNode",
    "IrGraph",
    "IrBuilder",
    "optimize",
    "fuse_rotations",
    "schedule_rotations",
    "common_subexpression_elimination",
    "dead_code_elimination",
    "analyze_cost",
    "analyze_counts",
    "analyze_depth",
    "execute",
    "build_inference_graph",
    "build_batched_inference_graph",
    "GraphProfile",
    "InferencePlan",
    "CompiledTape",
    "compile_tape",
    "lower_inference",
    "lower_batched_inference",
]
