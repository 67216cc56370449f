#!/usr/bin/env python3
"""Lowering COPSE onto the optimizing IR (the paper's future work).

The conclusion of the paper proposes implementing COPSE's primitives on
a higher-level FHE intermediate language (like EVA) "allowing for
further tuning and optimization."  This example stages a compiled model
into one IR graph, runs the optimizer, and shows what it finds: the
cyclic extensions of the rotated branch vector are common subexpressions
across all d level matrices, so CSE shares them — beating even the
hand-scheduled runtime's rotation count.

Run with:  python examples/ir_optimizer.py
"""

import numpy as np

from repro.core.compiler import CopseCompiler
from repro.core.runtime import secure_inference
from repro.forest.synthetic import random_forest
from repro.ir import (
    analyze_counts,
    analyze_depth,
    build_inference_graph,
    lower_inference,
    optimize,
)
from repro.ir.nodes import IrOp


def main() -> None:
    forest = random_forest(np.random.default_rng(12), [7, 8], max_depth=5)
    compiled = CopseCompiler(precision=8).compile(forest)
    print("model:", compiled.describe())

    raw = build_inference_graph(compiled)
    opt = optimize(raw)
    print(f"\nraw graph:       {raw.describe()}")
    print(f"optimized graph: {opt.describe()}")

    raw_counts = analyze_counts(raw)
    opt_counts = analyze_counts(opt)
    d, b = compiled.max_depth, compiled.branching
    print(
        f"\ncyclic extensions: {raw_counts[IrOp.EXTEND]} -> "
        f"{opt_counts[IrOp.EXTEND]} "
        f"(CSE shares one set of {b} across all {d} levels)"
    )
    print(
        f"rotations:         {raw_counts[IrOp.ROTATE]} -> "
        f"{opt_counts[IrOp.ROTATE]}"
    )
    print(
        f"multiplies:        {raw_counts[IrOp.MULTIPLY]} -> "
        f"{opt_counts[IrOp.MULTIPLY]} "
        f"(depth unchanged: {analyze_depth(opt)})"
    )

    # Correctness: IR path == direct runtime == plaintext oracle.  The
    # plan is staged once and executed per query.
    rng = np.random.default_rng(0)
    plan = lower_inference(compiled)
    for _ in range(3):
        feats = [int(v) for v in rng.integers(0, 256, 2)]
        ir_out = secure_inference(compiled, feats, engine="plan", plan=plan)
        direct = secure_inference(compiled, feats)
        oracle = forest.label_bitvector(feats)
        assert ir_out.result.bitvector == direct.result.bitvector == oracle
    print("\nIR path matches the direct runtime and the oracle: OK")


if __name__ == "__main__":
    main()
