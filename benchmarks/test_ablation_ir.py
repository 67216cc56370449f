"""Ablation: the EVA-style IR optimizer vs the hand-scheduled runtime.

The paper's stated future work is lowering COPSE onto an optimizing FHE
IR.  This benchmark measures what that buys on our substrate: the IR
builder's shared emission finds that the cyclic extensions of the
rotated branch vector are the same across all ``d`` level matrices —
something the hand-written runtime recomputes — cutting the rotation
count below even the paper's ``q + d*b``.
"""

import pytest

from repro.bench_harness.runner import InferenceRunner, RunnerConfig, SYSTEM_COPSE
from repro.fhe.costmodel import CostModel
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import OpKind
from repro.ir import (
    build_inference_graph,
    ir_secure_inference,
    lower_inference,
    optimize,
)
from repro.ir.nodes import IrOp

from benchmarks.conftest import workload


@pytest.mark.parametrize("name", ["width78", "depth6"])
def test_ablation_ir_vs_runtime(benchmark, name, report_sink):
    w = workload(name)
    compiled = w.compiled
    feats = w.query_features(1)[0]

    graph = optimize(build_inference_graph(compiled))

    def run():
        return ir_secure_inference(compiled, feats, graph=graph)

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcome.result.bitvector == w.forest.label_bitvector(feats)

    # Direct runtime for comparison.
    runtime_record = InferenceRunner(
        w, RunnerConfig(system=SYSTEM_COPSE, queries=1)
    ).run()

    cost_model = CostModel(EncryptionParams.paper_defaults())
    ir_rotations = outcome.tracker.phase_stats("ir_inference").counts.get(
        OpKind.ROTATE, 0
    )
    runtime_rotations = runtime_record.op_counts.get("rotate", 0)
    ir_ms = cost_model.phase_sequential_ms(outcome.context.tracker, "ir_inference")

    # The optimizer strictly reduces rotation work, at unchanged depth.
    assert ir_rotations < runtime_rotations
    assert (
        outcome.tracker.multiplicative_depth()
        == runtime_record.multiplicative_depth
    )
    assert ir_ms < runtime_record.median_ms

    benchmark.extra_info["ir_rotations"] = ir_rotations
    benchmark.extra_info["runtime_rotations"] = runtime_rotations
    benchmark.extra_info["ir_simulated_ms"] = round(ir_ms, 2)
    benchmark.extra_info["runtime_simulated_ms"] = round(
        runtime_record.median_ms, 2
    )
    report_sink.append(
        f"Ablation IR ({name}): rotations {runtime_rotations} -> "
        f"{ir_rotations}, simulated {runtime_record.median_ms:.1f} -> "
        f"{ir_ms:.1f} ms"
    )


def test_ir_optimizer_statistics(benchmark):
    """Sharing's effect on the naive emission: extensions collapse
    d*b -> b (the plan's raw profile is the builder's tally of one node
    per combinator call)."""
    w = workload("width78")
    compiled = w.compiled

    plan = benchmark.pedantic(
        lower_inference, args=(compiled,), rounds=1, iterations=1
    )
    raw, opt = plan.raw, plan.optimized
    d, b = compiled.max_depth, compiled.branching
    assert raw.count(IrOp.EXTEND) == d * b
    assert opt.count(IrOp.EXTEND) == b
    assert raw.depth == opt.depth
    assert opt.num_nodes < raw.num_nodes
    benchmark.extra_info["raw_nodes"] = raw.num_nodes
    benchmark.extra_info["optimized_nodes"] = opt.num_nodes
