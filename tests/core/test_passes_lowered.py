"""Optimizer-pass properties on *lowered* graphs, not hand-built toys.

The pass pipeline became load-bearing with the plan-compiled execution
path, so its contract is pinned on the graphs it actually optimizes:
full single-query and batched inference lowerings of compiled models,
emitted naively (one node per combinator call, through the suite's
:class:`~tests.conftest.BareBuilder`) so CSE and rotation fusion have
real work to do.

Properties: ``optimize`` reaches a fixed point within its iteration
budget, is idempotent (a second run changes nothing), never increases
multiplicative depth (or analyzed cost), and preserves executor output
bit-for-bit on randomized inputs.  Staging itself shares and fuses at
emission: its lowering needs dead code elimination alone, its tallied
raw profile is the naive graph's, and it computes the naive graph's
bits.  The constant payload is held to its accessors.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CopseCompiler,
    FheContext,
    IrBuilder,
    analyze_cost,
    analyze_depth,
    common_subexpression_elimination,
    dead_code_elimination,
    execute,
    fuse_rotations,
    lower_batched_inference,
    lower_inference,
    optimize,
    schedule_rotations,
)
from repro.errors import DomainError
from repro.core.runtime import DataOwner, ModelOwner
from repro.fhe.costmodel import CostModel
from repro.fhe.params import EncryptionParams
from repro.forest.synthetic import random_forest
from repro.ir.copse_ir import OUTPUT_LABELS, build_inference_graph
from repro.ir.nodes import IrOp, const_bits, pack_const, roll_payload
from repro.ir.plan import GraphProfile, build_batched_inference_graph
from repro.serve import plan_layout
from repro.serve.batched_runtime import encrypt_batch
from tests.conftest import bare_emission

PRECISION = 6


@pytest.fixture(scope="module")
def compiled():
    forest = random_forest(
        np.random.default_rng(3),
        branches_per_tree=[5, 7],
        max_depth=4,
        n_features=3,
        precision=PRECISION,
    )
    compiled = CopseCompiler(precision=PRECISION).compile(forest)
    return forest, compiled


@pytest.fixture(scope="module")
def layout(compiled):
    _, model = compiled
    return plan_layout(
        model, EncryptionParams.paper_defaults(), max_batch_size=3
    )


def lowered_graphs(compiled, layout):
    """Every live lowering shape (single/batched x encrypted/plaintext),
    emitted naively: one node per combinator call."""
    with bare_emission():
        return shared_graphs(compiled, layout)


def shared_graphs(compiled, layout):
    """The same shapes as staging emits them: shared and fused."""
    _, model = compiled
    return {
        "single/enc": build_inference_graph(model, encrypted_model=True),
        "single/plain": build_inference_graph(model, encrypted_model=False),
        "batched/enc": build_batched_inference_graph(
            model, layout, encrypted_model=True
        ),
        "batched/plain": build_batched_inference_graph(
            model, layout, encrypted_model=False
        ),
    }


def graph_signature(graph):
    """Structural identity: node keys in order, plus the interface."""
    return (
        [(n.op, n.args, n.attr, n.width, n.is_cipher) for n in graph.nodes],
        dict(graph.inputs),
        dict(graph.outputs),
    )


def reference_optimize(graph):
    """``optimize``'s specification: the three individually tested
    passes, iterated until the graph stops changing."""
    current = graph
    for _ in range(8):
        nxt = dead_code_elimination(
            common_subexpression_elimination(fuse_rotations(current))
        )
        if graph_signature(nxt) == graph_signature(current):
            return nxt
        current = nxt
    raise AssertionError("reference pipeline did not converge")


class TestSweepMatchesReference:
    """A sweep is one fuse -> CSE -> DCE round; ``optimize`` repeats it
    and finishes where the composed reference passes do."""

    def test_unmoved_nodes_are_reused(self, compiled, layout):
        """DCE returns a graph with nothing dead as is, and otherwise
        keeps every node whose id did not move."""
        for name, raw in lowered_graphs(compiled, layout).items():
            pruned = dead_code_elimination(raw)
            assert dead_code_elimination(pruned) is pruned, name
            kept = sum(1 for n in pruned.nodes if raw.node(n.node_id) is n)
            assert kept > 0, name
            for node in pruned.nodes:  # reuse never smuggles in a stale id
                assert pruned.node(node.node_id) is node, name

    def test_rotation_chains_and_zero_rotations(self):
        b = IrBuilder()
        x = b.input_ct("x", 8)
        g = b.graph
        # Hand-built (the builder would fuse these itself).
        r3 = g.add(IrOp.ROTATE, (x,), attr=(3,), width=8)
        r5 = g.add(IrOp.ROTATE, (r3,), attr=(5,), width=8)   # == x
        r2 = g.add(IrOp.ROTATE, (r3,), attr=(7,), width=8)   # rot(x, 2)
        dup = g.add(IrOp.ROTATE, (x,), attr=(10,), width=8)  # rot(x, 2)
        b.output("same", b.xor(r5, r2))
        b.output("dup", dup)
        graph = b.build()
        opt = optimize(graph)
        assert graph_signature(opt) == graph_signature(
            reference_optimize(graph)
        )
        assert [n.op for n in opt.nodes] == [
            IrOp.INPUT_CT, IrOp.ROTATE, IrOp.ADD
        ]
        assert opt.node(1).attr == (2,)
        assert opt.outputs == {"same": 2, "dup": 1}


BITS = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


class TestSharedEmission:
    """A lowering is shared and fused as it is emitted: staging finishes
    it with dead code elimination alone, and its raw profile is the
    builder's tally rather than a graph."""

    def test_dce_is_the_whole_optimizer_on_lowered_graphs(
        self, compiled, layout
    ):
        for name, built in shared_graphs(compiled, layout).items():
            assert graph_signature(
                dead_code_elimination(built)
            ) == graph_signature(reference_optimize(built)), name

    def test_scheduled_tape_graph_needs_only_dce(self, compiled, layout):
        """The scheduler's re-emission shares and fuses as it goes."""
        for name, built in shared_graphs(compiled, layout).items():
            scheduled = schedule_rotations(dead_code_elimination(built))
            assert graph_signature(
                dead_code_elimination(scheduled)
            ) == graph_signature(optimize(scheduled)), name

    def test_unoptimized_plan_profiles_the_graph_it_returns(
        self, compiled, layout
    ):
        _, model = compiled
        pairs = [
            (lower_inference(model, optimize_graph=False),
             lower_inference(model)),
            (lower_batched_inference(model, layout, optimize_graph=False),
             lower_batched_inference(model, layout)),
        ]
        for bare, optimized in pairs:
            assert bare.optimized == GraphProfile.of(bare.graph)
            assert bare.raw == optimized.raw
            # Shared at emission: fewer nodes than the naive tally.
            assert bare.optimized.num_nodes < bare.raw.num_nodes
            assert optimized.optimized.num_nodes <= bare.optimized.num_nodes

    def test_shared_lowering_is_the_naive_lowering_shared(
        self, compiled, layout
    ):
        """The replay-memoized, hash-consed emission tallies exactly the
        naive graph's profile and optimizes to the same profile."""
        _, model = compiled
        lowerings = [(lower_inference, ()), (lower_batched_inference, (layout,))]
        for encrypted in (True, False):
            for lower, args in lowerings:
                kwargs = dict(encrypted_model=encrypted, optimize_graph=False)
                shared = lower(model, *args, **kwargs)
                with bare_emission():
                    naive = lower(model, *args, **kwargs).graph
                assert shared.raw == GraphProfile.of(naive)
                assert GraphProfile.of(
                    dead_code_elimination(shared.graph)
                ) == GraphProfile.of(optimize(naive))


class TestConstantPayload:
    """CONST_PT payloads are touched only through ``repro.ir.nodes``."""

    @given(bits=BITS, shift=st.integers(min_value=-200, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, bits, shift):
        b = IrBuilder()
        node = b.graph.node(b.const(bits))
        assert node.op is IrOp.CONST_PT and node.width == len(bits)
        assert node.attr == pack_const(bits)
        view = const_bits(node)
        assert view.dtype == np.uint8 and not view.flags.writeable
        assert view.tolist() == bits
        assert np.frombuffer(
            roll_payload(node.attr, shift), dtype=np.uint8
        ).tolist() == np.roll(bits, shift).tolist()
        # The builder's rotation convention is the context's: left.
        rolled = b.graph.node(b.rotate(node.node_id, shift))
        assert const_bits(rolled).tolist() == np.roll(bits, -shift).tolist()

    @given(bits=BITS)
    @settings(max_examples=30, deadline=None)
    def test_equal_bits_share_one_payload_per_graph(self, bits):
        b = IrBuilder()
        first = b.const(bits)
        again = b.const(np.array(bits, dtype=np.uint8))
        folded = b.xor(first, b.const([0] * len(bits)))
        nodes = [b.graph.node(i) for i in (first, again, folded)]
        assert first == again == folded  # one node per value
        assert nodes[0].attr is nodes[1].attr is nodes[2].attr

    @pytest.mark.parametrize(
        "bad", [[], [0, 2, 1], [-1], [0.0, 1.0], [[0, 1]], np.zeros((2, 2))]
    )
    def test_domain_errors_still_raised(self, bad):
        with pytest.raises(DomainError):
            IrBuilder().const(bad)
        with pytest.raises(DomainError):
            pack_const(bad)


class TestPickledPlans:
    """What the cluster ships: a reloaded plan/tape is the same program,
    and running a plan leaves nothing behind in its pickle."""

    def _session(self, compiled, layout):
        from repro.serve.batched_runtime import build_batched_model

        forest, model = compiled
        rng = np.random.default_rng(11)
        queries = [
            [int(v) for v in rng.integers(0, 1 << PRECISION, 3)]
            for _ in range(layout.capacity)
        ]

        def run(program):
            ctx = FheContext()
            keys = ctx.keygen()
            batched = build_batched_model(
                ctx, model, layout, public_key=keys.public
            )
            query = encrypt_batch(ctx, layout, queries, keys)
            out = program.run(ctx, batched, query)
            return (
                ctx.decrypt_bits(out, keys.secret),
                ctx.tracker.total_counts(),
                ctx.tracker.multiplicative_depth(),
                out.noise,
            )

        return run

    def test_reloaded_plan_and_tape_are_the_same_program(
        self, compiled, layout
    ):
        _, model = compiled
        run = self._session(compiled, layout)
        plan = lower_batched_inference(model, layout)
        for program in (plan, plan.compile_tape()):
            clone = pickle.loads(
                pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
            )
            assert run(clone) == run(program), type(program).__name__
        clone = pickle.loads(pickle.dumps(plan))
        assert graph_signature(clone.graph) == graph_signature(plan.graph)

    def test_running_a_plan_does_not_grow_its_pickle(self, compiled, layout):
        """Bugfix lock: the executor's encoded-constant cache used to
        ride along in ``IrGraph.__dict__``, so a plan that had run once
        shipped every constant twice."""
        _, model = compiled
        plan = lower_batched_inference(model, layout)
        before = len(pickle.dumps(plan))
        self._session(compiled, layout)(plan)
        assert plan.graph._const_cache  # the run did fill the cache
        assert len(pickle.dumps(plan)) == before
        assert pickle.loads(pickle.dumps(plan)).graph._const_cache == {}


class TestFixedPoint:
    def test_optimize_reaches_fixed_point_and_is_idempotent(
        self, compiled, layout
    ):
        for name, raw in lowered_graphs(compiled, layout).items():
            once = optimize(raw)
            twice = optimize(once)
            assert graph_signature(twice) == graph_signature(once), name
            # A fixed point of every individual pass, too: one more
            # whole-pipeline sweep at max_iterations=1 must be identity.
            assert graph_signature(optimize(once, max_iterations=1)) == (
                graph_signature(once)
            ), name

    def test_optimize_never_increases_depth_or_cost(self, compiled, layout):
        cost_model = CostModel(EncryptionParams.paper_defaults())
        for name, raw in lowered_graphs(compiled, layout).items():
            opt = optimize(raw)
            assert analyze_depth(opt) <= analyze_depth(raw), name
            assert analyze_cost(opt, cost_model) <= analyze_cost(
                raw, cost_model
            ), name
            assert opt.num_nodes <= raw.num_nodes, name

    def test_optimize_preserves_interface(self, compiled, layout):
        for name, raw in lowered_graphs(compiled, layout).items():
            opt = optimize(raw)
            assert set(opt.inputs) == set(raw.inputs), name
            assert set(opt.outputs) == set(raw.outputs), name


@pytest.fixture(scope="module")
def naive_plans(compiled, layout):
    """Single-query and batched plans of the naive emission."""
    _, model = compiled
    with bare_emission():
        return (
            lower_inference(model, optimize_graph=False),
            lower_batched_inference(model, layout, optimize_graph=False),
        )


class TestSemanticPreservation:
    @given(st.lists(
        st.integers(min_value=0, max_value=(1 << PRECISION) - 1),
        min_size=3, max_size=3,
    ))
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_single_query_lowering(
        self, compiled, layout, naive_plans, features
    ):
        """The naive lowering and the staged one (shared at emission,
        then DCE) compute identical bits (and match the oracle) on
        randomized feature vectors."""
        forest, model = compiled
        plan_raw = naive_plans[0]
        plan_opt = lower_inference(model)

        ctx = FheContext()
        keys = ctx.keygen()
        maurice = ModelOwner(model)
        query = DataOwner(maurice.query_spec(), keys).prepare_query(
            ctx, features
        )
        enc_model = maurice.encrypt_model(ctx, keys.public)

        bindings = plan_raw.bindings_for(ctx, enc_model, query)
        raw_out = execute(plan_raw.graph, ctx, bindings)[OUTPUT_LABELS]
        opt_out = execute(plan_opt.graph, ctx, dict(bindings))[OUTPUT_LABELS]

        raw_bits = ctx.decrypt_bits(raw_out, keys.secret)
        opt_bits = ctx.decrypt_bits(opt_out, keys.secret)
        assert raw_bits == opt_bits == forest.label_bitvector(features)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_batched_lowering(
        self, compiled, layout, naive_plans, query_seed
    ):
        """The naive batched lowering and the staged one (its gathers
        replayed, its nodes shared) agree slot-for-slot."""
        forest, model = compiled
        plan_raw = naive_plans[1]
        plan_opt = lower_batched_inference(model, layout)

        rng = np.random.default_rng(query_seed)
        queries = [
            [int(v) for v in rng.integers(0, 1 << PRECISION, 3)]
            for _ in range(layout.capacity)
        ]

        ctx = FheContext()
        keys = ctx.keygen()
        from repro.serve.batched_runtime import build_batched_model

        batched_model = build_batched_model(
            ctx, model, layout, public_key=keys.public
        )
        query = encrypt_batch(ctx, layout, queries, keys)

        bindings = plan_raw.bindings_for(ctx, batched_model, query)
        raw_out = execute(plan_raw.graph, ctx, bindings)[OUTPUT_LABELS]
        opt_out = execute(plan_opt.graph, ctx, dict(bindings))[OUTPUT_LABELS]
        assert ctx.decrypt_bits(raw_out, keys.secret) == ctx.decrypt_bits(
            opt_out, keys.secret
        )

        from repro.serve.packing import demux_bitvectors

        demuxed = demux_bitvectors(
            layout,
            ctx.decrypt_bits(opt_out, keys.secret),
            len(queries),
        )
        assert demuxed == [forest.label_bitvector(q) for q in queries]
