"""Tests for the EVA-style IR: builder, passes, executor, COPSE staging.

The IR toolkit is exercised through the *public* package API (``repro``
top-level exports) — since the plan-compiled execution path the IR is a
load-bearing layer, not an internal detail, and these tests pin the
export surface along with the behavior.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CopseCompiler,
    FheContext,
    IrBuilder,
    IrOp,
    analyze_counts,
    analyze_depth,
    build_inference_graph,
    common_subexpression_elimination,
    dead_code_elimination,
    execute,
    fuse_rotations,
    lower_inference,
    optimize,
    secure_inference,
)
from repro.errors import CompileError, RuntimeProtocolError
from repro.core.seccomp import VARIANT_ALOUFI, VARIANT_OPTIMIZED
from repro.forest.synthetic import random_forest
from repro.fhe.ciphertext import PlainVector
from repro.ir.nodes import IrNode, const_bits, validate_graph
from repro.ir.plan import GraphProfile
from tests.conftest import BareBuilder


class TestBuilder:
    def test_plain_constant_folding(self):
        b = IrBuilder()
        c = b.xor(b.const([1, 0, 1]), b.const([1, 1, 0]))
        node = b.graph.node(c)
        assert node.op is IrOp.CONST_PT
        assert const_bits(node).tolist() == [0, 1, 1]

    def test_and_constant_folding(self):
        b = IrBuilder()
        c = b.and_(b.const([1, 0, 1]), b.const([1, 1, 0]))
        assert const_bits(b.graph.node(c)).tolist() == [1, 0, 0]

    def test_rotate_zero_is_identity(self):
        b = IrBuilder()
        x = b.input_ct("x", 4)
        assert b.rotate(x, 0) is x or b.rotate(x, 0) == x
        assert b.rotate(x, 4) == x  # full-width rotation

    def test_rotate_fusion_at_build(self):
        b = IrBuilder()
        x = b.input_ct("x", 8)
        r = b.rotate(b.rotate(x, 3), 2)
        node = b.graph.node(r)
        assert node.op is IrOp.ROTATE
        assert node.attr == (5,)
        assert node.args == (x,)

    def test_rotate_constant_folds(self):
        b = IrBuilder()
        r = b.rotate(b.const([1, 0, 0]), 1)
        assert const_bits(b.graph.node(r)).tolist() == [0, 0, 1]

    def test_width_mismatch_rejected(self):
        b = IrBuilder()
        x = b.input_ct("x", 3)
        y = b.input_ct("y", 4)
        with pytest.raises(CompileError):
            b.xor(x, y)

    def test_extend_truncate_bounds(self):
        b = IrBuilder()
        x = b.input_ct("x", 4)
        with pytest.raises(CompileError):
            b.extend(x, 2)
        with pytest.raises(CompileError):
            b.truncate(x, 6)
        assert b.extend(x, 4) == x
        assert b.truncate(x, 4) == x

    def test_commutative_canonicalization(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        y = b.input_ct("y", 2)
        assert b.graph.node(b.xor(x, y)).args == b.graph.node(b.xor(y, x)).args

    def test_duplicate_names_rejected(self):
        b = IrBuilder()
        b.input_ct("x", 2)
        with pytest.raises(CompileError):
            b.input_ct("x", 2)

    def test_empty_reduce_rejected(self):
        b = IrBuilder()
        with pytest.raises(CompileError):
            b.xor_all([])

    @pytest.mark.parametrize("bad", [-1, -2, 3, 99])
    def test_ids_naming_no_node_rejected(self, bad):
        """A negative id used to wrap around the node list: ``xor(y, -2)``
        built ``ADD(-2, 1)``, a program nobody asked for."""
        b = IrBuilder()
        b.input_ct("x", 4)
        y = b.input_ct("y", 4)
        b.ones(4)
        calls = [
            lambda: b.xor(y, bad), lambda: b.xor(bad, y),
            lambda: b.and_(y, bad), lambda: b.negate(bad),
            lambda: b.rotate(bad, 1), lambda: b.extend(bad, 8),
            lambda: b.truncate(bad, 2), lambda: b.xor_all([y, bad]),
            lambda: b.and_all([bad, y]), lambda: b.output("out", bad),
        ]
        for call in calls:
            with pytest.raises(CompileError):
                call()
        assert b.graph.num_nodes == 3
        assert b.graph.outputs == {}


class TestValidateGraph:
    """``validate_graph`` holds every node to ``0 <= arg < node_id`` and
    ``node_id == position``."""

    def _graph(self):
        b = IrBuilder()
        x = b.input_ct("x", 4)
        b.output("out", b.xor(x, b.input_ct("y", 4)))
        return b.graph

    def test_builder_graphs_validate(self):
        validate_graph(self._graph())

    @pytest.mark.parametrize("args", [(-2, 1), (0, 2), (1, 5)])
    def test_arguments_outside_the_earlier_nodes_rejected(self, args):
        graph = self._graph()
        add = graph.nodes[2]
        graph.nodes[2] = IrNode(2, add.op, args, add.attr, add.width)
        with pytest.raises(CompileError):
            validate_graph(graph)

    def test_ids_that_are_not_positions_rejected(self):
        graph = self._graph()
        x = graph.nodes[0]
        graph.nodes[0] = IrNode(7, x.op, x.args, x.attr, x.width)
        with pytest.raises(CompileError):
            validate_graph(graph)


class TestExecutor:
    def _session(self):
        ctx = FheContext()
        keys = ctx.keygen()
        return ctx, keys

    def test_simple_circuit(self):
        b = IrBuilder()
        x = b.input_ct("x", 4)
        y = b.input_ct("y", 4)
        b.output("xor", b.xor(x, y))
        b.output("and", b.and_(x, y))
        b.output("rot", b.rotate(x, 1))
        graph = b.build()

        ctx, keys = self._session()
        out = execute(
            graph,
            ctx,
            {
                "x": ctx.encrypt([1, 0, 1, 0], keys.public),
                "y": ctx.encrypt([1, 1, 0, 0], keys.public),
            },
        )
        assert ctx.decrypt_bits(out["xor"], keys.secret) == [0, 1, 1, 0]
        assert ctx.decrypt_bits(out["and"], keys.secret) == [1, 0, 0, 0]
        assert ctx.decrypt_bits(out["rot"], keys.secret) == [0, 1, 0, 1]

    def test_plain_inputs_and_constants(self):
        b = IrBuilder()
        x = b.input_ct("x", 3)
        m = b.input_pt("mask", 3)
        b.output("masked", b.and_(x, m))
        b.output("notted", b.negate(x))
        graph = b.build()

        ctx, keys = self._session()
        out = execute(
            graph,
            ctx,
            {
                "x": ctx.encrypt([1, 1, 0], keys.public),
                "mask": ctx.encode([1, 0, 1]),
            },
        )
        assert ctx.decrypt_bits(out["masked"], keys.secret) == [1, 0, 0]
        assert ctx.decrypt_bits(out["notted"], keys.secret) == [0, 0, 1]

    def test_missing_binding_rejected(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        b.output("y", b.negate(x))
        graph = b.build()
        ctx, _ = self._session()
        with pytest.raises(RuntimeProtocolError, match="unbound"):
            execute(graph, ctx, {})

    def test_wrong_binding_type_rejected(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        b.output("y", b.negate(x))
        graph = b.build()
        ctx, keys = self._session()
        with pytest.raises(RuntimeProtocolError, match="ciphertext"):
            execute(graph, ctx, {"x": ctx.encode([1, 0])})

    def test_wrong_binding_width_rejected(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        b.output("y", b.negate(x))
        graph = b.build()
        ctx, keys = self._session()
        with pytest.raises(RuntimeProtocolError, match="width"):
            execute(graph, ctx, {"x": ctx.encrypt([1, 0, 1], keys.public)})


class TestPasses:
    def test_cse_merges_duplicates(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        y = b.input_ct("y", 2)
        # Build the same product twice without builder-level caching.
        p1 = b.graph.add(IrOp.MULTIPLY, (x, y), width=2)
        p2 = b.graph.add(IrOp.MULTIPLY, (x, y), width=2)
        b.output("a", p1)
        b.output("b", p2)
        graph = common_subexpression_elimination(b.build())
        assert graph.outputs["a"] == graph.outputs["b"]
        assert analyze_counts(graph)[IrOp.MULTIPLY] == 1

    def test_cse_keeps_distinct_inputs(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        y = b.input_ct("y", 2)
        b.output("o", b.xor(x, y))
        graph = common_subexpression_elimination(b.build())
        assert len(graph.inputs) == 2

    def test_fuse_rotations_pass(self):
        b = IrBuilder()
        x = b.input_ct("x", 8)
        # Defeat the builder's own fusion by inserting raw nodes.
        r1 = b.graph.add(IrOp.ROTATE, (x,), attr=(3,), width=8)
        r2 = b.graph.add(IrOp.ROTATE, (r1,), attr=(5,), width=8)
        b.output("o", r2)
        graph = dead_code_elimination(fuse_rotations(b.build()))
        # 3 + 5 = 8 = full width: the rotation disappears entirely.
        assert analyze_counts(graph).get(IrOp.ROTATE, 0) == 0
        assert graph.outputs["o"] == graph.inputs["x"]

    def test_dce_removes_unused(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        y = b.input_ct("y", 2)
        b.and_(x, y)  # dead
        b.output("o", b.xor(x, y))
        graph = dead_code_elimination(b.build())
        assert analyze_counts(graph).get(IrOp.MULTIPLY, 0) == 0
        assert analyze_counts(graph)[IrOp.ADD] == 1

    def test_dce_keeps_inputs(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        b.input_ct("unused", 2)
        b.output("o", b.negate(x))
        graph = dead_code_elimination(b.build())
        assert "unused" in graph.inputs

    def test_depth_analysis(self):
        b = IrBuilder()
        x = b.input_ct("x", 2)
        y = b.input_ct("y", 2)
        level1 = b.and_(x, y)
        level2 = b.and_(level1, y)
        b.output("o", b.xor(level2, x))
        assert analyze_depth(b.build()) == 2

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_optimize_preserves_semantics(self, seed):
        """Random circuits compute the same thing before and after the
        optimizer pipeline."""
        rng = np.random.default_rng(seed)
        b = IrBuilder()
        width = 6
        pool = [b.input_ct("x", width), b.input_ct("y", width)]
        pool.append(b.const(rng.integers(0, 2, width)))
        for _ in range(20):
            choice = rng.integers(0, 4)
            a = pool[rng.integers(0, len(pool))]
            c = pool[rng.integers(0, len(pool))]
            if choice == 0:
                pool.append(b.xor(a, c))
            elif choice == 1:
                pool.append(b.and_(a, c))
            elif choice == 2:
                pool.append(b.rotate(a, int(rng.integers(0, width))))
            else:
                pool.append(b.negate(a))
        # XOR with a ciphertext input so the output is always encrypted.
        b.output("o", b.xor(pool[-1], pool[0]))
        graph = b.build()
        optimized = optimize(graph)
        assert optimized.num_nodes <= graph.num_nodes

        ctx = FheContext()
        keys = ctx.keygen()
        bindings = {
            "x": ctx.encrypt(rng.integers(0, 2, width), keys.public),
            "y": ctx.encrypt(rng.integers(0, 2, width), keys.public),
        }
        raw_out = execute(graph, ctx, bindings)["o"]
        opt_out = execute(optimized, ctx, dict(bindings))["o"]
        assert ctx.decrypt_bits(raw_out, keys.secret) == ctx.decrypt_bits(
            opt_out, keys.secret
        )


_STEP = st.tuples(
    st.sampled_from(
        ["xor", "and", "rotate", "negate", "const", "extend", "truncate",
         "gather", "repeat"]
    ),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=15),
)


def _run_program(b, steps, width=4):
    """Interpret ``steps`` on builder ``b``; returns every value made.

    Operands are picked by position in per-width pools, so a shared and
    a bare builder make the same calls; ``repeat`` re-issues an earlier
    call with the same operands.
    """
    pools = {width: [b.input_ct("x", width), b.input_ct("y", width),
                     b.input_pt("p", width)], 2 * width: []}
    made = []
    calls = []

    def call(kind, i, j, amount):
        w = 2 * width if kind == "truncate" or (
            kind in ("xor", "and", "rotate") and amount % 2 and pools[2 * width]
        ) else width
        pool = pools[w]
        if not pool:
            return None
        a, c = pool[i % len(pool)], pool[j % len(pool)]
        if kind == "xor":
            value = b.xor(a, c)
        elif kind == "and":
            value = b.and_(a, c)
        elif kind == "rotate":
            value = b.rotate(a, amount)
        elif kind == "negate":
            value = b.negate(a)
        elif kind == "const":
            value = b.const([(amount >> k) & 1 for k in range(width)])
        elif kind == "extend":
            value = b.extend(a, 2 * width)
        elif kind == "truncate":
            value = b.truncate(a, width)
        else:  # a masked gather, memoized per (vector, amount)
            def emit():
                terms = [
                    b.and_(b.rotate(a, shift), b.const(
                        [int(k % 3 == shift % 3) for k in range(width)]
                    ))
                    for shift in (amount, amount + 1, amount + 3)
                ]
                return b.xor_all(terms)

            value = b.replay(("gather", a, amount), emit)
        pools[b.graph.node(value).width].append(value)
        return value

    for kind, i, j, amount in steps:
        if kind == "repeat":
            if not calls:
                continue
            kind, i, j, amount = calls[i % len(calls)]
        value = call(kind, i, j, amount)
        if value is not None:
            calls.append((kind, i, j, amount))
            made.append(value)
    return made


class TestEmissionTally:
    """The shared builder's tally is the profile of the graph the same
    calls make one node at a time, and the shared graph computes the
    same bits as that one."""

    @given(steps=st.lists(_STEP, min_size=1, max_size=40),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_tally_is_the_bare_profile(self, steps, seed):
        shared, bare = IrBuilder(), BareBuilder()
        made = _run_program(shared, steps)
        made_bare = _run_program(bare, steps)
        assert len(made) == len(made_bare)
        for k, (value, value_bare) in enumerate(zip(made, made_bare)):
            shared.output(f"v{k}", value)
            bare.output(f"v{k}", value_bare)
        graph, bare_graph = shared.build(), bare.build()

        assert GraphProfile.emitted(shared) == GraphProfile.of(bare_graph)
        assert len({n.key for n in graph.nodes}) == graph.num_nodes

        rng = np.random.default_rng(seed)
        ctx = FheContext()
        keys = ctx.keygen()
        bindings = {
            "x": ctx.encrypt(rng.integers(0, 2, 4), keys.public),
            "y": ctx.encrypt(rng.integers(0, 2, 4), keys.public),
            "p": PlainVector(rng.integers(0, 2, 4)),
        }
        got = execute(graph, ctx, dict(bindings))
        want = execute(bare_graph, ctx, dict(bindings))

        def bits(value):
            if isinstance(value, PlainVector):
                return value.bits()
            return ctx.decrypt_bits(value, keys.secret)

        assert {k: bits(v) for k, v in got.items()} == {
            k: bits(v) for k, v in want.items()
        }


class TestCopseIr:
    @pytest.fixture(scope="class")
    def setup(self):
        forest = random_forest(np.random.default_rng(0), [7, 8], max_depth=5)
        compiled = CopseCompiler(precision=8).compile(forest)
        return forest, compiled

    @pytest.mark.parametrize("variant", [VARIANT_ALOUFI, VARIANT_OPTIMIZED])
    @pytest.mark.parametrize("encrypted_model", [True, False])
    def test_matches_direct_runtime(self, setup, variant, encrypted_model):
        forest, compiled = setup
        plan = lower_inference(
            compiled, encrypted_model=encrypted_model, variant=variant
        )
        rng = np.random.default_rng(1)
        for _ in range(3):
            feats = [int(v) for v in rng.integers(0, 256, 2)]
            ir_out = secure_inference(
                compiled,
                feats,
                encrypted_model=encrypted_model,
                seccomp_variant=variant,
                engine="plan",
                plan=plan,
            )
            assert ir_out.result.bitvector == forest.label_bitvector(feats)

    def test_unoptimized_also_correct(self, setup):
        forest, compiled = setup
        plan = lower_inference(compiled, optimize_graph=False)
        out = secure_inference(compiled, [7, 9], engine="plan", plan=plan)
        assert out.result.bitvector == forest.label_bitvector([7, 9])

    def test_optimizer_shares_level_extensions(self, setup):
        """The headline: sharing collapses per-level extensions to one
        set, beating the hand-scheduled runtime by (d-1)*b rotations.
        The naive emission's counts are the plan's raw tally."""
        _, compiled = setup
        raw = build_inference_graph(compiled)
        opt = optimize(raw)
        d, b = compiled.max_depth, compiled.branching
        raw_counts = lower_inference(compiled).raw.counts
        opt_counts = analyze_counts(opt)
        assert raw_counts[IrOp.EXTEND] == d * b
        assert opt_counts[IrOp.EXTEND] == b
        # Rotations shrink strictly; depth is untouched.
        assert opt_counts[IrOp.ROTATE] < raw_counts[IrOp.ROTATE]
        assert analyze_depth(opt) == analyze_depth(raw)

    def test_graph_reuse_across_queries(self, setup):
        forest, compiled = setup
        # The plan executes the full optimizer's graph, not its own.
        plan = dataclasses.replace(
            lower_inference(compiled),
            graph=optimize(build_inference_graph(compiled)),
        )
        for feats in ([1, 2], [200, 100]):
            out = secure_inference(compiled, feats, engine="plan", plan=plan)
            assert out.result.bitvector == forest.label_bitvector(feats)

    def test_domain_checks(self, setup):
        _, compiled = setup
        plan = lower_inference(compiled)
        with pytest.raises(
            RuntimeProtocolError, match="model expects 2 features, got 3"
        ):
            secure_inference(compiled, [1, 2, 3], engine="plan", plan=plan)
        with pytest.raises(
            RuntimeProtocolError,
            match="feature value 999 does not fit in 8 unsigned bits",
        ):
            secure_inference(compiled, [999, 0], engine="plan", plan=plan)
