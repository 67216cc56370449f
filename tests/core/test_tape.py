"""Locks for the compiled tape executor (`repro.ir.tape`).

Covers the tape tier's specific risks: register reuse must never let an
aliased slot corrupt a live ciphertext, the peak-live-slot accounting
must be exact, the rotation scheduler must strictly reduce rotation
work on the batched lowering without changing bits, fused kernels must
be observationally identical to their de-fused expansion (bits, noise,
tracker counts), and a tape must refuse — fail closed — a model bundle
it was not compiled for.
"""

import numpy as np
import pytest

from repro.errors import CompileError, RuntimeProtocolError
from repro.core.compiler import CopseCompiler
from repro.core.runtime import (
    CopseServer,
    DataOwner,
    ModelOwner,
    secure_inference,
)
from repro.fhe.ciphertext import PlainVector
from repro.fhe.context import FheContext
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import OpKind
from repro.forest.synthetic import random_forest
from repro.ir import (
    IrBuilder,
    analyze_counts,
    execute,
    lower_batched_inference,
    lower_inference,
    optimize,
    schedule_rotations,
)
from repro.ir.nodes import IrOp
from repro.ir.tape import OP_FUSED, compile_tape


PARAMS = EncryptionParams.paper_defaults()


def small_forest(seed=7, branches=(4, 5), depth=3):
    return random_forest(
        np.random.default_rng(seed),
        branches_per_tree=list(branches),
        max_depth=depth,
        n_features=2,
        precision=4,
    )


def small_compiled(seed=7):
    return CopseCompiler(precision=4).compile(small_forest(seed))


class _Layout:
    """Duck-typed batch layout for lowering tests."""

    def __init__(self, stride, capacity):
        self.stride = stride
        self.capacity = capacity


def random_gather_graph(rng, width=12, rows=9, shifts=6, stride=16, blocks=3):
    """A builder graph shaped like the batched masked gathers: XOR trees
    of masked rotations of one input, combined with a second input."""
    b = IrBuilder()
    total = stride * blocks
    v = b.input_ct("v", total)
    u = b.input_ct("u", total)
    outs = []
    for shift in range(shifts):
        terms = []
        for m in range(1 + (rows - 1 + shift) // width):
            rotated = b.rotate(v, shift - m * width)
            mask = np.zeros(total, dtype=np.uint8)
            mask[rng.integers(0, 2, total).astype(bool)] = 1
            terms.append(b.and_(rotated, b.const(mask)))
        gathered = b.xor_all(terms) if len(terms) > 1 else terms[0]
        outs.append(b.and_(u, gathered))
    b.output("out", b.xor_all(outs))
    return b.build()


def run_graph(graph, ctx, bindings):
    return execute(graph, ctx, bindings, phase=None)["out"]


def bindings_for(graph, ctx, keys, rng):
    out = {}
    for name, nid in graph.inputs.items():
        width = graph.node(nid).width
        bits = rng.integers(0, 2, width)
        out[name] = ctx.encrypt(bits, keys.public)
    return out


class TestScheduleRotations:
    def test_reduces_rotations_preserves_bits(self):
        rng = np.random.default_rng(11)
        graph = optimize(random_gather_graph(rng))
        scheduled = optimize(schedule_rotations(graph))
        before = analyze_counts(graph).get(IrOp.ROTATE, 0)
        after = analyze_counts(scheduled).get(IrOp.ROTATE, 0)
        assert after < before

        ctx = FheContext(PARAMS)
        keys = ctx.keygen()
        for seed in range(3):
            b = bindings_for(graph, ctx, keys, np.random.default_rng(seed))
            got = ctx.decrypt_bits(run_graph(scheduled, ctx, b), keys.secret)
            want = ctx.decrypt_bits(run_graph(graph, ctx, b), keys.secret)
            assert got == want

    def test_batched_lowering_strictly_below_plan(self):
        """The acceptance bar: the tape's scheduled rotation count is
        strictly below the optimized plan's on a batched lowering."""
        compiled = small_compiled()
        layout = _Layout(stride=16, capacity=4)
        plan = lower_batched_inference(compiled, layout)
        tape = plan.compile_tape()
        assert tape.rotations < plan.optimized.rotations
        assert tape.profile.depth == plan.optimized.depth

    def test_noop_on_gather_free_graphs(self):
        """Single-query lowerings have no masked gathers: the scheduler
        must leave their rotation counts unchanged."""
        plan = lower_inference(small_compiled())
        tape = plan.compile_tape()
        assert tape.rotations == plan.optimized.rotations


class TestMixedOperandsAreRefused:
    """No lowering mixes a plaintext *input* into ciphertext arithmetic
    (model constants are ``CONST_PT``), so the tape has no opcode for
    it: a hand-built graph that does is refused at compile time, by
    name, for each op the old fallback took."""

    @pytest.mark.parametrize("combine", [
        lambda b, x, p: b.xor(x, p),
        lambda b, x, p: b.and_(x, p),
        lambda b, x, p: b.and_(p, x),
        lambda b, x, p: b.rotate(p, 1),
    ], ids=["xor", "and", "and-plain-first", "rotate-plain"])
    def test_a_plain_input_in_cipher_arithmetic(self, combine):
        b = IrBuilder()
        x, p = b.input_ct("x", 4), b.input_pt("p", 4)
        b.output("out", combine(b, x, p))
        with pytest.raises(CompileError, match="cannot compile IR op"):
            compile_tape(b.build(), schedule=False, fuse=False)
        with pytest.raises(CompileError, match="cannot compile IR op"):
            compile_tape(b.build())


class TestRegisterAllocation:
    def test_slots_reused(self):
        plan = lower_inference(small_compiled())
        tape = plan.compile_tape()
        # Without reuse every instruction (plus every input) would need
        # its own slot.
        lower_bound = tape.num_instructions + len(tape.input_slots)
        assert tape.num_slots < lower_bound
        assert tape.peak_live <= lower_bound

    def test_peak_live_matches_bruteforce(self):
        """The compile-time peak-live metric equals a brute-force count
        of simultaneously live ciphertext values over the graph."""
        rng = np.random.default_rng(3)
        graph = optimize(random_gather_graph(rng))
        tape = compile_tape(graph, schedule=False, fuse=False)

        # Brute force: one value per non-const node; a value is live
        # from its definition until its last use (outputs to the end).
        order = [
            n.node_id for n in graph.nodes if n.op is not IrOp.CONST_PT
        ]
        position = {nid: i for i, nid in enumerate(order)}
        last = {}
        for node in graph.nodes:
            for a in node.args:
                if a in position:
                    last[a] = max(last.get(a, -1), position[node.node_id])
        for nid in graph.outputs.values():
            last[nid] = len(order)
        inputs = {
            n.node_id
            for n in graph.nodes
            if n.op in (IrOp.INPUT_CT, IrOp.INPUT_PT)
        }
        peak = 0
        live = set(inputs)
        for nid in order:
            if nid in inputs:
                continue
            live.add(nid)
            peak = max(peak, len(live))
            live = {v for v in live if last.get(v, -1) > position[nid]}
        peak = max(peak, len(inputs))
        assert tape.peak_live == peak

    def test_aliased_slots_never_corrupt_live_values(self):
        """A long-lived value crossing many short-lived ones must come
        through unscathed even though its neighbors' slots are recycled
        many times over."""
        b = IrBuilder()
        width = 8
        keep = b.input_ct("keep", width)
        churn = b.input_ct("churn", width)
        acc = churn
        for i in range(1, 40):
            acc = b.xor(b.rotate(acc, i % (width - 1) + 1), churn)
        # ``keep`` is consumed only at the very end: if any recycled slot
        # aliased it, the XOR below would expose the corruption.
        b.output("out", b.xor(acc, keep))
        graph = b.build()
        tape = compile_tape(graph)
        assert tape.num_slots < graph.num_nodes

        ctx = FheContext(PARAMS)
        keys = ctx.keygen()
        rng = np.random.default_rng(5)
        bindings = bindings_for(graph, ctx, keys, rng)
        got = ctx.decrypt_bits(
            tape.execute(ctx, bindings)["out"], keys.secret
        )
        want = ctx.decrypt_bits(
            execute(graph, ctx, bindings, phase=None)["out"], keys.secret
        )
        assert got == want

    def test_tape_matches_graph_executor_on_random_graphs(self):
        ctx = FheContext(PARAMS)
        keys = ctx.keygen()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            graph = optimize(random_gather_graph(rng))
            tape = compile_tape(graph)
            bindings = bindings_for(graph, ctx, keys, rng)
            got = ctx.decrypt_bits(
                tape.execute(ctx, bindings)["out"], keys.secret
            )
            want = ctx.decrypt_bits(
                execute(graph, ctx, bindings, phase=None)["out"], keys.secret
            )
            assert got == want


class TestFusedKernels:
    def test_fused_and_defused_are_byte_identical_on_vector(self):
        """Same tape, fused vs fuse=False, on the vector backend: same
        bits, same noise state, same per-phase tracker counts."""
        compiled = small_compiled()
        layout = _Layout(stride=16, capacity=4)
        plan = lower_batched_inference(compiled, layout)
        fused_tape = plan.compile_tape()
        plain_tape = plan.compile_tape(fuse=False)
        assert any(i[0] == OP_FUSED for i in fused_tape.instructions)
        assert not any(i[0] == OP_FUSED for i in plain_tape.instructions)

        from repro.serve.batched_runtime import build_batched_model

        outs = {}
        counts = {}
        depths = {}
        for name, tape in (("fused", fused_tape), ("defused", plain_tape)):
            ctx = FheContext(PARAMS, backend="vector")
            keys = ctx.keygen()
            model = build_batched_model(
                ctx, compiled, layout, public_key=keys.public
            )
            q = _encrypt_block_query(ctx, compiled, layout, keys)
            result = tape.run(ctx, model, q)
            outs[name] = ctx.decrypt_bits(result, keys.secret)
            counts[name] = {
                k.value: v
                for k, v in ctx.tracker.phase_stats(
                    "tape_inference"
                ).counts.items()
            }
            depths[name] = ctx.tracker.multiplicative_depth()
            noise = result._noise
            outs[name + "/noise"] = (noise.level, round(noise.slack, 9))
        assert outs["fused"] == outs["defused"]
        assert outs["fused/noise"] == outs["defused/noise"]
        assert counts["fused"] == counts["defused"]
        assert depths["fused"] == depths["defused"]

    def test_reference_defused_equals_vector_fused(self):
        compiled = small_compiled()
        layout = _Layout(stride=16, capacity=4)
        tape = lower_batched_inference(compiled, layout).compile_tape()
        from repro.serve.batched_runtime import build_batched_model

        bits = {}
        for backend in ("reference", "vector"):
            ctx = FheContext(PARAMS, backend=backend)
            keys = ctx.keygen()
            model = build_batched_model(
                ctx, compiled, layout, public_key=keys.public
            )
            q = _encrypt_block_query(ctx, compiled, layout, keys)
            bits[backend] = ctx.decrypt_bits(
                tape.run(ctx, model, q), keys.secret
            )
        assert bits["reference"] == bits["vector"]

    def test_fused_key_mismatch_raises_like_defused(self):
        """Terms under different keys must fail identically whether the
        accumulation runs fused (vector) or de-fused: same error type,
        same message (the de-fused balanced fold's first bad pair)."""
        from repro.errors import KeyMismatchError

        b = IrBuilder()
        width = 8
        inputs = [b.input_ct(name, width) for name in "pqrs"]
        b.output(
            "out",
            b.xor(
                b.and_(inputs[0], inputs[1]), b.and_(inputs[2], inputs[3])
            ),
        )
        graph = b.build()
        fused_tape = compile_tape(graph)
        assert any(i[0] == OP_FUSED for i in fused_tape.instructions)
        plain_tape = compile_tape(graph, fuse=False)

        messages = {}
        for label, tape in (("fused", fused_tape), ("defused", plain_tape)):
            ctx = FheContext(PARAMS, backend="vector")
            keys_one = ctx.keygen()
            keys_two = ctx.keygen()
            bits = np.ones(width, dtype=np.uint8)
            bindings = {
                "p": ctx.encrypt(bits, keys_one.public),
                "q": ctx.encrypt(bits, keys_one.public),
                "r": ctx.encrypt(bits, keys_two.public),
                "s": ctx.encrypt(bits, keys_two.public),
            }
            with pytest.raises(KeyMismatchError) as err:
                tape.execute(ctx, bindings)
            # Key ids are per-keygen; normalize them out of the message.
            messages[label] = (
                str(err.value)
                .replace(str(keys_one.public.key_id), "K1")
                .replace(str(keys_two.public.key_id), "K2")
            )
        assert messages["fused"] == messages["defused"]

    def test_fused_ops_capability_surface(self):
        """fused_ops is an optional capability: present on vector (with
        its native tracker), absent on reference and plaintext."""
        assert FheContext(PARAMS, backend="reference").fused_ops is None
        assert FheContext(PARAMS, backend="plaintext").fused_ops is None
        vec = FheContext(PARAMS, backend="vector")
        assert vec.fused_ops is not None
        # A vector context on a caller-supplied DAG tracker cannot bulk
        # record: it must fall back to the de-fused path.
        from repro.fhe.tracker import OpTracker
        from repro.fhe.vector import VectorFheContext

        dag = VectorFheContext(PARAMS, tracker=OpTracker())
        assert dag.fused_ops is None


class TestTapeEngine:
    def test_secure_inference_tape_engine(self):
        compiled = small_compiled()
        forest = small_forest()
        features = [3, 12]
        outcome = secure_inference(compiled, features, engine="tape")
        assert outcome.result.bitvector == forest.label_bitvector(features)
        assert "tape_inference" in outcome.tracker.phases

    def test_plan_engine_with_prebuilt_tape_still_lowers_a_plan(self):
        """Passing a prebuilt tape alongside engine='plan' must not
        suppress the documented on-demand plan lowering."""
        compiled = small_compiled()
        forest = small_forest()
        features = [3, 12]
        tape = lower_inference(compiled).compile_tape()
        outcome = secure_inference(
            compiled, features, engine="plan", tape=tape
        )
        assert outcome.result.bitvector == forest.label_bitvector(features)
        assert "plan_inference" in outcome.tracker.phases

    def test_tape_engine_does_less_rotation_work_than_plan(self):
        compiled = small_compiled()
        layout = _Layout(stride=16, capacity=4)
        plan = lower_batched_inference(compiled, layout)
        tape = plan.compile_tape()
        from repro.serve.batched_runtime import build_batched_model

        rots = {}
        for name, runner in (("plan", plan), ("tape", tape)):
            ctx = FheContext(PARAMS, backend="vector")
            keys = ctx.keygen()
            model = build_batched_model(
                ctx, compiled, layout, public_key=keys.public
            )
            q = _encrypt_block_query(ctx, compiled, layout, keys)
            runner.run(ctx, model, q)
            phase = "plan_inference" if name == "plan" else "tape_inference"
            rots[name] = ctx.tracker.phase_stats(phase).counts.get(
                OpKind.ROTATE, 0
            )
        assert rots["tape"] < rots["plan"]
        assert rots["tape"] == tape.rotations

    def test_batched_tape_refused_by_single_query_server(self):
        compiled = small_compiled()
        tape = lower_batched_inference(
            compiled, _Layout(16, 4)
        ).compile_tape()
        ctx = FheContext(PARAMS)
        server = CopseServer(ctx, engine="tape", tape=tape)
        keys = ctx.keygen()
        maurice = ModelOwner(compiled)
        diane = DataOwner(maurice.query_spec(), keys)
        query = diane.prepare_query(ctx, [1, 2])
        model = maurice.encrypt_model(ctx, keys.public)
        with pytest.raises(RuntimeProtocolError, match="batched tape"):
            server.classify(model, query)

    def test_missing_tape_rejected(self):
        ctx = FheContext(PARAMS)
        compiled = small_compiled()
        server = CopseServer(ctx, engine="tape")
        keys = ctx.keygen()
        maurice = ModelOwner(compiled)
        diane = DataOwner(maurice.query_spec(), keys)
        query = diane.prepare_query(ctx, [1, 2])
        model = maurice.encrypt_model(ctx, keys.public)
        with pytest.raises(RuntimeProtocolError, match="CompiledTape"):
            server.classify(model, query)


class TestFingerprintFailClosed:
    @pytest.mark.parametrize("encrypted_model", [True, False])
    def test_tape_refuses_foreign_model(self, encrypted_model):
        """A tape compiled for model A must refuse a shape-identical
        model B — byte-identically to the plan's refusal."""
        compiled_a = small_compiled(seed=7)
        compiled_b = small_compiled(seed=8)
        assert compiled_a.fingerprint() != compiled_b.fingerprint()
        plan_a = lower_inference(compiled_a, encrypted_model=encrypted_model)
        tape_a = plan_a.compile_tape()
        assert tape_a.model_fingerprint == compiled_a.fingerprint()

        ctx = FheContext(PARAMS)
        keys = ctx.keygen()
        maurice_b = ModelOwner(compiled_b)
        query = DataOwner(maurice_b.query_spec(), keys).prepare_query(
            ctx, [1, 2]
        )
        model_b = (
            maurice_b.encrypt_model(ctx, keys.public)
            if encrypted_model
            else maurice_b.plaintext_model(ctx)
        )
        server = CopseServer(ctx, engine="tape", tape=tape_a)
        with pytest.raises(RuntimeProtocolError) as tape_err:
            server.classify(model_b, query)
        plan_server = CopseServer(ctx, engine="plan", plan=plan_a)
        with pytest.raises(RuntimeProtocolError) as plan_err:
            plan_server.classify(model_b, query)
        assert str(tape_err.value) == str(plan_err.value)

        # The right model still classifies correctly.
        maurice_a = ModelOwner(compiled_a)
        query_a = DataOwner(maurice_a.query_spec(), keys).prepare_query(
            ctx, [1, 2]
        )
        model_a = (
            maurice_a.encrypt_model(ctx, keys.public)
            if encrypted_model
            else maurice_a.plaintext_model(ctx)
        )
        result = server.classify(model_a, query_a)
        expected = small_forest(seed=7).label_bitvector([1, 2])
        assert ctx.decrypt_bits(result, keys.secret) == expected


def _encrypt_block_query(ctx, compiled, layout, keys):
    """Encrypt one batch worth of identical queries, replicated per
    block, without the full serve packing helpers (layout is the
    minimal duck-typed shape)."""
    from repro.core.runtime import EncryptedQuery
    from repro.fhe.simd import replicate, to_bitplanes

    rng = np.random.default_rng(21)
    total = layout.stride * layout.capacity
    planes = []
    per_query = []
    for _ in range(layout.capacity):
        features = [
            int(v)
            for v in rng.integers(0, 1 << compiled.precision, 2)
        ]
        replicated = replicate(features, compiled.max_multiplicity)
        per_query.append(to_bitplanes(replicated, compiled.precision))
    for plane_idx in range(compiled.precision):
        packed = np.zeros(total, dtype=np.uint8)
        for k, planes_k in enumerate(per_query):
            row = planes_k[plane_idx]
            packed[k * layout.stride: k * layout.stride + row.size] = row
        planes.append(ctx.encrypt(packed, keys.public))
    return EncryptedQuery(planes=planes, public_key=keys.public)
