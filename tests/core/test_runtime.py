"""End-to-end tests for the COPSE runtime (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KeyMismatchError, RuntimeProtocolError
from repro.core.compiler import CopseCompiler
from repro.core.runtime import (
    CopseServer,
    DataOwner,
    INFERENCE_PHASES,
    ModelOwner,
    secure_inference,
)
from repro.core.seccomp import VARIANT_ALOUFI, VARIANT_OPTIMIZED
from repro.fhe.context import FheContext
from repro.forest.synthetic import MICROBENCHMARKS, random_forest


class TestOracleAgreement:
    """Secure inference must match plaintext inference bit for bit."""

    @pytest.mark.parametrize("encrypted_model", [True, False])
    def test_example_forest(self, example_forest, encrypted_model):
        compiled = CopseCompiler(precision=8).compile(example_forest)
        rng = np.random.default_rng(0)
        for _ in range(10):
            feats = [int(v) for v in rng.integers(0, 256, 2)]
            outcome = secure_inference(
                compiled, feats, encrypted_model=encrypted_model
            )
            assert outcome.result.bitvector == example_forest.label_bitvector(
                feats
            )
            assert outcome.result.chosen_labels == (
                example_forest.classify_per_tree(feats)
            )

    @pytest.mark.parametrize(
        "variant", [VARIANT_ALOUFI, VARIANT_OPTIMIZED]
    )
    def test_both_seccomp_variants(self, example_forest, variant):
        compiled = CopseCompiler(precision=8).compile(example_forest)
        outcome = secure_inference(
            compiled, [100, 30], seccomp_variant=variant
        )
        assert outcome.result.bitvector == example_forest.label_bitvector(
            [100, 30]
        )

    @pytest.mark.parametrize("spec", MICROBENCHMARKS, ids=lambda s: s.name)
    def test_all_microbenchmarks(self, spec):
        forest = spec.build()
        compiled = CopseCompiler(precision=spec.precision).compile(forest)
        rng = np.random.default_rng(99)
        limit = 1 << spec.precision
        for _ in range(3):
            feats = [int(v) for v in rng.integers(0, limit, 2)]
            outcome = secure_inference(compiled, feats)
            assert outcome.result.bitvector == forest.label_bitvector(feats)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_forests_random_inputs(self, forest_seed, query_seed):
        forest = random_forest(
            np.random.default_rng(forest_seed),
            branches_per_tree=[5, 6],
            max_depth=4,
            n_features=3,
        )
        compiled = CopseCompiler(precision=8).compile(forest)
        feats = [
            int(v)
            for v in np.random.default_rng(query_seed).integers(0, 256, 3)
        ]
        outcome = secure_inference(compiled, feats)
        assert outcome.result.bitvector == forest.label_bitvector(feats)

    def test_boundary_feature_values(self, example_forest):
        compiled = CopseCompiler(precision=8).compile(example_forest)
        for feats in ([0, 0], [255, 255], [0, 255], [255, 0], [120, 120]):
            outcome = secure_inference(compiled, feats)
            assert outcome.result.bitvector == example_forest.label_bitvector(
                feats
            )


class TestResultDecoding:
    def test_n_hot_and_plurality(self, example_forest):
        compiled = CopseCompiler(precision=8).compile(example_forest)
        outcome = secure_inference(compiled, [10, 10])
        result = outcome.result
        assert sum(result.bitvector) == example_forest.n_trees
        assert len(result.chosen_slots) == example_forest.n_trees
        assert result.plurality() in result.chosen_labels
        assert result.plurality_name() == (
            example_forest.label_names[result.plurality()]
        )

    def test_empty_result_raises(self):
        from repro.core.runtime import InferenceResult

        empty = InferenceResult(bitvector=[0, 0], codebook=[0, 1], label_names=["a", "b"])
        with pytest.raises(RuntimeProtocolError):
            empty.plurality()


class TestProtocolErrors:
    def test_wrong_arity_query(self, compiled_example, ctx):
        keys = ctx.keygen()
        maurice = ModelOwner(compiled_example)
        diane = DataOwner(maurice.query_spec(), keys)
        with pytest.raises(RuntimeProtocolError, match="features"):
            diane.prepare_query(ctx, [1, 2, 3])

    def test_feature_exceeds_precision(self, compiled_example, ctx):
        keys = ctx.keygen()
        maurice = ModelOwner(compiled_example)
        diane = DataOwner(maurice.query_spec(), keys)
        with pytest.raises(RuntimeProtocolError, match="bits"):
            diane.prepare_query(ctx, [256, 0])

    def test_sally_cannot_decrypt(self, compiled_example, ctx):
        keys = ctx.keygen()
        maurice = ModelOwner(compiled_example)
        diane = DataOwner(maurice.query_spec(), keys)
        sally = CopseServer(ctx)
        enc_model = maurice.encrypt_model(ctx, keys.public)
        query = diane.prepare_query(ctx, [10, 10])
        result = sally.classify(enc_model, query)
        sally_keys = ctx.keygen()  # Sally's own key cannot decrypt
        with pytest.raises(KeyMismatchError):
            ctx.decrypt(result, sally_keys.secret)

    def test_precision_mismatch_detected(self, example_forest, ctx):
        compiled8 = CopseCompiler(precision=8).compile(example_forest)
        compiled9 = CopseCompiler(precision=9).compile(example_forest)
        keys = ctx.keygen()
        diane = DataOwner(ModelOwner(compiled9).query_spec(), keys)
        query = diane.prepare_query(ctx, [10, 10])
        enc_model = ModelOwner(compiled8).encrypt_model(ctx, keys.public)
        with pytest.raises(RuntimeProtocolError, match="precision"):
            CopseServer(ctx).classify(enc_model, query)

    def test_aloufi_variant_needs_public_key(self, compiled_example, ctx):
        keys = ctx.keygen()
        maurice = ModelOwner(compiled_example)
        diane = DataOwner(maurice.query_spec(), keys)
        enc_model = maurice.encrypt_model(ctx, keys.public)
        query = diane.prepare_query(ctx, [10, 10])
        query.public_key = None
        with pytest.raises(RuntimeProtocolError, match="public key"):
            CopseServer(ctx, seccomp_variant=VARIANT_ALOUFI).classify(
                enc_model, query
            )


class TestPhasesAndLeakageSurface:
    def test_inference_phases_recorded(self, compiled_example):
        outcome = secure_inference(compiled_example, [10, 10])
        for phase in INFERENCE_PHASES:
            if phase == "bootstrap":
                continue  # only present when auto-bootstrap fires
            assert phase in outcome.tracker.phases

    def test_encrypted_model_structure(self, compiled_example, ctx):
        keys = ctx.keygen()
        enc = ModelOwner(compiled_example).encrypt_model(ctx, keys.public)
        assert enc.is_encrypted
        assert len(enc.threshold_planes) == compiled_example.precision
        assert len(enc.reshuffle_diagonals) == (
            compiled_example.quantized_branching
        )
        assert len(enc.level_diagonals) == compiled_example.max_depth
        assert all(
            len(diags) == compiled_example.branching
            for diags in enc.level_diagonals
        )
        assert len(enc.level_masks) == compiled_example.max_depth

    def test_plaintext_model_structure(self, compiled_example, ctx):
        enc = ModelOwner(compiled_example).plaintext_model(ctx)
        assert not enc.is_encrypted

    def test_query_spec_reveals_only_k(self, compiled_example):
        spec = ModelOwner(compiled_example).query_spec()
        assert spec.max_multiplicity == compiled_example.max_multiplicity
        # The spec carries no thresholds and no tree structure.
        assert not hasattr(spec, "threshold_planes")
        assert not hasattr(spec, "reshuffle")


class TestPlanAgainstEager:
    """The plan engine emits each level's cyclic extension once where
    the eager runtime recomputes it, so per query it rotates less and
    costs less, with both answers oracle-exact."""

    @pytest.mark.parametrize("workload_name", ["depth4", "width78", "prec8"])
    def test_plan_does_less_rotation_work_than_eager(self, workload_name):
        from repro.bench_harness.workloads import workload_by_name
        from repro.core.engines import engine_row
        from repro.fhe.costmodel import CostModel
        from repro.fhe.params import EncryptionParams
        from repro.fhe.tracker import OpKind

        workload = workload_by_name(workload_name)
        (features,) = workload.query_features(1)
        cost_model = CostModel(EncryptionParams.paper_defaults())
        rotations, ms = {}, {}
        for engine in ("eager", "plan"):
            outcome = secure_inference(
                workload.compiled, features, engine=engine
            )
            assert outcome.result.bitvector == (
                workload.forest.label_bitvector(features)
            )
            phases = engine_row(engine).phases
            rotations[engine] = sum(
                outcome.tracker.phase_stats(p).counts.get(OpKind.ROTATE, 0)
                for p in phases
            )
            ms[engine] = cost_model.sequential_ms(
                outcome.tracker, phases=phases
            )
        assert 0 < rotations["plan"] < rotations["eager"]
        assert ms["plan"] < ms["eager"]


class TestNoiseBudget:
    def test_deep_circuit_fails_on_small_params(self, example_forest):
        from repro.errors import CompileError
        from repro.fhe.params import EncryptionParams

        compiled = CopseCompiler(precision=16).compile(example_forest)
        tiny = EncryptionParams(bits=200)
        with pytest.raises(CompileError, match="depth"):
            secure_inference(compiled, [10, 10], params=tiny)

    def test_result_decryptable_at_paper_params(self, example_forest):
        compiled = CopseCompiler(precision=16).compile(example_forest)
        outcome = secure_inference(compiled, [10, 10])
        assert outcome.result.bitvector == example_forest.label_bitvector(
            [10, 10]
        )
