"""Tests for the model registry (compile + encrypt exactly once)."""

import pytest

from repro.core.compiler import CopseCompiler
from repro.errors import ValidationError
from repro.fhe.params import EncryptionParams
from repro.serve.registry import ModelRegistry


class TestRegister:
    def test_registers_forest_and_caches_encryption(self, example_forest):
        registry = ModelRegistry()
        reg = registry.register("m", example_forest, precision=8)
        assert reg.batched_model.is_encrypted
        assert reg.setup_ms > 0  # the one-time encryption was charged
        assert reg.batch_capacity > 1
        assert reg.spec.n_features == example_forest.n_features
        assert registry.get("m") is reg
        assert "m" in registry and len(registry) == 1

    def test_accepts_compiled_model_and_keeps_forest(self, example_forest):
        compiled = CopseCompiler(precision=8).compile(example_forest)
        reg = ModelRegistry().register("m", compiled)
        assert reg.forest is example_forest  # via source_forest
        assert reg.compiled is compiled

    def test_rejects_wrong_type_and_empty_name(self, example_forest):
        registry = ModelRegistry()
        with pytest.raises(ValidationError):
            registry.register("m", object())
        with pytest.raises(ValidationError):
            registry.register("", example_forest)

    @pytest.mark.parametrize("precision", [2.5, float("nan"), "8", None])
    def test_ill_typed_precision_is_a_typed_refusal(self, example_forest,
                                                   precision):
        """Regression: a non-integer precision raised a raw
        ``TypeError`` from inside the compiler (an integer out of the
        compiler's range stays its ``CompileError``: test_shapes.py)."""
        registry = ModelRegistry()
        with pytest.raises(ValidationError, match="precision"):
            registry.register("m", example_forest, precision=precision)
        assert "m" not in registry

    def test_duplicate_name_rejected(self, example_forest):
        registry = ModelRegistry()
        registry.register("m", example_forest)
        with pytest.raises(ValidationError):
            registry.register("m", example_forest)

    def test_backend_recorded_and_described(self, example_forest):
        reg = ModelRegistry().register("m", example_forest, backend="vector")
        assert reg.backend == "vector"
        assert "backend vector" in reg.describe()

    def test_backend_defaults_to_process_default(self, example_forest,
                                                 monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert ModelRegistry().register("m", example_forest).backend == (
            "reference"
        )
        monkeypatch.setenv("REPRO_BACKEND", "vector")
        assert ModelRegistry().register("m2", example_forest).backend == (
            "vector"
        )

    def test_unknown_backend_fails_before_compile(self, example_forest):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="unknown FHE backend"):
            ModelRegistry().register("m", example_forest, backend="helib")

    def test_unknown_lookup_names_known_models(self, example_forest):
        registry = ModelRegistry()
        registry.register("known", example_forest)
        with pytest.raises(ValidationError, match="known"):
            registry.get("missing")

    def test_unregister(self, example_forest):
        registry = ModelRegistry()
        registry.register("m", example_forest)
        registry.unregister("m")
        assert "m" not in registry

    def test_plaintext_model_option(self, example_forest):
        reg = ModelRegistry().register(
            "m", example_forest, encrypted_model=False
        )
        assert not reg.batched_model.is_encrypted

    def test_explicit_params_and_batch_cap(self, example_forest):
        params = EncryptionParams(security=128, bits=500, columns=3)
        reg = ModelRegistry().register(
            "m", example_forest, params=params, max_batch_size=2
        )
        assert reg.params == params
        assert reg.batch_capacity == 2

    def test_autoselect_params_feasible(self, example_forest):
        reg = ModelRegistry().register(
            "m", example_forest, autoselect_params=True
        )
        reg.compiled.check_parameters(reg.params)  # must not raise

    @pytest.mark.parametrize("engine", ["eager", "tape", "megakernel"])
    def test_unknown_seccomp_variant_is_refused_before_compiling(
        self, example_forest, engine, monkeypatch
    ):
        """Regression: an ``eager`` registration accepted any variant
        and every batch then failed at evaluation; ``tape`` refused it
        as a ``CompileError`` from lowering.  Every engine refuses it
        here, typed, before the compiler runs."""
        from repro.serve import registry as registry_module

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled a forest it should refuse")

        monkeypatch.setattr(registry_module, "CopseCompiler", no_compile)
        registry = ModelRegistry()
        with pytest.raises(ValidationError, match="unknown SecComp variant"):
            registry.register("m", example_forest, engine=engine,
                              seccomp_variant="bogus")
        assert "m" not in registry


class TestFingerprintParity:
    """A cached plan refuses a different — even shape-identical — model,
    and does so *identically* under every FHE backend: the fail-closed
    check is backend-independent bookkeeping, not simulator behavior."""

    @staticmethod
    def shape_twin(forest):
        """A forest with identical compiled geometry but one different
        threshold — the hardest case for the fingerprint to catch."""
        from dataclasses import replace

        from repro.forest.forest import DecisionForest
        from repro.forest.node import Branch
        from repro.forest.tree import DecisionTree

        def bump(node):
            if isinstance(node, Branch):
                return Branch(
                    feature=node.feature,
                    threshold=node.threshold,
                    true_child=bump(node.true_child),
                    false_child=bump(node.false_child),
                )
            return node

        first = forest.trees[0]
        twin_root = bump(first.root)
        twin_root = replace(twin_root, threshold=twin_root.threshold + 1)
        trees = [DecisionTree(root=twin_root)] + list(forest.trees[1:])
        return DecisionForest(
            trees=trees,
            label_names=list(forest.label_names),
            n_features=forest.n_features,
        )

    def messages_for(self, backend, example_forest):
        from repro.errors import ServeError
        from repro.serve import CopseService

        twin = self.shape_twin(example_forest)
        with CopseService(threads=1, backend=backend) as service:
            a = service.register_model("a", example_forest)
            b = service.register_model("b", twin)
            assert a.compiled.fingerprint() != b.compiled.fingerprint()
            assert a.layout == b.layout  # genuinely shape-identical
            # Cross the wires: model a's cached plan, model b's bundle.
            a.batched_model = b.batched_model
            # (the batch's futures quote the evaluation's own refusal)
            with pytest.raises(ServeError, match=(
                r"^batch 1 evaluation failed: RuntimeProtocolError: "
            )) as excinfo:
                service.classify("a", [40, 200])
            return str(excinfo.value)

    def test_mismatch_raised_identically_on_all_backends(
        self, example_forest
    ):
        reference = self.messages_for("reference", example_forest)
        vector = self.messages_for("vector", example_forest)
        assert "plan was lowered for model" in reference
        assert reference == vector


class TestPlanCache:
    def test_tape_compiled_and_cached_by_default(self, example_forest):
        reg = ModelRegistry().register("m", example_forest)
        assert reg.engine == "tape"
        assert reg.plan is not None
        assert reg.plan.batched
        assert reg.plan.batch_shape == (reg.layout.stride, reg.layout.capacity)
        assert reg.plan.encrypted_model
        assert reg.tape is not None
        assert reg.tape.batched
        assert reg.tape.batch_shape == reg.plan.batch_shape
        assert reg.tape.model_fingerprint == reg.plan.model_fingerprint
        # The tape's rotation schedule must not lose to the plan it was
        # compiled from.
        assert reg.tape.rotations <= reg.plan.optimized.rotations
        assert "plan[" in reg.describe()
        assert "tape[" in reg.describe()

    def test_plan_engine_skips_tape(self, example_forest):
        reg = ModelRegistry().register("m", example_forest, engine="plan")
        assert reg.engine == "plan"
        assert reg.plan is not None
        assert reg.tape is None

    def test_plan_optimizer_strictly_wins(self, example_forest):
        """The cached plan must show the optimizer's payoff: fewer
        rotations and fewer nodes than the naive lowering."""
        plan = ModelRegistry().register("m", example_forest).plan
        assert plan.optimized.rotations < plan.raw.rotations
        assert plan.optimized.num_nodes < plan.raw.num_nodes
        assert plan.optimized.depth <= plan.raw.depth
        assert plan.rotations_saved > 0

    def test_eager_engine_skips_plan(self, example_forest):
        reg = ModelRegistry().register("m", example_forest, engine="eager")
        assert reg.engine == "eager"
        assert reg.plan is None
        assert reg.tape is None

    def test_unknown_engine_rejected(self, example_forest):
        with pytest.raises(ValidationError, match="engine"):
            ModelRegistry().register("m", example_forest, engine="jit")

    def test_plaintext_model_plan_bakes_constants(self, example_forest):
        reg = ModelRegistry().register(
            "m", example_forest, encrypted_model=False
        )
        assert reg.plan is not None and not reg.plan.encrypted_model
        # Plaintext-model plans only bind the query (and the SecComp
        # all-ones helper) — the model itself is baked into the graph.
        assert all(
            name.startswith("feat_plane_") or name == "not_one"
            for name in reg.plan.input_names
        )
