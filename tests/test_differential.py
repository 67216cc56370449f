"""Capstone differential tests: every secure path against every other.

Five independent implementations compute decision-forest classifications
in this repository: plaintext inference (the oracle), COPSE via the
direct runtime, COPSE via the optimized IR (``secure_inference`` with
``engine="plan"``: the staged graph, executed), the Aloufi et al.
polynomial baseline, and the Wu et al. OT protocol — plus the
three-party threshold variant of COPSE.  On random models and random inputs they must all
agree, which cross-checks every layer at once (analysis, structures,
SecComp, MatMul, noise accounting, codegen of the IR, AHE, threshold
decryption).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baseline.runtime import baseline_inference
from repro.baseline.wu_ot import wu_inference
from repro.core.compiler import CopseCompiler
from repro.core.runtime import secure_inference
from repro.core.threeparty import three_party_inference
from repro.forest.synthetic import random_forest
from repro.ir.plan import lower_inference


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=10, deadline=None)
def test_all_secure_paths_agree(model_seed, query_seed):
    forest = random_forest(
        np.random.default_rng(model_seed),
        branches_per_tree=[5, 7],
        max_depth=4,
        n_features=3,
    )
    compiled = CopseCompiler(precision=8).compile(forest)
    features = [
        int(v) for v in np.random.default_rng(query_seed).integers(0, 256, 3)
    ]

    oracle_labels = forest.classify_per_tree(features)
    oracle_bits = forest.label_bitvector(features)

    direct = secure_inference(compiled, features)
    assert direct.result.bitvector == oracle_bits
    assert direct.result.chosen_labels == oracle_labels

    via_ir = secure_inference(
        compiled, features, engine="plan", plan=lower_inference(compiled)
    )
    assert via_ir.result.bitvector == oracle_bits

    aloufi = baseline_inference(forest, features)
    assert aloufi.result.labels == oracle_labels

    wu = wu_inference(forest, features, seed=model_seed % 1000)
    assert wu.labels == oracle_labels

    threeparty = three_party_inference(compiled, features)
    assert threeparty.result.bitvector == oracle_bits


@pytest.mark.parametrize("precision", [4, 8, 12])
def test_precision_sweep_agreement(precision):
    """The same cross-check across fixed-point precisions."""
    forest = random_forest(
        np.random.default_rng(99),
        branches_per_tree=[6, 6],
        max_depth=4,
        n_features=2,
        precision=precision,
    )
    compiled = CopseCompiler(precision=precision).compile(forest)
    rng = np.random.default_rng(100)
    limit = 1 << precision
    for _ in range(3):
        features = [int(v) for v in rng.integers(0, limit, 2)]
        oracle_labels = forest.classify_per_tree(features)
        assert (
            secure_inference(compiled, features).result.chosen_labels
            == oracle_labels
        )
        assert (
            baseline_inference(forest, features, precision=precision).result.labels
            == oracle_labels
        )
        assert (
            wu_inference(forest, features, precision=precision).labels
            == oracle_labels
        )


def test_single_branch_degenerate_model():
    """The smallest possible model exercises every path's edge cases."""
    from repro.forest.forest import DecisionForest
    from repro.forest.node import Branch, Leaf
    from repro.forest.tree import DecisionTree

    tree = DecisionTree(root=Branch(0, 128, Leaf(1), Leaf(0)))
    forest = DecisionForest(
        trees=[tree], label_names=["low", "high"], n_features=1
    )
    compiled = CopseCompiler(precision=8).compile(forest)
    plan = lower_inference(compiled)
    for x, expected in ((0, 1), (127, 1), (128, 0), (255, 0)):
        assert secure_inference(compiled, [x]).result.chosen_labels == [expected]
        assert baseline_inference(forest, [x]).result.labels == [expected]
        assert wu_inference(forest, [x]).labels == [expected]
        via_ir = secure_inference(compiled, [x], engine="plan", plan=plan)
        assert via_ir.result.chosen_labels == [expected]
