"""Tests for forest-level statistics and inference."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf
from repro.forest.synthetic import random_forest
from repro.forest.tree import DecisionTree


class TestConstruction:
    def test_empty_forest_rejected(self):
        with pytest.raises(ValidationError):
            DecisionForest(trees=[], label_names=["a"], n_features=1)

    def test_no_labels_rejected(self, example_tree):
        with pytest.raises(ValidationError):
            DecisionForest(trees=[example_tree], label_names=[], n_features=2)

    def test_bad_arity_rejected(self, example_tree):
        with pytest.raises(ValidationError):
            DecisionForest(
                trees=[example_tree], label_names=["a", "b", "c"], n_features=0
            )

    def test_tree_validated_against_forest(self, example_tree):
        with pytest.raises(ValidationError):
            DecisionForest(
                trees=[example_tree], label_names=["a", "b"], n_features=2
            )

    def test_feature_name_count_checked(self, example_tree):
        with pytest.raises(ValidationError):
            DecisionForest(
                trees=[example_tree],
                label_names=["a", "b", "c"],
                n_features=2,
                feature_names=["only_one"],
            )


class TestStatistics:
    def test_multiplicities(self, example_forest):
        kappa = example_forest.multiplicities()
        assert kappa == {0: 3, 1: 3}

    def test_derived_stats(self, example_forest):
        assert example_forest.max_multiplicity == 3
        assert example_forest.branching == 6
        assert example_forest.quantized_branching == 6
        assert example_forest.num_leaves == 8
        assert example_forest.max_depth == 3
        assert example_forest.n_trees == 2

    def test_unused_feature_has_zero_multiplicity(self):
        tree = DecisionTree(root=Branch(0, 5, Leaf(0), Leaf(1)))
        forest = DecisionForest(
            trees=[tree], label_names=["a", "b"], n_features=3
        )
        assert forest.multiplicities() == {0: 1, 1: 0, 2: 0}
        assert forest.quantized_branching == 3  # K=1 over 3 features

    def test_enumerations_concatenate(self, example_forest):
        assert len(example_forest.all_branches()) == 6
        assert len(example_forest.all_leaves()) == 8

    def test_describe(self, example_forest):
        text = example_forest.describe()
        assert "b=6" in text and "K=3" in text


class TestInference:
    def test_per_tree_labels(self, example_forest):
        labels = example_forest.classify_per_tree([10, 10])
        assert labels == [0, 2]

    def test_plurality(self, example_forest):
        # [100, 30]: tree1 -> L1, tree2 -> 2 (x>=100 false -> y<220 true -> 0)
        votes = example_forest.classify_per_tree([100, 30])
        assert example_forest.classify([100, 30]) in votes

    def test_plurality_tie_breaks_low(self):
        t1 = DecisionTree(root=Branch(0, 10, Leaf(1), Leaf(1)))
        t2 = DecisionTree(root=Branch(0, 10, Leaf(0), Leaf(0)))
        forest = DecisionForest(
            trees=[t1, t2], label_names=["a", "b"], n_features=1
        )
        assert forest.classify([5]) == 0

    def test_wrong_arity_rejected(self, example_forest):
        with pytest.raises(ValidationError):
            example_forest.classify_per_tree([1])

    def test_label_bitvector_is_n_hot(self, example_forest):
        rng = np.random.default_rng(0)
        for _ in range(25):
            feats = [int(v) for v in rng.integers(0, 256, 2)]
            bits = example_forest.label_bitvector(feats)
            assert len(bits) == example_forest.num_leaves
            assert sum(bits) == example_forest.n_trees

    def test_label_bitvector_consistent_with_per_tree(self, example_forest):
        rng = np.random.default_rng(1)
        codebook = [
            leaf.label_index for leaf in example_forest.all_leaves()
        ]
        for _ in range(25):
            feats = [int(v) for v in rng.integers(0, 256, 2)]
            bits = example_forest.label_bitvector(feats)
            chosen = [codebook[i] for i, b in enumerate(bits) if b]
            assert chosen == example_forest.classify_per_tree(feats)

    def test_random_forest_bitvector_property(self):
        forest = random_forest(
            np.random.default_rng(5), [6, 7, 7], max_depth=5
        )
        rng = np.random.default_rng(6)
        codebook = [leaf.label_index for leaf in forest.all_leaves()]
        for _ in range(30):
            feats = [int(v) for v in rng.integers(0, 256, 2)]
            bits = forest.label_bitvector(feats)
            assert sum(bits) == forest.n_trees
            chosen = [codebook[i] for i, b in enumerate(bits) if b]
            assert chosen == forest.classify_per_tree(feats)


# ---------------------------------------------------------------------------
# The O(depth) oracle walk equals its O(model) specification
# ---------------------------------------------------------------------------

N_FEATURES = 3
LEAVES = st.builds(Leaf, st.integers(0, 2))
FEATURE = st.integers(0, N_FEATURES - 1)
THRESHOLD = st.integers(0, 16)


def chain(true_side):
    """One-sided chains: every branch hangs its subtree on one side."""

    def grow(steps):
        node = Leaf(0)
        for feature, threshold, label in steps:
            children = (node, Leaf(label))
            if not true_side:
                children = children[::-1]
            node = Branch(feature, threshold, *children)
        return node

    return st.lists(
        st.tuples(FEATURE, THRESHOLD, st.integers(0, 2)),
        min_size=1, max_size=12,
    ).map(grow)


ROOTS = st.one_of(
    LEAVES,  # a tree that is a single label
    st.builds(Branch, FEATURE, THRESHOLD, LEAVES, LEAVES),  # single branch
    chain(true_side=True),
    chain(true_side=False),
    st.recursive(
        LEAVES,
        lambda kids: st.builds(Branch, FEATURE, THRESHOLD, kids, kids),
        max_leaves=24,
    ),
)


def specified_bitvector(forest, features):
    """``label_bitvector`` as first written: two preorder walks per tree."""
    bits = []
    for tree in forest.trees:
        chosen = DecisionForest._chosen_leaf_position(tree, features)
        bits.extend(1 if i == chosen else 0 for i in range(tree.num_leaves))
    return bits


@settings(settings.get_profile("repro-plan-ci"))
@given(
    roots=st.lists(ROOTS, min_size=1, max_size=4),
    queries=st.lists(
        st.lists(st.integers(0, 17), min_size=N_FEATURES,
                 max_size=N_FEATURES),
        min_size=1, max_size=6,
    ),
)
def test_oracle_walk_equals_specification(roots, queries):
    forest = DecisionForest(
        trees=[DecisionTree(root=root) for root in roots],
        label_names=["a", "b", "c"],
        n_features=N_FEATURES,
    )
    for features in queries:
        assert forest.label_bitvector(features) == specified_bitvector(
            forest, features
        )


def test_oracle_table_is_not_pickled(example_forest):
    """The walk table is a lazy cache: a forest that has answered a
    query ships exactly the bytes of one that has not."""
    cold = pickle.dumps(example_forest)
    expected = example_forest.label_bitvector([33, 99])
    assert example_forest._walks is not None
    assert pickle.dumps(example_forest) == cold
    clone = pickle.loads(cold)
    assert clone._walks is None
    assert clone.label_bitvector([33, 99]) == expected


@settings(settings.get_profile("repro-plan-ci"))
@given(
    roots=st.lists(ROOTS, min_size=1, max_size=4),
    queries=st.lists(
        st.lists(st.integers(0, 17), min_size=N_FEATURES,
                 max_size=N_FEATURES),
        min_size=1, max_size=6,
    ),
)
def test_block_oracle_equals_the_scalar_walk(roots, queries):
    """``label_bitvectors`` walks every tree for a whole block at once,
    one numpy step per level; row for row it is ``label_bitvector``, on
    single labels, single branches, one-sided chains and mixed depths."""
    forest = DecisionForest(
        trees=[DecisionTree(root=root) for root in roots],
        label_names=["a", "b", "c"],
        n_features=N_FEATURES,
    )
    block = forest.label_bitvectors(np.asarray(queries, dtype=np.int64))
    assert block.dtype == np.uint8
    assert block.tolist() == [forest.label_bitvector(q) for q in queries]


def test_block_oracle_of_no_rows_and_its_arrays_not_pickled(example_forest):
    cold = pickle.dumps(example_forest)
    empty = example_forest.label_bitvectors(np.zeros((0, 2), dtype=np.int64))
    assert empty.shape == (0, example_forest.num_leaves)
    assert example_forest._arrays is not None
    assert pickle.dumps(example_forest) == cold
    assert example_forest.label_bitvectors([[33, 99]]).tolist() == [
        example_forest.label_bitvector([33, 99])
    ]
