"""The level-selection table equals the per-(label, level) scan.

``ModelAnalysis`` fills the whole level x label selection table with one
walk down each label's ancestors (levels fall strictly from root to
leaf, so the branch controlling a label at level ``L`` is the first
ancestor at level <= ``L``, else the deepest ancestor).  The scan it
replaced — one pass over the ancestors per (label, level), keeping the
exact, the highest-below and the lowest-above candidates — is kept here
as the oracle, on random forests, one-sided chains, single-branch trees,
trees of mixed depth and the multiplicity-bound analysis.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.analysis import ModelAnalysis, SelectedBranch
from repro.core.compiler import _BoundedAnalysis
from repro.core.structures import build_level_dense, build_level_mask
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf
from repro.forest.synthetic import random_forest
from repro.forest.tree import DecisionTree

CI = settings.get_profile("repro-plan-ci")


def scanned_selection(analysis, leaf_idx, level):
    """The per-(label, level) scan, as ``_select_for_label`` was written."""
    exact = None
    below = None  # highest level strictly less than `level`
    above = None  # lowest level strictly greater than `level`
    for branch_idx, under_true in analysis._ancestors[leaf_idx]:
        lvl = analysis.branch_level(branch_idx)
        if lvl == level:
            exact = SelectedBranch(branch_idx, under_true)
        elif lvl < level:
            if below is None or lvl > analysis.branch_level(below.branch_index):
                below = SelectedBranch(branch_idx, under_true)
        else:
            if above is None or lvl < analysis.branch_level(above.branch_index):
                above = SelectedBranch(branch_idx, under_true)
    return exact or below or above


def assert_table_is_the_scan(analysis):
    assert analysis.max_depth == analysis.forest.max_depth
    for level in range(1, analysis.max_depth + 1):
        scanned = [
            scanned_selection(analysis, leaf_idx, level)
            for leaf_idx in range(analysis.num_labels)
        ]
        assert list(analysis.selected_branches(level)) == scanned, level
        # The structures read the table: check them against the scan too.
        dense = np.zeros((analysis.num_labels, analysis.branching), np.uint8)
        for leaf_idx, sel in enumerate(scanned):
            dense[leaf_idx, sel.branch_index] = 1
        assert np.array_equal(build_level_dense(analysis, level), dense)
        mask = [0 if sel.under_true else 1 for sel in scanned]
        assert build_level_mask(analysis, level).tolist() == mask


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
        min_size=1, max_size=10,
    ).map(grow)


def fresh(node):
    """A copy with no node object shared: the analysis keys nodes by id."""
    if isinstance(node, Leaf):
        return Leaf(node.label_index)
    return Branch(
        node.feature, node.threshold, fresh(node.true_child),
        fresh(node.false_child),
    )


# Every root is a branch: the analysis refuses a tree that is a bare leaf.
ROOTS = st.one_of(
    st.builds(Branch, FEATURE, THRESHOLD, LEAVES, LEAVES),  # single branch
    chain(true_side=True),
    chain(true_side=False),
    st.recursive(  # mixed depth: subtrees of unequal height
        st.builds(Branch, FEATURE, THRESHOLD, LEAVES, LEAVES),
        lambda kids: st.builds(
            Branch, FEATURE, THRESHOLD, st.one_of(LEAVES, kids), kids
        ),
        max_leaves=16,
    ),
)


def forest_of(roots):
    return DecisionForest(
        trees=[DecisionTree(root=fresh(root)) for root in roots],
        label_names=["a", "b", "c"],
        n_features=N_FEATURES,
    )


@CI
@given(roots=st.lists(ROOTS, min_size=1, max_size=4))
def test_table_equals_scan_on_shaped_forests(roots):
    assert_table_is_the_scan(ModelAnalysis(forest_of(roots)))


@CI
@given(
    roots=st.lists(ROOTS, min_size=1, max_size=3),
    extra=st.integers(0, 3),
)
def test_table_equals_scan_under_a_multiplicity_bound(roots, extra):
    forest = forest_of(roots)
    bounded = _BoundedAnalysis(forest, forest.max_multiplicity + extra)
    assert_table_is_the_scan(bounded)


@CI
@given(
    seed=st.integers(0, 2**32 - 1),
    branches=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    max_depth=st.integers(4, 6),
)
def test_table_equals_scan_on_random_forests(seed, branches, max_depth):
    forest = random_forest(
        np.random.default_rng(seed), branches, max_depth=max_depth,
        n_features=N_FEATURES, force_max_depth=False,
    )
    assert_table_is_the_scan(ModelAnalysis(forest))


def test_chain_reuses_its_root_above_its_height():
    """A two-branch chain under a deeper forest: above the chain's root
    level the root controls its labels, below its parent's level the
    parent does — the cases the first-at-or-below rule must tell apart."""
    deep = Branch(0, 1, Branch(0, 2, Branch(0, 3, Leaf(0), Leaf(1)), Leaf(2)), Leaf(0))
    short = Branch(1, 4, Branch(1, 5, Leaf(1), Leaf(2)), Leaf(0))
    analysis = ModelAnalysis(forest_of([deep, short]))
    assert analysis.max_depth == 3
    assert_table_is_the_scan(analysis)
    # Labels 4 and 5 hang under short's level-1 branch (preorder 4),
    # itself under short's root (preorder 3, level 2).
    for label in (4, 5):
        chosen = [
            analysis.selected_branches(level)[label].branch_index
            for level in (1, 2, 3)
        ]
        assert chosen == [4, 3, 3]
