"""Decision forests: a set of trees over a shared feature space.

Implements the model-level definitions of Section 4.1.1:

* the forest-wide preorder enumeration of branches and labels (tree by
  tree, without restarting the count);
* *multiplicity* ``kappa_i`` of a feature — how many branches compare
  against it across the whole forest;
* *maximum multiplicity* ``K`` — the one model statistic COPSE reveals;
* *branching* ``b`` — total branch count, ``sum(kappa_i)``;
* *quantized branching* ``q = K * n_features`` — the padded width of the
  threshold vector.

Plaintext inference returns the per-tree label choices (matching COPSE's
N-hot result bitvector, Section 4.1.2) plus a plurality vote helper for
applications that want a single classification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.forest.node import Branch, Leaf
from repro.forest.tree import DecisionTree


@dataclass
class DecisionForest:
    """A forest of decision trees with named labels and a fixed arity."""

    trees: List[DecisionTree]
    label_names: List[str]
    n_features: int
    feature_names: List[str] = field(default_factory=list)
    #: Lazy oracle table (see :meth:`_walk_table`): never compared, and
    #: dropped by ``__getstate__`` so a shipped forest pickles as before.
    _walks: Optional[Tuple[tuple, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValidationError("a decision forest needs at least one tree")
        if not self.label_names:
            raise ValidationError("a decision forest needs at least one label")
        if self.n_features <= 0:
            raise ValidationError(
                f"n_features must be positive, got {self.n_features}"
            )
        if self.feature_names and len(self.feature_names) != self.n_features:
            raise ValidationError(
                f"{len(self.feature_names)} feature names for "
                f"{self.n_features} features"
            )
        for tree in self.trees:
            tree.validate(self.n_features, len(self.label_names))

    # ------------------------------------------------------------------
    # Inference (the plaintext oracle)
    # ------------------------------------------------------------------

    @property
    def n_labels(self) -> int:
        return len(self.label_names)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def classify_per_tree(self, features: Sequence[int]) -> List[int]:
        """Label index chosen by each tree (COPSE's notion of the result)."""
        self._check_features(features)
        return [tree.classify(features) for tree in self.trees]

    def classify(self, features: Sequence[int]) -> int:
        """Plurality vote across trees; ties break to the smaller index."""
        votes = Counter(self.classify_per_tree(features))
        best = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]

    def label_bitvector(self, features: Sequence[int]) -> List[int]:
        """The N-hot leaf bitvector COPSE computes (Section 4.1.2).

        One slot per leaf in the forest-wide preorder enumeration; a slot
        is 1 exactly when its leaf is the one its tree selects.
        """
        self._check_features(features)
        roots, width = self._walk_table()
        bits = [0] * width
        for node in roots:
            while type(node) is tuple:
                node = node[2] if features[node[0]] < node[1] else node[3]
            bits[node] = 1
        return bits

    def label_bitvectors(self, rows) -> np.ndarray:
        """:meth:`label_bitvector` of every row of a checked
        ``(n, n_features)`` block, as an ``(n, leaves)`` uint8 array.

        Still a walk of every tree, not COPSE's matrices: all the trees
        for all the rows at once, one numpy step per level of the
        deepest tree, over the forest's node arrays (a leaf is its own
        child, so a walk that reached one stays there).
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.n_features)
        arrays = self.__dict__.get("_arrays")  # lazy, never pickled
        if arrays is None:
            arrays = self._arrays = self._node_arrays()
        feature, threshold, true, false, position, roots, depth, width = (
            arrays
        )
        who = np.arange(len(rows))[:, None]
        node = np.broadcast_to(roots, (len(rows), len(roots)))
        for _ in range(depth):
            node = np.where(rows[who, feature[node]] < threshold[node],
                            true[node], false[node])
        bits = np.zeros((len(rows), width), dtype=np.uint8)
        bits[who, position[node]] = 1
        return bits

    def _node_arrays(self) -> tuple:
        """Every node of the walk table as array entries: ``feature``,
        ``threshold``, ``true`` / ``false`` child and, for a leaf, its
        bitvector ``position``; plus the roots, the depth and the width."""
        roots, width = self._walk_table()
        columns: List[List[int]] = [[], [], [], [], []]
        depth = 0

        def add(node, level: int) -> int:
            nonlocal depth
            at = len(columns[0])
            for column in columns:
                column.append(0)
            if type(node) is tuple:
                columns[0][at], columns[1][at] = node[0], node[1]
                columns[2][at] = add(node[2], level + 1)
                columns[3][at] = add(node[3], level + 1)
            else:  # 0 < 0 is never true: the false side, itself
                columns[2][at] = columns[3][at] = at
                columns[4][at] = node
                depth = max(depth, level)
            return at

        starts = [add(root, 0) for root in roots]
        return (*(np.asarray(c, dtype=np.int64) for c in columns),
                np.asarray(starts, dtype=np.int64), depth, width)

    def _walk_table(self) -> Tuple[tuple, int]:
        """``(per-tree walk roots, bitvector width)``, built once.

        Each tree becomes nested ``(feature, threshold, true, false)``
        tuples whose leaves are their forest-wide preorder positions, so
        a query costs one root-to-leaf walk per tree — O(depth), not the
        O(model) preorder enumerations of :meth:`_chosen_leaf_position`
        (kept as the tested specification).  Memoised like
        ``DecisionTree._levels``: the trees are not expected to change
        after construction.
        """
        table = self._walks
        if table is None:
            position = 0

            def lower(node):
                nonlocal position
                if isinstance(node, Branch):
                    true_side = lower(node.true_child)
                    return (
                        node.feature, node.threshold, true_side,
                        lower(node.false_child),
                    )
                position += 1
                return position - 1

            roots = tuple(lower(tree.root) for tree in self.trees)
            table = self._walks = (roots, position)
        return table

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_walks"] = None
        state.pop("_arrays", None)
        return state

    @staticmethod
    def _chosen_leaf_position(tree: DecisionTree, features: Sequence[int]) -> int:
        leaves = tree.leaves()
        node = tree.root
        while isinstance(node, Branch):
            node = node.true_child if node.decide(features) else node.false_child
        for i, leaf in enumerate(leaves):
            if leaf is node:
                return i
        raise ValidationError("chosen leaf not found in enumeration")

    # ------------------------------------------------------------------
    # Model statistics (Section 4.1.1)
    # ------------------------------------------------------------------

    def multiplicities(self) -> Dict[int, int]:
        """``kappa_i`` for every feature index (0 when a feature is unused)."""
        kappa = {i: 0 for i in range(self.n_features)}
        for tree in self.trees:
            for branch in tree.branches():
                kappa[branch.feature] += 1
        return kappa

    @property
    def max_multiplicity(self) -> int:
        """``K`` — the statistic revealed to enable feature replication."""
        return max(self.multiplicities().values())

    @property
    def branching(self) -> int:
        """``b`` — total number of branch nodes in the forest."""
        return sum(tree.num_branches for tree in self.trees)

    @property
    def quantized_branching(self) -> int:
        """``q = K * n_features`` — the padded threshold-vector width."""
        return self.max_multiplicity * self.n_features

    @property
    def num_leaves(self) -> int:
        """Total leaves: the width of the classification bitvector."""
        return sum(tree.num_leaves for tree in self.trees)

    @property
    def max_depth(self) -> int:
        """``d`` — the maximum level over all trees."""
        return max(tree.depth for tree in self.trees)

    def all_branches(self) -> List[Branch]:
        """Forest-wide preorder branch enumeration (count never restarts)."""
        out: List[Branch] = []
        for tree in self.trees:
            out.extend(tree.branches())
        return out

    def all_leaves(self) -> List[Leaf]:
        """Forest-wide preorder label enumeration."""
        out: List[Leaf] = []
        for tree in self.trees:
            out.extend(tree.leaves())
        return out

    def describe(self) -> str:
        """One-line structural summary used in reports."""
        return (
            f"forest: trees={self.n_trees} features={self.n_features} "
            f"labels={self.n_labels} b={self.branching} "
            f"K={self.max_multiplicity} q={self.quantized_branching} "
            f"d={self.max_depth} leaves={self.num_leaves}"
        )

    # ------------------------------------------------------------------

    def _check_features(self, features: Sequence[int]) -> None:
        if len(features) != self.n_features:
            raise ValidationError(
                f"expected {self.n_features} features, got {len(features)}"
            )
