"""Model analysis: the Section 4.1.1 structure extraction.

Everything the compiler needs to build the vectorizable structures comes
out of one pass over the forest:

* the forest-wide *preorder enumeration* of branches and of labels;
* the *level* of every branch (branches on the longest branch-to-leaf
  path, inclusive; labels are level 0);
* the *threshold-vector slot assignment*: thresholds grouped by feature,
  each feature's group padded with sentinels to the maximum multiplicity
  ``K``, giving the quantized width ``q = K * n_features``;
* for every forest level ``1..d`` and every label, the *selected branch*
  controlling that label at that level, and which side (true/false) the
  label lies on — the data behind level matrices and masks (Section 4.2.3
  and 4.2.4).

Branch selection rule (Section 4.2.3): the unique ancestor branch at
exactly that level when one exists; otherwise the highest ancestor branch
*not exceeding* the level; otherwise (every ancestor sits above the level)
the lowest ancestor — the paper notes the choice is arbitrary as long as
every branch appears in at least one level, which the exact-match case
guarantees.  A parent's level is one more than its higher child's, so
levels strictly fall from root to leaf and the rule reads: the *first*
ancestor at level <= L, else the deepest ancestor — one walk down a
label's ancestors selects its branch at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.errors import CompileError
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf, Node

#: Sentinel threshold value used to pad feature groups (Section 4.2.1).
#: The exact value is irrelevant — sentinel comparison results are removed
#: by the reshuffling matrix — and 0 makes ``x < 0`` identically false.
SENTINEL_THRESHOLD = 0


@dataclass(frozen=True)
class SelectedBranch:
    """The branch controlling one label at one level."""

    branch_index: int  # forest-wide preorder index
    under_true: bool  # whether the label lies under the branch's true child


class ModelAnalysis:
    """One-pass structural analysis of a decision forest."""

    def __init__(self, forest: DecisionForest):
        self.forest = forest
        self._branches: List[Branch] = forest.all_branches()
        self._leaves: List[Leaf] = forest.all_leaves()
        self._branch_index: Dict[int, int] = {
            id(b): i for i, b in enumerate(self._branches)
        }
        self._leaf_index: Dict[int, int] = {
            id(l): i for i, l in enumerate(self._leaves)
        }
        self._levels: Dict[int, int] = {}
        for tree in forest.trees:
            self._compute_levels(tree.root)
        self._ancestors = self._compute_ancestors()
        for leaf_idx, ancestors in enumerate(self._ancestors):
            if not ancestors:
                raise CompileError(
                    f"label {leaf_idx} has no ancestor branches: its tree "
                    f"is a bare leaf, and the paper's level-matrix "
                    f"construction selects one controlling branch per "
                    f"label per level — a limit of that construction, not "
                    f"of the input format (the plaintext walk answers it)"
                )
        self._slot_of_branch = self._assign_threshold_slots()

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------

    @property
    def branching(self) -> int:
        """``b`` — total branch count."""
        return len(self._branches)

    @property
    def num_labels(self) -> int:
        """Total leaf count: the width of the classification bitvector."""
        return len(self._leaves)

    @property
    def max_multiplicity(self) -> int:
        """``K``."""
        return self.forest.max_multiplicity

    @property
    def quantized_branching(self) -> int:
        """``q = K * n_features``."""
        return self.forest.quantized_branching

    @cached_property
    def max_depth(self) -> int:
        """``d`` — maximum level over the forest."""
        return max(self.branch_level(i) for i in range(self.branching))

    def branch_level(self, branch_index: int) -> int:
        """Level of a branch by forest-wide preorder index."""
        return self._levels[id(self._branches[branch_index])]

    def branch(self, branch_index: int) -> Branch:
        return self._branches[branch_index]

    def leaf_label(self, leaf_index: int) -> int:
        """Class-label index of a leaf by forest-wide preorder index."""
        return self._leaves[leaf_index].label_index

    def codebook(self) -> List[int]:
        """Map from result-bitvector slot to class-label index."""
        return [leaf.label_index for leaf in self._leaves]

    def branch_width(self, branch_index: int) -> int:
        """Width = size of the branch's downstream label set."""
        return len(self._downstream(branch_index))

    # ------------------------------------------------------------------
    # Threshold-vector slot assignment (Section 4.2.1)
    # ------------------------------------------------------------------

    def _assign_threshold_slots(self) -> Dict[int, int]:
        """Grouped-by-feature slot for every branch index.

        Feature ``f`` owns slots ``[f*K, (f+1)*K)``; its branches fill the
        group in preorder; remaining slots hold sentinels.
        """
        K = self.max_multiplicity
        cursor: Dict[int, int] = {f: 0 for f in range(self.forest.n_features)}
        slots: Dict[int, int] = {}
        for i, branch in enumerate(self._branches):
            f = branch.feature
            position = cursor[f]
            if position >= K:
                raise CompileError(
                    f"feature {f} appears more than K={K} times; "
                    f"multiplicity accounting is inconsistent"
                )
            slots[i] = f * K + position
            cursor[f] = position + 1
        return slots

    def threshold_slot(self, branch_index: int) -> int:
        """Padded-threshold-vector slot holding this branch's threshold."""
        return self._slot_of_branch[branch_index]

    def padded_thresholds(self) -> List[int]:
        """The padded threshold vector (length ``q``), sentinel-filled."""
        q = self.quantized_branching
        values = [SENTINEL_THRESHOLD] * q
        for i, branch in enumerate(self._branches):
            values[self._slot_of_branch[i]] = branch.threshold
        return values

    def replicated_features(self, features: Sequence[int]) -> List[int]:
        """Diane's Step 0: replicate each feature ``K`` times."""
        if len(features) != self.forest.n_features:
            raise CompileError(
                f"expected {self.forest.n_features} features, got {len(features)}"
            )
        K = self.max_multiplicity
        out: List[int] = []
        for value in features:
            out.extend([int(value)] * K)
        return out

    # ------------------------------------------------------------------
    # Level selection (Sections 4.2.3, 4.2.4)
    # ------------------------------------------------------------------

    def selected_branches(self, level: int) -> Tuple[SelectedBranch, ...]:
        """For every label, the branch controlling it at ``level``."""
        if not 1 <= level <= self.max_depth:
            raise CompileError(
                f"level {level} outside the forest's range 1..{self.max_depth}"
            )
        return self._selections[level - 1]

    @cached_property
    def _selections(self) -> List[Tuple[SelectedBranch, ...]]:
        """The level x label table: an ancestor controls its own level up
        to the level below its parent's (the root: up to ``d``), and the
        deepest one every level below its own too."""
        d = self.max_depth
        table = [[None] * self.num_labels for _ in range(d)]
        for leaf_idx, ancestors in enumerate(self._ancestors):
            top = d
            for branch_idx, under_true in ancestors:
                selected = SelectedBranch(branch_idx, under_true)
                lvl = self.branch_level(branch_idx)
                for level in range(lvl, top + 1):
                    table[level - 1][leaf_idx] = selected
                top = lvl - 1
            # `selected` is the deepest ancestor (the constructor refused
            # any label without one).
            for level in range(1, top + 1):
                table[level - 1][leaf_idx] = selected
        return [tuple(row) for row in table]

    # ------------------------------------------------------------------
    # Internal traversals
    # ------------------------------------------------------------------

    def _compute_levels(self, node: Node) -> int:
        if isinstance(node, Leaf):
            self._levels[id(node)] = 0
            return 0
        t = self._compute_levels(node.true_child)
        f = self._compute_levels(node.false_child)
        level = 1 + max(t, f)
        self._levels[id(node)] = level
        return level

    def _compute_ancestors(self) -> List[List[Tuple[int, bool]]]:
        """For every leaf, its ancestor branches with side flags."""
        ancestors: List[List[Tuple[int, bool]]] = [
            [] for _ in range(len(self._leaves))
        ]

        def walk(node: Node, path: List[Tuple[int, bool]]) -> None:
            if isinstance(node, Leaf):
                ancestors[self._leaf_index[id(node)]] = list(path)
                return
            branch_idx = self._branch_index[id(node)]
            path.append((branch_idx, True))
            walk(node.true_child, path)
            path.pop()
            path.append((branch_idx, False))
            walk(node.false_child, path)
            path.pop()

        for tree in self.forest.trees:
            walk(tree.root, [])
        return ancestors

    def _downstream(self, branch_index: int) -> List[int]:
        branch_id_target = branch_index
        out: List[int] = []
        for leaf_idx, ancestors in enumerate(self._ancestors):
            if any(bi == branch_id_target for bi, _ in ancestors):
                out.append(leaf_idx)
        return out
