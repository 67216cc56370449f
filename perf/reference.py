"""An independent plaintext reference for the frozen text models.

Parses the Section 5 text format itself and walks each tree, sharing no
code with ``repro``: the benchmark compares every answer the program
returns against this, never against the program's own oracle.

Format: ``labels: ...`` / ``features: n`` / one prefix token stream per
tree, ``b <feature> <threshold> <true-subtree> <false-subtree>`` or
``l <label-index>``; a branch takes its true child when
``features[feature] < threshold``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: A leaf is its label index; a branch is (feature, threshold, true, false).
Node = object


def _parse(tokens: List[str], pos: int) -> Tuple[Node, int]:
    if tokens[pos] == "l":
        return int(tokens[pos + 1]), pos + 2
    if tokens[pos] != "b":
        raise ValueError(f"unknown node tag {tokens[pos]!r}")
    true_child, after_true = _parse(tokens, pos + 3)
    false_child, after_false = _parse(tokens, after_true)
    branch = (int(tokens[pos + 1]), int(tokens[pos + 2]), true_child, false_child)
    return branch, after_false


class ReferenceForest:
    """Per-tree labels of a frozen model, by walking its trees."""

    def __init__(self, text: str):
        lines = [line for line in text.splitlines() if line.strip()]
        self.label_names = lines[0].split(":", 1)[1].split()
        self.trees: List[Node] = []
        for line in lines[2:]:
            tokens = line.split()
            root, end = _parse(tokens, 0)
            if end != len(tokens):
                raise ValueError("trailing tokens after a tree")
            self.trees.append(root)

    def labels(self, features: Sequence[int]) -> List[int]:
        """The label index each tree chooses, in tree order."""
        out = []
        for node in self.trees:
            while not isinstance(node, int):
                feature, threshold, true_child, false_child = node
                node = true_child if features[feature] < threshold else false_child
            out.append(node)
        return out
