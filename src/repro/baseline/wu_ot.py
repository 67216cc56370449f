"""Wu et al.'s OT-based decision-tree protocol (Section 2.3.1).

The third approach the paper surveys, implemented for completeness: the
server holds the model *in plaintext* (the restriction COPSE lifts), the
client holds the features, and evaluation is interactive:

1. **Padding and permutation** — the server pads each tree into a
   complete binary tree of its depth with dummy nodes and randomly
   permutes it (child swaps with matching comparison flips), hiding the
   original shape from the client;
2. **Blinded comparisons** — the client sends its features under
   additive homomorphic encryption; for every padded node the server
   returns ``Enc(s * r * (x_f - t))`` with a fresh random positive blind
   ``r`` (and ``s = -1`` when the node's children were swapped), so the
   client's decryption reveals only the (permuted) decision bit;
3. **Oblivious transfer** — the client walks the public complete-tree
   shape with its decision bits to a leaf position and runs 1-of-2^d OT
   against the server's (permuted) leaf-label array, learning exactly
   its own label while the server learns nothing about the path.

Known simplification (documented, as in the source protocol's own
discussion): multiplicative blinding preserves the sign *and zeroness*
of ``x - t``, so feature-equals-threshold is distinguishable; the full
Wu et al. construction adds an additive-sharing round to hide it.

The protocol's costs sit on different axes than COPSE's: per-query
communication rounds (COPSE needs one), per-node AHE work exponential in
the padded depth (``2^d - 1`` comparisons per tree — the "limited
scalability" the paper notes), and a plaintext model requirement.
``tests/bench/test_ablations.py`` checks the first two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RuntimeProtocolError, ValidationError
from repro.core.threeparty import Message, Transcript
from repro.fhe.ahe import AheCiphertext, AheContext
from repro.fhe.keys import KeyPair
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf, Node

CLIENT = "client"
SERVER = "server"


@dataclass
class PaddedTree:
    """A complete binary tree in heap layout (node 1 is the root).

    ``features[i]`` / ``thresholds[i]`` describe heap node ``i`` for
    ``1 <= i < 2**depth``; ``flips[i]`` records whether the server swapped
    that node's children; ``labels[j]`` is the class label at leaf
    position ``j`` (``0 <= j < 2**depth``).  Dummy nodes compare feature 0
    against threshold 0 — their decision bit is constant, and both of
    their subtrees carry the same labels, so the bit never matters.
    """

    depth: int
    features: List[int]
    thresholds: List[int]
    flips: List[bool]
    labels: List[int]

    @property
    def num_nodes(self) -> int:
        return (1 << self.depth) - 1

    @property
    def num_leaves(self) -> int:
        return 1 << self.depth


def pad_and_permute(
    tree_root: Node, depth: int, rng: np.random.Generator
) -> PaddedTree:
    """Pad a tree to a complete depth-``depth`` tree and permute it."""
    size = 1 << depth
    features = [0] * size
    thresholds = [0] * size
    flips = [False] * size
    labels = [0] * size

    def fill(node: Node, heap_index: int, levels_left: int) -> None:
        if levels_left == 0:
            if not isinstance(node, Leaf):
                raise ValidationError(
                    "tree deeper than the declared padding depth"
                )
            labels[heap_index - size] = node.label_index
            return
        if isinstance(node, Leaf):
            # Dummy node: constant decision, same label both ways.
            fill(node, 2 * heap_index, levels_left - 1)
            fill(node, 2 * heap_index + 1, levels_left - 1)
            return
        flip = bool(rng.integers(0, 2))
        features[heap_index] = node.feature
        thresholds[heap_index] = node.threshold
        flips[heap_index] = flip
        # Convention: without a flip, decision bit 1 (x < t) walks to the
        # left child (2i), bit 0 to the right (2i + 1).
        first, second = node.true_child, node.false_child
        if flip:
            first, second = second, first
        fill(first, 2 * heap_index, levels_left - 1)
        fill(second, 2 * heap_index + 1, levels_left - 1)

    fill(tree_root, 1, depth)
    return PaddedTree(
        depth=depth,
        features=features,
        thresholds=thresholds,
        flips=flips,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# Oblivious transfer (structural simulation)
# ---------------------------------------------------------------------------


def one_of_n_transfer(
    transcript: Transcript, items: Sequence[int], choice: int
) -> int:
    """1-of-n oblivious transfer.

    Structurally simulated: the transcript records the two OT messages
    (the receiver's blinded choice, the sender's ``n`` masked items); the
    receiver obtains exactly ``items[choice]``, and nothing about
    ``choice`` is ever placed in the transcript (the sender's view).
    """
    if not 0 <= choice < len(items):
        raise RuntimeProtocolError(
            f"OT choice {choice} outside 0..{len(items) - 1}"
        )
    transcript.send(CLIENT, SERVER, "ot-choice-blinded", 1)
    transcript.send(SERVER, CLIENT, "ot-masked-items", len(items))
    return int(items[choice])


# ---------------------------------------------------------------------------
# The protocol parties
# ---------------------------------------------------------------------------


@dataclass
class WuServer:
    """The model holder: pads, permutes, and answers blinded comparisons."""

    forest: DecisionForest
    precision: int
    seed: Optional[int] = None
    _padded: List[PaddedTree] = field(default_factory=list, repr=False)
    _rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        for tree in self.forest.trees:
            self._padded.append(
                pad_and_permute(tree.root, tree.depth, self._rng)
            )

    @property
    def padded_trees(self) -> List[PaddedTree]:
        return self._padded

    def public_shape(self) -> List[int]:
        """What the client must learn to navigate: per-tree padded depth."""
        return [padded.depth for padded in self._padded]

    def blinded_comparisons(
        self,
        ahe: AheContext,
        encrypted_features: Sequence[AheCiphertext],
    ) -> List[List[AheCiphertext]]:
        """Per padded node: ``Enc(s * r * (x_f - t))``.

        The multiplicative blind ``r`` is fresh per node; ``s`` folds the
        permutation's comparison flip into the sign the client sees.
        """
        if len(encrypted_features) != self.forest.n_features:
            raise RuntimeProtocolError(
                f"expected {self.forest.n_features} encrypted features, "
                f"got {len(encrypted_features)}"
            )
        responses: List[List[AheCiphertext]] = []
        for padded in self._padded:
            per_tree: List[AheCiphertext] = []
            for i in range(1, padded.num_nodes + 1):
                enc_x = encrypted_features[padded.features[i]]
                diff = ahe.add_plain(enc_x, -padded.thresholds[i])
                r = int(self._rng.integers(1, 1 << 16))
                if padded.flips[i]:
                    # Flipped node: the client must take the left child
                    # when x >= t, i.e. when -(x - t + 1) is negative
                    # (the +1 keeps the x == t boundary on the right
                    # side for integer values).
                    diff = ahe.add_plain(diff, 1)
                    r = -r
                per_tree.append(ahe.mul_plain(diff, r))
            responses.append(per_tree)
        return responses

    def leaf_labels(self) -> List[List[int]]:
        return [list(padded.labels) for padded in self._padded]


@dataclass
class WuClient:
    """The feature holder: decrypts blinded signs and walks to its leaf."""

    keys: KeyPair
    precision: int
    n_features: int

    def encrypt_features(
        self, ahe: AheContext, features: Sequence[int]
    ) -> List[AheCiphertext]:
        if len(features) != self.n_features:
            raise RuntimeProtocolError(
                f"expected {self.n_features} features, got {len(features)}"
            )
        limit = 1 << self.precision
        for value in features:
            if not 0 <= int(value) < limit:
                raise RuntimeProtocolError(
                    f"feature value {value} does not fit in "
                    f"{self.precision} unsigned bits"
                )
        return [ahe.encrypt(int(v), self.keys.public) for v in features]

    def decision_bits(
        self, ahe: AheContext, blinded: Sequence[AheCiphertext]
    ) -> List[bool]:
        """Decrypt blinded differences into (permuted) decision bits.

        ``x < t`` iff the blinded value is negative (modulo the server's
        sign flip, which is already folded in).
        """
        return [
            ahe.decrypt_signed(ct, self.keys.secret) < 0 for ct in blinded
        ]

    @staticmethod
    def leaf_position(depth: int, bits: Sequence[bool]) -> int:
        """Walk the public complete-tree shape to a leaf position."""
        index = 1
        for _ in range(depth):
            bit = bits[index - 1]
            index = 2 * index + (0 if bit else 1)
        return index - (1 << depth)


@dataclass
class WuOutcome:
    """Result of one full protocol run."""

    labels: List[int]
    label_names: List[str]
    transcript: Transcript
    ahe: AheContext

    def plurality(self) -> int:
        counts: Dict[int, int] = {}
        for label in self.labels:
            counts[label] = counts.get(label, 0) + 1
        return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]

    @property
    def tracker(self):
        return self.ahe.tracker


def wu_inference(
    forest: DecisionForest,
    features: Sequence[int],
    precision: int = 8,
    seed: Optional[int] = None,
    ahe: Optional[AheContext] = None,
) -> WuOutcome:
    """Run the full Wu et al. protocol for every tree of a forest."""
    if ahe is None:
        ahe = AheContext()
    transcript = Transcript()
    server = WuServer(forest=forest, precision=precision, seed=seed)
    keys = ahe.keygen()
    client = WuClient(
        keys=keys, precision=precision, n_features=forest.n_features
    )

    with ahe.tracker.phase("wu_comparisons"):
        encrypted = client.encrypt_features(ahe, features)
        transcript.send(CLIENT, SERVER, "encrypted-features", len(encrypted))
        blinded = server.blinded_comparisons(ahe, encrypted)
        total_nodes = sum(len(per_tree) for per_tree in blinded)
        transcript.send(SERVER, CLIENT, "blinded-comparisons", total_nodes)
        bits = [client.decision_bits(ahe, per_tree) for per_tree in blinded]

    labels: List[int] = []
    with ahe.tracker.phase("wu_transfer"):
        label_arrays = server.leaf_labels()
        for padded_depth, tree_bits, tree_labels in zip(
            server.public_shape(), bits, label_arrays
        ):
            position = client.leaf_position(padded_depth, tree_bits)
            labels.append(
                one_of_n_transfer(transcript, tree_labels, position)
            )

    return WuOutcome(
        labels=labels,
        label_names=list(forest.label_names),
        transcript=transcript,
        ahe=ahe,
    )
