"""Adversarial model shapes through the public serve API.

Each shape is registered with ``CopseService.register_model`` and
queried with ``classify_many`` on all four engines, on the ``vector``
and ``reference`` backends.  Every answer must equal a plaintext walk of
the forest written here, independent of the program's own oracle; a
shape the program cannot serve must be refused at ``register`` with a
typed error, never at its first query.

The shapes and queries are fixed (seeded, no hypothesis), and one
service per engine × backend serves all of them, which keeps the module
to a few seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engines import ENGINES
from repro.errors import CompileError, CopseError, ValidationError
from repro.fhe.params import SLOTS_PER_COLUMN, EncryptionParams
from repro.forest.forest import DecisionForest
from repro.forest.node import Branch, Leaf
from repro.forest.synthetic import random_forest
from repro.forest.tree import DecisionTree
from repro.serve.service import CopseService

BACKENDS = ("vector", "reference")
#: One key-switching column: a ciphertext of SLOTS_PER_COLUMN slots.
NARROW = EncryptionParams(columns=1)


def forest(trees, labels, n_features):
    return DecisionForest(
        trees=[DecisionTree(root=root) for root in trees],
        label_names=[f"L{i}" for i in range(labels)],
        n_features=n_features,
    )


def chain(depth, feature_of, threshold_of, left):
    """A one-sided chain ``depth`` branches deep, growing on the true
    side (``left``) or the false side."""
    node = Leaf(0)
    for level in range(depth):
        leaf = Leaf((level + 1) % 3)
        branch = (node, leaf) if left else (leaf, node)
        node = Branch(feature_of(level), threshold_of(level), *branch)
    return node


def stumps(count, n_features, precision, seed, extra=None):
    """``count`` one-branch trees (plus ``extra``): a wide, flat model."""
    rng = np.random.default_rng(seed)
    roots = [
        Branch(k % n_features, int(rng.integers(1, 1 << precision)),
               Leaf(0), Leaf(1))
        for k in range(count)
    ]
    return forest(roots + ([extra] if extra is not None else []), 2,
                  n_features)


#: name -> (forest, precision, params or None).  Width == slot_count:
#: 160 stumps have 320 leaves, the widest vector of the model.
SHAPES = {
    "stump": (forest([Branch(0, 9, Leaf(0), Leaf(1))], 2, 1), 8, None),
    "chain-true-side": (
        forest([chain(6, lambda k: k % 2, lambda k: 40 * k + 7, True)], 3,
               2), 8, None),
    "chain-false-side": (
        forest([chain(6, lambda k: k % 2, lambda k: 250 - 40 * k, False)],
               3, 2), 8, None),
    "duplicate-thresholds": (
        forest([Branch(0, 77, Branch(0, 77, Leaf(0), Leaf(1)), Leaf(2)),
                Branch(0, 77, Leaf(1), Branch(1, 77, Leaf(2), Leaf(0)))],
               3, 2), 8, None),
    "extreme-thresholds": (
        forest([Branch(0, 0, Leaf(0), Branch(1, 255, Leaf(1), Leaf(2)))],
               3, 2), 8, None),
    "single-label": (
        forest([Branch(0, 100, Leaf(0), Leaf(0)),
                Branch(1, 3, Leaf(0), Leaf(0))], 1, 2), 8, None),
    "unused-feature": (
        forest([Branch(0, 50, Leaf(0), Branch(2, 9, Leaf(1), Leaf(0)))],
               2, 3), 8, None),
    "precision-1": (
        forest([Branch(0, 1, Leaf(0), Branch(1, 1, Leaf(1), Leaf(2)))], 3,
               2), 1, None),
    "precision-16": (
        forest([Branch(0, 40000, Leaf(0), Branch(1, 3, Leaf(1), Leaf(2)))],
               3, 2), 16, None),
    "precision-32": (
        forest([Branch(0, (1 << 31) + 5, Leaf(0),
                       Branch(1, 7, Leaf(1), Leaf(2)))], 3, 2), 32, None),
    "depth-10": (
        random_forest(np.random.default_rng(10), [24, 8], max_depth=10,
                      n_features=3, n_labels=4),
        8, None),
    "200-branches": (
        random_forest(np.random.default_rng(200), [50, 50, 50, 50],
                      max_depth=8, n_features=4, n_labels=5),
        8, None),
    "width-equals-slots": (stumps(SLOTS_PER_COLUMN // 2, 2, 8, seed=320), 8,
                           NARROW),
}


def walk(shape: DecisionForest, features) -> list:
    """The N-hot leaf bitvector, by walking each tree from its root."""
    bits = []
    for tree in shape.trees:
        chosen = tree.root
        while isinstance(chosen, Branch):
            chosen = (chosen.true_child if features[chosen.feature]
                      < chosen.threshold else chosen.false_child)
        bits += [int(leaf is chosen) for leaf in tree.leaves()]
    return bits


def queries(shape: DecisionForest, precision: int, seed: int) -> list:
    """Both ends of the domain, every threshold and its neighbour below,
    and a few seeded draws: at most one full batch's worth."""
    top = (1 << precision) - 1
    n = shape.n_features
    values = sorted({
        v for branch in shape.all_branches()
        for v in (branch.threshold - 1, branch.threshold)
        if 0 <= v <= top
    })[:6]
    rng = np.random.default_rng(seed)
    out = [[0] * n, [top] * n]
    out += [[v] * n for v in values]
    out += [[int(v) for v in rng.integers(0, top + 1, n, dtype=np.uint64)]
            for _ in range(3)]
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_every_shape_agrees_with_a_plaintext_walk(engine, backend):
    with CopseService(threads=1, engine=engine, backend=backend) as service:
        for name, (shape, precision, params) in SHAPES.items():
            registered = service.register_model(
                name, shape, precision=precision, params=params,
            )
            asked = queries(shape, precision, seed=len(name))[
                :registered.layout.capacity]
            answers = service.classify_many(name, asked)
            assert [a.bitvector for a in answers] == [
                walk(shape, q) for q in asked
            ], name
            assert all(a.oracle_ok for a in answers), name
        assert service.registry.get("width-equals-slots").layout.stride == (
            NARROW.slot_count
        )


#: name -> (forest, precision, params, typed refusal).  One slot too
#: many: 159 stumps and a two-branch tree have 321 leaves.
REFUSED = {
    "precision-0": (SHAPES["stump"][0], 0, None, CompileError),
    "precision-64": (SHAPES["stump"][0], 64, None, CompileError),
    "threshold-past-precision": (
        forest([Branch(0, 256, Leaf(0), Leaf(1))], 2, 1), 8, None,
        ValidationError),
    "width-over-slots": (
        stumps(SLOTS_PER_COLUMN // 2 - 1, 2, 8, seed=321,
               extra=Branch(0, 5, Leaf(0), Branch(1, 6, Leaf(1), Leaf(0)))),
        8, NARROW, CompileError),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_an_unservable_shape_is_refused_at_register(name):
    shape, precision, params, refusal = REFUSED[name]
    with CopseService(threads=1, engine="megakernel",
                      backend="vector") as service:
        with pytest.raises(CopseError) as refused:
            service.register_model(name, shape, precision=precision,
                                   params=params)
        assert isinstance(refused.value, refusal), refused.value
        assert name not in service.registry
        assert service.pending() == 0
