"""``build_batched_model`` stages the model as one block.

Every structure's rows are padded to the stride, tiled once and
encrypted with one ``encrypt_many`` call (row by row on a backend
without it, encoded row by row for a plaintext model).  The per-vector
build it replaced — ``tile_model_vector`` and one ``encrypt`` /
``encode`` per vector — is kept here as the oracle: the same plane
bits, lengths and noise, the same ENCRYPT records (node ids, phase,
order), the same ``setup_ms``, and the same refusals.
"""

import dataclasses
import json
import pickle
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiler import CopseCompiler
from repro.errors import DomainError, ValidationError
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.context import FheContext
from repro.fhe.costmodel import CostModel
from repro.fhe.keys import KeyPair
from repro.fhe.params import EncryptionParams
from repro.fhe.tracker import OpKind
from repro.forest.serialize import loads_forest
from repro.forest.synthetic import random_forest
from repro.serve.batched_runtime import (
    PHASE_MODEL_ENCRYPT,
    BatchedEncryptedModel,
    build_batched_model,
)
from repro.serve.packing import plan_layout, tile_model_vector

MODELS_DIR = Path(__file__).resolve().parents[2] / "perf" / "models"
MANIFEST = json.loads((MODELS_DIR / "MANIFEST.json").read_text())
FROZEN = sorted(MANIFEST)
PARAMS = EncryptionParams.paper_defaults()


class NoBulkContext(FheContext):
    """A backend without the bulk-encrypt capability."""

    encrypt_many = None


def per_vector_build(ctx, compiled, layout, public_key=None):
    """The build as it was: one tile and one encrypt / encode per vector."""

    def _pack(vector):
        tiled = tile_model_vector(layout, vector)
        if public_key is not None:
            return ctx.encrypt(tiled, public_key)
        return ctx.encode(tiled)

    with ctx.tracker.phase(PHASE_MODEL_ENCRYPT):
        thresholds = [_pack(plane) for plane in compiled.threshold_planes]
        reshuffle = [
            _pack(compiled.reshuffle.diagonal(i))
            for i in range(compiled.reshuffle.num_diagonals)
        ]
        levels = [
            [_pack(matrix.diagonal(i)) for i in range(matrix.num_diagonals)]
            for matrix in compiled.level_matrices
        ]
        masks = [_pack(mask) for mask in compiled.level_masks]
    return BatchedEncryptedModel(
        layout=layout,
        threshold_planes=thresholds,
        reshuffle_diagonals=reshuffle,
        level_diagonals=levels,
        level_masks=masks,
        max_depth=compiled.max_depth,
        fingerprint=compiled.fingerprint(),
    )


@lru_cache(maxsize=None)
def compiled_model(name):
    if name == "random":
        forest = random_forest(
            np.random.default_rng(11), [6, 9, 4], max_depth=5, n_features=3
        )
        return CopseCompiler(precision=8).compile(forest)
    forest = loads_forest((MODELS_DIR / f"{name}.txt").read_text())
    return CopseCompiler(precision=int(MANIFEST[name]["precision"])).compile(
        forest
    )


def make_context(backend):
    if backend == "no-bulk":
        return NoBulkContext(PARAMS)
    return FheContext(PARAMS, backend=backend)


def planes_of(batched):
    return [
        *batched.threshold_planes,
        *batched.reshuffle_diagonals,
        *(plane for level in batched.level_diagonals for plane in level),
        *batched.level_masks,
    ]


def build_both(backend, compiled, layout, encrypted, build_a, build_b):
    """Run two builds on twin contexts sharing one key pair."""
    out = []
    keys = KeyPair.generate(PARAMS.security)
    for build in (build_a, build_b):
        ctx = make_context(backend)
        public = keys.public if encrypted else None
        try:
            result = build(ctx, compiled, layout, public_key=public)
        except Exception as exc:  # compared below
            result = exc
        out.append((ctx, result))
    return keys, out


def tracker_view(ctx):
    tracker = ctx.tracker
    return (
        tracker.trace(),
        tracker.num_nodes,
        tracker.count(OpKind.ENCRYPT, PHASE_MODEL_ENCRYPT),
        tracker.count(OpKind.ENCRYPT),
        CostModel(PARAMS).sequential_ms(tracker),
    )


@pytest.mark.parametrize("encrypted", [True, False], ids=["encrypted", "plaintext"])
@pytest.mark.parametrize("backend", ["reference", "vector", "no-bulk"])
@pytest.mark.parametrize("name", ["random", *FROZEN])
def test_block_build_is_the_per_vector_build(name, backend, encrypted):
    compiled = compiled_model(name)
    layout = plan_layout(compiled, PARAMS)
    keys, [(ctx, got), (ref_ctx, want)] = build_both(
        backend, compiled, layout, encrypted, build_batched_model,
        per_vector_build,
    )
    assert got.is_encrypted == want.is_encrypted == encrypted
    assert [len(level) for level in got.level_diagonals] == [
        len(level) for level in want.level_diagonals
    ]
    assert (
        len(got.threshold_planes), len(got.reshuffle_diagonals),
        len(got.level_masks), got.max_depth, got.fingerprint, got.layout,
    ) == (
        len(want.threshold_planes), len(want.reshuffle_diagonals),
        len(want.level_masks), want.max_depth, want.fingerprint, want.layout,
    )
    for plane, oracle in zip(planes_of(got), planes_of(want), strict=True):
        assert type(plane) is type(oracle)
        assert plane.length == oracle.length == layout.batched_width
        if encrypted:
            assert plane.noise == oracle.noise
            assert plane.node_id == oracle.node_id
            assert plane.key_id == oracle.key_id
            assert np.array_equal(
                ctx.decrypt(plane, keys.secret),
                ref_ctx.decrypt(oracle, keys.secret),
            )
        else:
            assert np.array_equal(plane.to_array(), oracle.to_array())
        if backend != "no-bulk" or not encrypted:
            # Adopted (or encoded) rows cannot be written through.
            assert not plane._slots.flags.writeable
    assert tracker_view(ctx) == tracker_view(ref_ctx)


def _poisoned(compiled, where):
    """``compiled`` with one structure entry set to 2 (not a bit)."""
    if where == "threshold":
        planes = compiled.threshold_planes.copy()
        planes[1, 0] = 2
        return dataclasses.replace(compiled, threshold_planes=planes)
    if where == "level":
        matrix = compiled.level_matrices[-1]
        diagonals = matrix.diagonals.copy()
        diagonals[-1, -1] = 2
        levels = list(compiled.level_matrices)
        levels[-1] = dataclasses.replace(matrix, diagonals=diagonals)
        return dataclasses.replace(compiled, level_matrices=levels)
    masks = [mask.copy() for mask in compiled.level_masks]
    masks[-1][0] = 2
    return dataclasses.replace(compiled, level_masks=masks)


@pytest.mark.parametrize("encrypted", [True, False], ids=["encrypted", "plaintext"])
@pytest.mark.parametrize("backend", ["reference", "vector", "no-bulk"])
@pytest.mark.parametrize("where", ["threshold", "level", "mask"])
def test_non_bit_structure_is_refused_as_before(where, backend, encrypted):
    compiled = _poisoned(compiled_model("random"), where)
    layout = plan_layout(compiled, PARAMS)
    _, [(ctx, got), (ref_ctx, want)] = build_both(
        backend, compiled, layout, encrypted, build_batched_model,
        per_vector_build,
    )
    assert isinstance(want, DomainError)
    assert type(got) is DomainError and str(got) == str(want)
    # The rows before the bad one were encrypted, and recorded, as before.
    assert tracker_view(ctx) == tracker_view(ref_ctx)


@pytest.mark.parametrize("encrypted", [True, False], ids=["encrypted", "plaintext"])
def test_vector_wider_than_the_stride_is_refused_as_before(encrypted):
    """A layout planned for a narrower model: the first vector that does
    not fit is named, in today's words."""
    wide = compiled_model("width78")
    narrow = plan_layout(compiled_model("depth4"), PARAMS)
    assert wide.required_width() > narrow.stride
    _, [(_, got), (_, want)] = build_both(
        "vector", wide, narrow, encrypted, build_batched_model,
        per_vector_build,
    )
    assert isinstance(want, ValidationError)
    assert type(got) is ValidationError and str(got) == str(want)
    assert "does not fit the stride" in str(got)


def test_planes_are_rows_of_one_block():
    """The encrypted planes are read-only rows of one fresh tiled block:
    they alias none of the compiled model's arrays, and each pickles as
    its own row, not as the block behind it."""
    compiled = compiled_model("random")
    layout = plan_layout(compiled, PARAMS)
    ctx = FheContext(PARAMS, backend="vector")
    keys = ctx.keygen()
    batched = build_batched_model(ctx, compiled, layout, public_key=keys.public)
    planes = planes_of(batched)
    assert all(isinstance(plane, Ciphertext) for plane in planes)
    (block,) = {id(plane._slots.base) for plane in planes}
    structures = [
        compiled.threshold_planes,
        compiled.reshuffle.diagonals,
        *(matrix.diagonals for matrix in compiled.level_matrices),
        *compiled.level_masks,
    ]
    assert not any(
        np.shares_memory(plane._slots, structure)
        for plane in planes
        for structure in structures
    )
    row_bytes = layout.batched_width
    assert len(pickle.dumps(planes[0])) < row_bytes + 1024
