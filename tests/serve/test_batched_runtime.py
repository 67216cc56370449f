"""Tests for block-local gathers and the batched Algorithm 1."""

import numpy as np
import pytest

from repro.core.compiler import CopseCompiler
from repro.core.runtime import secure_inference
from repro.core.seccomp import VARIANT_OPTIMIZED
from repro.errors import RuntimeProtocolError
from repro.fhe.context import FheContext
from repro.fhe.tracker import OpKind
from repro.serve.batched_runtime import (
    BatchedCopseServer,
    PHASE_DATA_ENCRYPT,
    PHASE_MODEL_CACHE,
    batched_matvec,
    block_gather,
    build_batched_model,
    encrypt_batch,
)
from repro.serve.packing import (
    BatchLayout,
    demux_bitvectors,
    plan_layout,
    tile_model_vector,
)


def make_layout(stride=7, capacity=4, width=5):
    """A synthetic layout whose every stage width equals ``width``."""
    return BatchLayout(
        stride=stride,
        capacity=capacity,
        precision=4,
        n_features=1,
        max_multiplicity=1,
        quantized_branching=width,
        branching=width,
        num_labels=width,
    )


class TestBlockGather:
    @pytest.mark.parametrize("shift", [0, 1, 3, 4])
    @pytest.mark.parametrize("rows", [3, 5, 7])
    def test_matches_reference(self, ctx, keys, shift, rows):
        layout = make_layout()
        width = 5
        rng = np.random.default_rng(shift * 10 + rows)
        data = rng.integers(0, 2, layout.batched_width).astype(np.uint8)
        ct = ctx.encrypt(data, keys.public)
        out = block_gather(ctx, ct, shift, width, rows, layout)
        got = ctx.decrypt(out, keys.secret)
        for k in range(layout.capacity):
            for t in range(rows):
                expected = data[k * layout.stride + (t + shift) % width]
                assert got[k * layout.stride + t] == expected, (k, t)

    def test_zero_shift_small_rows_is_free(self, ctx, keys):
        layout = make_layout()
        data = np.ones(layout.batched_width, dtype=np.uint8)
        ct = ctx.encrypt(data, keys.public)
        before = ctx.tracker.num_nodes
        out = block_gather(ctx, ct, 0, 5, 5, layout)
        assert out is ct  # single zero-rotation segment: no ops recorded
        assert ctx.tracker.num_nodes == before

    def test_never_bleeds_across_blocks(self, ctx, keys):
        """Block k's gather must see only block k's data."""
        layout = make_layout()
        data = np.zeros(layout.batched_width, dtype=np.uint8)
        data[layout.block_slice(1)] = 1  # only block 1 is hot
        ct = ctx.encrypt(data, keys.public)
        for shift in range(5):
            got = ctx.decrypt(
                block_gather(ctx, ct, shift, 5, 7, layout), keys.secret
            )
            for k in range(layout.capacity):
                block = got[k * layout.stride : k * layout.stride + 7]
                assert block.any() == (k == 1), (shift, k)

    def test_rejects_bad_shapes(self, ctx, keys):
        layout = make_layout()
        ct = ctx.encrypt(
            np.zeros(layout.batched_width, dtype=np.uint8), keys.public
        )
        with pytest.raises(RuntimeProtocolError):
            block_gather(ctx, ct, 5, 5, 5, layout)  # shift >= width
        with pytest.raises(RuntimeProtocolError):
            block_gather(ctx, ct, 0, 5, layout.stride + 1, layout)


class TestBatchedMatvec:
    def test_matches_per_block_dense_product(self, ctx, keys, compiled_example):
        """Each block's result equals the plain diagonal-matrix product."""
        layout = plan_layout(compiled_example, ctx.params, max_batch_size=3)
        matrix = compiled_example.reshuffle
        diagonals = [
            ctx.encode(tile_model_vector(layout, matrix.diagonal(i)))
            for i in range(matrix.num_diagonals)
        ]
        rng = np.random.default_rng(9)
        data = np.zeros(layout.batched_width, dtype=np.uint8)
        per_block = []
        for k in range(layout.capacity):
            v = rng.integers(0, 2, matrix.cols).astype(np.uint8)
            per_block.append(v)
            data[k * layout.stride : k * layout.stride + matrix.cols] = v
        ct = ctx.encrypt(data, keys.public)
        out = batched_matvec(
            ctx, diagonals, matrix.rows, matrix.cols, ct, layout
        )
        got = ctx.decrypt(out, keys.secret)
        for k in range(layout.capacity):
            expected = matrix.matvec_plain(per_block[k])
            block = got[k * layout.stride : k * layout.stride + matrix.rows]
            assert np.array_equal(block, expected), k


class TestClassifyBatch:
    @pytest.fixture
    def layout(self, compiled_example, params):
        return plan_layout(compiled_example, params, max_batch_size=4)

    def _queries(self, forest, count, seed=3):
        rng = np.random.default_rng(seed)
        return [
            [int(v) for v in rng.integers(0, 256, forest.n_features)]
            for _ in range(count)
        ]

    def test_every_block_matches_oracle(
        self, example_forest, compiled_example, layout, params
    ):
        ctx = FheContext(params)
        keys = ctx.keygen()
        model = build_batched_model(ctx, compiled_example, layout, keys.public)
        queries = self._queries(example_forest, 4)
        query = encrypt_batch(ctx, layout, queries, keys)
        server = BatchedCopseServer(ctx)
        bits = ctx.decrypt_bits(
            server.classify_batch(model, query), keys.secret
        )
        for features, got in zip(
            queries, demux_bitvectors(layout, bits, len(queries))
        ):
            assert got == example_forest.label_bitvector(features)

    def test_partial_batch_and_plaintext_model(
        self, example_forest, compiled_example, layout, params
    ):
        ctx = FheContext(params)
        keys = ctx.keygen()
        model = build_batched_model(ctx, compiled_example, layout)  # plaintext
        assert not model.is_encrypted
        queries = self._queries(example_forest, 2, seed=11)
        query = encrypt_batch(ctx, layout, queries, keys)
        server = BatchedCopseServer(ctx, seccomp_variant=VARIANT_OPTIMIZED)
        bits = ctx.decrypt_bits(
            server.classify_batch(model, query), keys.secret
        )
        for features, got in zip(
            queries, demux_bitvectors(layout, bits, len(queries))
        ):
            assert got == example_forest.label_bitvector(features)

    def test_depth_matches_single_query_circuit(
        self, example_forest, compiled_example, layout, params
    ):
        """Gathers add no ciphertext multiply: batched depth == unbatched."""
        single = secure_inference(
            compiled_example, [40, 200], params=params
        )
        ctx = FheContext(params)
        keys = ctx.keygen()
        model = build_batched_model(ctx, compiled_example, layout, keys.public)
        query = encrypt_batch(ctx, layout, [[40, 200]], keys)
        BatchedCopseServer(ctx).classify_batch(model, query)
        assert (
            ctx.tracker.multiplicative_depth()
            == single.tracker.multiplicative_depth()
        )

    def test_adoption_is_free_and_scoped(
        self, compiled_example, layout, params
    ):
        registry_ctx = FheContext(params)
        keys = registry_ctx.keygen()
        model = build_batched_model(
            registry_ctx, compiled_example, layout, keys.public
        )
        batch_ctx = FheContext(params)
        local = model.adopt_into(batch_ctx)
        stats = batch_ctx.tracker.phase_stats(PHASE_MODEL_CACHE)
        assert stats.count(OpKind.LOAD) == stats.total_ops > 0
        assert batch_ctx.tracker.count(OpKind.ENCRYPT) == 0
        # Adopted ciphertexts keep key identity.
        assert local.threshold_planes[0].key_id == keys.public.key_id

    def test_adoption_rejects_oversized_ciphertext(
        self, compiled_example, layout, params
    ):
        """adopt() enforces the target context's slot capacity."""
        from repro.errors import SlotCapacityError
        from repro.fhe.params import EncryptionParams

        registry_ctx = FheContext(params)
        keys = registry_ctx.keygen()
        full = plan_layout(compiled_example, params)  # uncapped capacity
        model = build_batched_model(
            registry_ctx, compiled_example, full, keys.public
        )
        tiny_ctx = FheContext(EncryptionParams(columns=1))  # 320 slots
        assert model.threshold_planes[0].length > 320
        with pytest.raises(SlotCapacityError):
            model.adopt_into(tiny_ctx)

    def test_width_mismatch_rejected(
        self, example_forest, compiled_example, layout, params
    ):
        ctx = FheContext(params)
        keys = ctx.keygen()
        model = build_batched_model(ctx, compiled_example, layout, keys.public)
        small = plan_layout(compiled_example, params, max_batch_size=2)
        query = encrypt_batch(ctx, small, [[1, 2]], keys)
        with pytest.raises(RuntimeProtocolError):
            BatchedCopseServer(ctx).classify_batch(model, query)


class TestBulkAdoption:
    """The vector backend's ``adopt_many`` capability must be invisible:
    bulk adoption and per-ciphertext adoption leave identical tracker
    state, node ids, and key identity — including on refusal."""

    @pytest.fixture
    def layout(self, compiled_example, params):
        return plan_layout(compiled_example, params, max_batch_size=4)

    def _flatten(self, model):
        planes = list(model.threshold_planes)
        planes += list(model.reshuffle_diagonals)
        for level in model.level_diagonals:
            planes += list(level)
        planes += list(model.level_masks)
        return planes

    def _contexts(self, params):
        from repro.fhe.vector import VectorFheContext

        class NoBulk(VectorFheContext):
            adopt_many = None  # hide the capability: per-ct fallback

        return VectorFheContext(params), NoBulk(params)

    def test_bulk_matches_per_ciphertext(
        self, compiled_example, layout, params
    ):
        registry_ctx = FheContext(params, backend="vector")
        keys = registry_ctx.keygen()
        model = build_batched_model(
            registry_ctx, compiled_example, layout, keys.public
        )
        bulk_ctx, slow_ctx = self._contexts(params)
        bulk = model.adopt_into(bulk_ctx)
        slow = model.adopt_into(slow_ctx)
        assert (
            bulk_ctx.tracker.phase_stats(PHASE_MODEL_CACHE).as_dict()
            == slow_ctx.tracker.phase_stats(PHASE_MODEL_CACHE).as_dict()
        )
        for got, want in zip(self._flatten(bulk), self._flatten(slow)):
            assert type(got) is type(want)
            if hasattr(got, "node_id"):
                assert got.node_id == want.node_id == 0
                assert got.key_id == want.key_id
                assert got.length == want.length
                assert np.array_equal(got._slots, want._slots)

    def test_bulk_refusal_matches_per_ciphertext(
        self, compiled_example, params
    ):
        """Oversized planes refuse with the same error and the same
        partial LOAD counts on both adoption paths."""
        from repro.errors import SlotCapacityError
        from repro.fhe.params import EncryptionParams

        registry_ctx = FheContext(params, backend="vector")
        keys = registry_ctx.keygen()
        full = plan_layout(compiled_example, params)  # uncapped capacity
        model = build_batched_model(
            registry_ctx, compiled_example, full, keys.public
        )
        tiny = EncryptionParams(columns=1)  # 320 slots
        assert model.threshold_planes[0].length > 320
        bulk_ctx, slow_ctx = self._contexts(tiny)
        with pytest.raises(SlotCapacityError) as bulk_err:
            model.adopt_into(bulk_ctx)
        with pytest.raises(SlotCapacityError) as slow_err:
            model.adopt_into(slow_ctx)
        assert str(bulk_err.value) == str(slow_err.value)
        assert (
            bulk_ctx.tracker.phase_stats(PHASE_MODEL_CACHE).as_dict()
            == slow_ctx.tracker.phase_stats(PHASE_MODEL_CACHE).as_dict()
        )


class TestBulkEncryption:
    """``encrypt_many`` must be invisible: ``encrypt_batch`` through it
    and through one ``encrypt`` per plane leave identical tracker state,
    node ids, noise, key identity and bits — and word refusals alike."""

    BACKENDS = ["reference", "vector", "plaintext"]

    @pytest.fixture
    def layout(self, compiled_example, params):
        return plan_layout(compiled_example, params, max_batch_size=4)

    def _contexts(self, params, backend):
        bulk = FheContext(params, backend=backend)

        class PerPlane(type(bulk)):
            encrypt_many = None  # hide the capability: per-plane fallback

        return bulk, PerPlane(params)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bulk_matches_per_plane(self, layout, params, backend):
        bulk_ctx, slow_ctx = self._contexts(params, backend)
        keys = bulk_ctx.keygen()
        queries = [[40, 200], [0, 255], [130, 7]]
        bulk = encrypt_batch(bulk_ctx, layout, queries, keys)
        slow = encrypt_batch(slow_ctx, layout, queries, keys)
        for ctx in (bulk_ctx, slow_ctx):
            assert ctx.tracker.phases == [PHASE_DATA_ENCRYPT]
        assert (
            bulk_ctx.tracker.phase_stats(PHASE_DATA_ENCRYPT).as_dict()
            == slow_ctx.tracker.phase_stats(PHASE_DATA_ENCRYPT).as_dict()
            == {"encrypt": layout.precision}
        )
        assert len(bulk.planes) == len(slow.planes) == layout.precision
        for got, want in zip(bulk.planes, slow.planes):
            assert type(got) is type(want)
            assert got.node_id == want.node_id
            assert got.key_id == want.key_id == keys.public.key_id
            assert got.length == want.length == layout.batched_width
            assert got.noise == want.noise
            assert not got._slots.flags.writeable
            assert np.array_equal(
                bulk_ctx.decrypt(got, keys.secret),
                slow_ctx.decrypt(want, keys.secret),
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refusals_are_encrypts_own(self, params, backend):
        from repro.errors import DomainError, SlotCapacityError

        ctx, _ = self._contexts(params, backend)
        keys = ctx.keygen()
        wide = np.zeros((2, params.slot_count + 1), dtype=np.uint8)
        for block, error in (
            (np.full((2, 8), 2, dtype=np.uint8), DomainError),
            (np.zeros((2, 8), dtype=np.float64), DomainError),
            (np.zeros((2, 0), dtype=np.uint8), DomainError),
            (wide, SlotCapacityError),
        ):
            with pytest.raises(error) as single:
                ctx.encrypt(block[0], keys.public)
            with pytest.raises(error) as many:
                ctx.encrypt_many(block, keys.public)
            assert str(many.value) == str(single.value)
        # other integer dtypes and nested lists take the per-row path
        for block in (np.eye(3, dtype=np.int64), [[0, 1], [1, 1]]):
            bits = [
                ctx.decrypt_bits(ct, keys.secret)
                for ct in ctx.encrypt_many(block, keys.public)
            ]
            assert bits == np.asarray(block).tolist()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_group_is_booked_as_its_first_block(self, layout, params,
                                                  backend):
        """A ``(k, n, width)`` block is ``n`` groups of ``k``: each head
        is what ``encrypt_many`` of the first block gives alone, the
        group books exactly that, and ``decrypt_group`` reads every row
        back with one ``DECRYPT``.  A group block is refused as
        ``encrypt`` words it, with nothing booked."""
        from repro.errors import DomainError, SlotCapacityError
        from repro.fhe.ciphertext import CiphertextGroup
        from repro.serve.packing import pack_group_planes

        group_ctx, _ = self._contexts(params, backend)
        alone_ctx, _ = self._contexts(params, backend)
        keys = group_ctx.keygen()
        chunks = [[[40, 200], [0, 255]], [[130, 7]], [[1, 2], [3, 4], [5, 6]]]
        block = pack_group_planes(layout, chunks)
        groups = group_ctx.encrypt_many(block, keys.public)
        heads = alone_ctx.encrypt_many(block[0].copy(), keys.public)
        assert [type(g) for g in groups] == [CiphertextGroup] * len(heads)
        assert (group_ctx.tracker.total_counts()
                == alone_ctx.tracker.total_counts())
        for group, head in zip(groups, heads):
            assert len(group) == len(chunks)
            assert group.length == head.length == layout.batched_width
            assert (group.head.node_id, group.head.key_id,
                    group.head.noise) == (head.node_id, head.key_id,
                                          head.noise)
        decrypted = [group_ctx.decrypt_group(g, keys.secret) for g in groups]
        assert np.array_equal(np.stack(decrypted, axis=1), block)
        assert group_ctx.tracker.total_counts()[OpKind.DECRYPT] == len(heads)

        before = group_ctx.tracker.total_counts()
        wide = np.zeros((2, 2, params.slot_count + 1), dtype=np.uint8)
        for bad, error in (
            (np.full((2, 2, 8), 2, dtype=np.uint8), DomainError),
            (np.zeros((2, 2, 8), dtype=np.float64), DomainError),
            (wide, SlotCapacityError),
        ):
            with pytest.raises(error) as single:
                group_ctx.encrypt(bad[0, 0], keys.public)
            with pytest.raises(error) as many:
                group_ctx.encrypt_many(bad, keys.public)
            assert str(many.value) == str(single.value)
        assert group_ctx.tracker.total_counts() == before
