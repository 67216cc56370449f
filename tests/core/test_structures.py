"""Tests for the vectorizable structures (Section 4.2)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CompileError
from repro.core.analysis import ModelAnalysis
from repro.core.structures import (
    DiagonalMatrix,
    build_all_levels,
    build_all_masks,
    build_level_dense,
    build_level_mask,
    build_reshuffle_dense,
    build_reshuffle_matrix,
    build_threshold_planes,
)
from repro.fhe.simd import from_bitplanes
from repro.forest.synthetic import random_forest


class TestDiagonalMatrix:
    def test_roundtrip_square(self):
        dense = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]], dtype=np.uint8)
        dm = DiagonalMatrix.from_dense(dense)
        assert dm.rows == 3 and dm.cols == 3
        assert np.array_equal(dm.to_dense(), dense)

    def test_roundtrip_wide(self):
        dense = np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)
        dm = DiagonalMatrix.from_dense(dense)
        assert dm.num_diagonals == 4
        assert dm.diagonal(0).shape == (2,)
        assert np.array_equal(dm.to_dense(), dense)

    def test_roundtrip_tall(self):
        dense = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        dm = DiagonalMatrix.from_dense(dense)
        assert dm.num_diagonals == 2
        assert np.array_equal(dm.to_dense(), dense)

    def test_diagonal_definition(self):
        """d_i[j] = A[j][(j + i) mod n] — the paper's generalized diagonal."""
        rng = np.random.default_rng(0)
        dense = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
        dm = DiagonalMatrix.from_dense(dense)
        for i in range(6):
            for j in range(4):
                assert dm.diagonal(i)[j] == dense[j][(j + i) % 6]

    def test_non_matrix_rejected(self):
        with pytest.raises(CompileError):
            DiagonalMatrix.from_dense(np.zeros(4, dtype=np.uint8))

    def test_inconsistent_shape_rejected(self):
        with pytest.raises(CompileError):
            DiagonalMatrix(rows=2, cols=3, diagonals=np.zeros((2, 2), np.uint8))


    @pytest.mark.parametrize(
        "dense",
        [
            [[0, 2], [1, 0]],  # kept as a diagonal entry before
            np.array([[256, 0], [0, 1]], dtype=np.int64),  # wrapped to 0
            [[256, 0], [0, 1]],  # a raw OverflowError
            [[-1, 0], [0, 1]],  # a raw OverflowError
            np.array([[1, 0], [0, 255]], dtype=np.uint8),
        ],
        ids=["two", "int64-256", "int-256", "int-minus-1", "uint8-255"],
    )
    def test_non_bit_entries_rejected(self, dense):
        with pytest.raises(CompileError, match="bits"):
            DiagonalMatrix.from_dense(dense)

    @settings(settings.get_profile("repro-plan-ci"))
    @example(m=1, n=1, seed=0)
    @example(m=2, n=5, seed=1)
    @example(m=5, n=2, seed=2)
    @given(
        m=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_roundtrip_property(self, m, n, seed):
        """Every diagonal entry is ``d_i[j] = A[j][(j + i) mod n]``, read
        one element at a time, and the matrix round-trips."""
        dense = np.random.default_rng(seed).integers(0, 2, (m, n))
        dm = DiagonalMatrix.from_dense(dense)
        assert dm.diagonals.dtype == np.uint8
        assert (dm.rows, dm.cols, dm.num_diagonals) == (m, n, n)
        for i in range(n):
            assert dm.diagonal(i).tolist() == [
                dense[j][(j + i) % n] for j in range(m)
            ]
        assert np.array_equal(dm.to_dense(), dense)

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matvec_plain_matches_numpy(self, m, n, seed):
        rng = np.random.default_rng(seed)
        dense = rng.integers(0, 2, (m, n)).astype(np.uint8)
        v = rng.integers(0, 2, n).astype(np.uint8)
        dm = DiagonalMatrix.from_dense(dense)
        expected = (dense.astype(np.uint64) @ v) % 2
        assert np.array_equal(dm.matvec_plain(v), expected)


@pytest.fixture
def analysis(example_forest):
    return ModelAnalysis(example_forest)


class TestThresholdPlanes:
    def test_shape_and_values(self, analysis):
        planes = build_threshold_planes(analysis, 8)
        assert planes.shape == (8, analysis.quantized_branching)
        assert from_bitplanes(planes) == analysis.padded_thresholds()

    def test_precision_overflow_rejected(self, analysis):
        with pytest.raises(CompileError):
            build_threshold_planes(analysis, 4)


class TestReshuffleMatrix:
    def test_row_column_structure(self, analysis):
        dense = build_reshuffle_dense(analysis)
        assert dense.shape == (analysis.branching, analysis.quantized_branching)
        # Exactly one 1 per row, at most one per column (Section 4.2.2).
        assert np.all(dense.sum(axis=1) == 1)
        assert np.all(dense.sum(axis=0) <= 1)

    def test_reshuffle_reorders_decisions(self, analysis, example_forest):
        dense = build_reshuffle_dense(analysis)
        rng = np.random.default_rng(0)
        for _ in range(20):
            feats = [int(v) for v in rng.integers(0, 256, 2)]
            replicated = analysis.replicated_features(feats)
            padded = analysis.padded_thresholds()
            decisions = np.array(
                [1 if x < t else 0 for x, t in zip(replicated, padded)],
                dtype=np.uint8,
            )
            branches = (dense @ decisions) % 2
            expected = [
                1 if feats[analysis.branch(i).feature] < analysis.branch(i).threshold
                else 0
                for i in range(analysis.branching)
            ]
            assert branches.tolist() == expected

    def test_diagonal_form_consistent(self, analysis):
        dm = build_reshuffle_matrix(analysis)
        assert np.array_equal(dm.to_dense(), build_reshuffle_dense(analysis))


class TestLevelMatrices:
    def test_one_hot_rows(self, analysis):
        for level in range(1, analysis.max_depth + 1):
            dense = build_level_dense(analysis, level)
            assert dense.shape == (analysis.num_labels, analysis.branching)
            assert np.all(dense.sum(axis=1) == 1)

    def test_column_popcount_at_own_level(self, analysis):
        """At a branch's own level, its column popcount equals its width
        (Section 4.2.3)."""
        for branch_idx in range(analysis.branching):
            level = analysis.branch_level(branch_idx)
            dense = build_level_dense(analysis, level)
            width = analysis.branch_width(branch_idx)
            assert int(dense[:, branch_idx].sum()) == width

    def test_all_levels_and_masks_built(self, analysis):
        levels = build_all_levels(analysis)
        masks = build_all_masks(analysis)
        assert len(levels) == analysis.max_depth
        assert len(masks) == analysis.max_depth
        for matrix, mask in zip(levels, masks):
            assert matrix.rows == analysis.num_labels
            assert mask.shape == (analysis.num_labels,)

    def test_mask_encoding(self, analysis):
        for level in range(1, analysis.max_depth + 1):
            mask = build_level_mask(analysis, level)
            for label_idx, sel in enumerate(analysis.selected_branches(level)):
                assert mask[label_idx] == (0 if sel.under_true else 1)


class TestAlgebraicCorrectness:
    """The full plaintext pipeline: XOR'd level vectors multiply to the
    label bitvector — the algebra of Sections 4.2.3-4.2.4 end to end,
    without any encryption involved."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plaintext_pipeline_matches_oracle(self, seed):
        forest = random_forest(
            np.random.default_rng(seed), [6, 8], max_depth=5, n_features=3
        )
        analysis = ModelAnalysis(forest)
        reshuffle = build_reshuffle_dense(analysis)
        levels = [
            build_level_dense(analysis, lvl)
            for lvl in range(1, analysis.max_depth + 1)
        ]
        masks = [
            build_level_mask(analysis, lvl)
            for lvl in range(1, analysis.max_depth + 1)
        ]
        rng = np.random.default_rng(seed + 100)
        padded = analysis.padded_thresholds()
        for _ in range(15):
            feats = [int(v) for v in rng.integers(0, 256, 3)]
            replicated = analysis.replicated_features(feats)
            decisions = np.array(
                [1 if x < t else 0 for x, t in zip(replicated, padded)],
                dtype=np.uint8,
            )
            branches = (reshuffle @ decisions) % 2
            result = np.ones(analysis.num_labels, dtype=np.uint8)
            for matrix, mask in zip(levels, masks):
                level_decisions = (matrix @ branches) % 2
                result &= np.bitwise_xor(level_decisions, mask)
            assert result.tolist() == forest.label_bitvector(feats)
