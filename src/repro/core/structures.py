"""The vectorizable structures of Section 4.2.

* :func:`build_threshold_planes` — the padded threshold vector as ``p``
  MSB-first bit planes (Section 4.2.1);
* :class:`DiagonalMatrix` — a boolean matrix stored as its generalized
  diagonals, the representation the Halevi-Shoup product consumes
  (Section 4.1.2): the ``i``-th generalized diagonal of an ``m x n``
  matrix ``A`` is ``d_i[j] = A[j][(j + i) mod n]``, so there are ``n``
  diagonals of length ``m``;
* :func:`build_reshuffle_matrix` — the ``b x q`` matrix routing padded
  threshold slots to preorder branch positions and dropping sentinels
  (Section 4.2.2);
* :func:`build_level_matrix` / :func:`build_level_mask` — the per-level
  label-to-branch selection matrices and true/false-side masks
  (Sections 4.2.3 and 4.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import CompileError
from repro.core.analysis import ModelAnalysis
from repro.fhe.simd import to_bitplanes


@dataclass(frozen=True)
class DiagonalMatrix:
    """A boolean matrix in generalized-diagonal representation."""

    rows: int
    cols: int
    diagonals: np.ndarray  # shape (cols, rows), dtype uint8

    def __post_init__(self) -> None:
        if self.diagonals.shape != (self.cols, self.rows):
            raise CompileError(
                f"diagonal array shape {self.diagonals.shape} inconsistent "
                f"with a {self.rows}x{self.cols} matrix"
            )

    @staticmethod
    def from_dense(dense: np.ndarray) -> "DiagonalMatrix":
        """Convert a dense 0/1 matrix to generalized diagonals."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise CompileError(f"expected a matrix, got shape {dense.shape}")
        if np.any((dense != 0) & (dense != 1)):
            raise CompileError("a diagonal matrix's entries must be bits (0 or 1)")
        m, n = dense.shape
        rows = np.arange(m)
        # Row i of the index is diagonal i: column (j + i) mod n of row j.
        cols = (rows + np.arange(n)[:, None]) % n
        diagonals = dense[rows, cols].astype(np.uint8, copy=False)
        return DiagonalMatrix(rows=m, cols=n, diagonals=diagonals)

    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense matrix (inverse of :meth:`from_dense`)."""
        dense = np.zeros((self.rows, self.cols), dtype=np.uint8)
        rows = np.arange(self.rows)
        for i in range(self.cols):
            dense[rows, (rows + i) % self.cols] = self.diagonals[i]
        return dense

    def diagonal(self, i: int) -> np.ndarray:
        return self.diagonals[i]

    @property
    def num_diagonals(self) -> int:
        return self.cols

    def matvec_plain(self, v: np.ndarray) -> np.ndarray:
        """Reference (insecure) product over GF(2), used as a test oracle."""
        dense = self.to_dense()
        return (dense @ np.asarray(v, dtype=np.uint64)) % 2


# ---------------------------------------------------------------------------
# Structure builders
# ---------------------------------------------------------------------------


def build_threshold_planes(analysis: ModelAnalysis, precision: int) -> np.ndarray:
    """Padded threshold vector as a ``(p, q)`` MSB-first bit-plane array."""
    values = analysis.padded_thresholds()
    limit = 1 << precision
    for v in values:
        if v >= limit:
            raise CompileError(
                f"threshold {v} does not fit in {precision} unsigned bits; "
                f"increase the compiler precision"
            )
    return to_bitplanes(values, precision)


def build_reshuffle_dense(analysis: ModelAnalysis) -> np.ndarray:
    """Dense ``b x q`` reshuffling matrix (Section 4.2.2).

    Row ``i`` has its single 1 in the padded-threshold-vector column that
    carries branch ``i``'s comparison result; sentinel columns stay empty.
    """
    b = analysis.branching
    q = analysis.quantized_branching
    dense = np.zeros((b, q), dtype=np.uint8)
    for branch_idx in range(b):
        dense[branch_idx, analysis.threshold_slot(branch_idx)] = 1
    return dense


def build_reshuffle_matrix(analysis: ModelAnalysis) -> DiagonalMatrix:
    return DiagonalMatrix.from_dense(build_reshuffle_dense(analysis))


def build_level_dense(analysis: ModelAnalysis, level: int) -> np.ndarray:
    """Dense ``labels x b`` level matrix (Section 4.2.3).

    Row ``i`` selects the branch controlling label ``i`` at this level;
    each row has exactly one 1, and column ``j``'s popcount equals the
    width of branch ``j`` at its own level.
    """
    selections = analysis.selected_branches(level)
    dense = np.zeros((len(selections), analysis.branching), dtype=np.uint8)
    dense[
        np.arange(len(selections)), [sel.branch_index for sel in selections]
    ] = 1
    return dense


def build_level_matrix(analysis: ModelAnalysis, level: int) -> DiagonalMatrix:
    return DiagonalMatrix.from_dense(build_level_dense(analysis, level))


def build_level_mask(analysis: ModelAnalysis, level: int) -> np.ndarray:
    """Level mask (Section 4.2.4): 0 for labels on the true path, 1 on the
    false path, so ``decision XOR mask`` is 1 exactly when the label is
    still feasible given that level's decision."""
    selections = analysis.selected_branches(level)
    return np.array(
        [0 if sel.under_true else 1 for sel in selections], dtype=np.uint8
    )


def build_all_levels(analysis: ModelAnalysis) -> List[DiagonalMatrix]:
    """Level matrices for levels ``1..d`` (index 0 holds level 1)."""
    return [
        build_level_matrix(analysis, level)
        for level in range(1, analysis.max_depth + 1)
    ]


def build_all_masks(analysis: ModelAnalysis) -> List[np.ndarray]:
    """Level masks for levels ``1..d``."""
    return [
        build_level_mask(analysis, level)
        for level in range(1, analysis.max_depth + 1)
    ]
