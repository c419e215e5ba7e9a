"""Dense views of sparse matrices for tests that compare whole matrices."""

from __future__ import annotations

import numpy as np

from scldpc.model import SparseBinaryMatrix


def to_dense(h: SparseBinaryMatrix) -> np.ndarray:
    """The dense 0/1 matrix as a numpy uint8 array."""
    out = np.zeros((h.nrows, h.ncols), dtype=np.uint8)
    for j, col in enumerate(h.col_rows):
        for r in col:
            out[r, j] = 1
    return out
