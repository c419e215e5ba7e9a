"""Allocation bounds for the whole-matrix steps: QC assembly, the row
lists, and alist export and parsing.

Each step should allocate little beyond its result.  The measure is the
peak of traced allocations during the call over the bytes still traced
after it; tracemalloc counts Python allocations deterministically, so the
ratio does not depend on the machine's load.  The instance is mid-size
(3x7, m=2, L=6, Z=211: 5064 x 8862, nnz 26586), large enough that fixed
costs do not dominate.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    assemble_qc, export_alist, parse_alist)


def _instance() -> CodeInstance:
    base = BaseCode(3, 7)
    scheme = CouplingScheme.uniform(2, 6, 211)
    partition = Assignment("partition", tuple(
        tuple((i + 2 * j) % 3 for j in range(7)) for i in range(3)))
    lift = Assignment("lift", tuple(
        tuple((37 * i * j + 11 * i + 5 * j) % 211 for j in range(7))
        for i in range(3)))
    return CodeInstance(base, scheme, partition, lift)


def _peak_over_retained(fn):
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - before) / (after - before)


@pytest.fixture(scope="module")
def matrix():
    return assemble_qc(_instance())


def test_assemble_qc_allocates_little_beyond_its_result():
    inst = _instance()
    h, ratio = _peak_over_retained(lambda: assemble_qc(inst))
    assert h.nnz == 3 * 7 * 6 * 211
    assert ratio <= 2.0


def test_row_cols_allocates_little_beyond_its_result():
    h = assemble_qc(_instance())
    # A full collection empties the tuple free lists; rows served from
    # them would go untraced and make the ratio depend on earlier tests.
    gc.collect()
    rows, ratio = _peak_over_retained(lambda: h.row_cols)
    assert sum(map(len, rows)) == h.nnz
    assert ratio <= 1.5


def test_export_alist_allocates_little_beyond_its_result(matrix):
    matrix.row_cols  # the matrix builds and keeps these on first use
    text, ratio = _peak_over_retained(lambda: export_alist(matrix))
    assert text.count("\n") == 4 + matrix.ncols + matrix.nrows
    assert ratio <= 3.5


def test_parse_alist_allocates_little_beyond_its_result(matrix):
    text = export_alist(matrix)
    h, ratio = _peak_over_retained(lambda: parse_alist(text))
    assert h == matrix
    assert ratio <= 2.5
