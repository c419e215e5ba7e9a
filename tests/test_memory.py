"""Allocation bounds for the whole-matrix steps: QC assembly, the row
lists, girth, and alist export and parsing.

Each step should allocate little beyond its result: the measure is the
peak of traced allocations during the call over the bytes still traced
after it.  A matrix with its row lists should also retain little per
nonzero.  tracemalloc counts Python allocations deterministically, so
neither figure depends on the machine's load.  The instance is mid-size
(3x7, m=2, L=6, Z=211: 5064 x 8862, nnz 26586), large enough that fixed
costs do not dominate.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    assemble_qc, export_alist, girth, parse_alist)


def _instance() -> CodeInstance:
    base = BaseCode(3, 7)
    scheme = CouplingScheme.uniform(2, 6, 211)
    partition = Assignment("partition", tuple(
        tuple((i + 2 * j) % 3 for j in range(7)) for i in range(3)))
    lift = Assignment("lift", tuple(
        tuple((37 * i * j + 11 * i + 5 * j) % 211 for j in range(7))
        for i in range(3)))
    return CodeInstance(base, scheme, partition, lift)


def _traced(fn):
    """fn's result, the bytes it left traced, and its traced peak."""
    # A full collection empties the tuple and list free lists; objects
    # served from them would go untraced and make the figures depend on
    # the tests that ran before in the same process.
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def _peak_over_retained(fn):
    result, retained, peak = _traced(fn)
    return result, peak / retained


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


def test_matrix_and_row_lists_retain_few_bytes_per_nonzero():
    # Flat index buffers: 8 bytes per nonzero on each side plus the two
    # pointer buffers; one Python object per nonzero would be over 24.
    inst = _instance()

    def assemble_with_rows():
        h = assemble_qc(inst)
        h.row_cols
        return h

    h, retained, _ = _traced(assemble_with_rows)
    assert retained / h.nnz <= 24
    text = export_alist(h)
    parsed, retained, _ = _traced(lambda: parse_alist(text))
    assert parsed == h
    assert retained / parsed.nnz <= 24


# 32-bit index buffers: 4 bytes per nonzero on each side, plus the two
# pointer buffers (about 2 bytes per nonzero here).

def test_matrix_and_row_lists_retain_at_most_12_bytes_per_nonzero():
    inst = _instance()

    def assemble_with_rows():
        h = assemble_qc(inst)
        h.row_cols
        return h

    h, retained, _ = _traced(assemble_with_rows)
    assert retained / h.nnz <= 12


def test_parse_alist_result_retains_at_most_8_bytes_per_nonzero(matrix):
    # The parsed matrix keeps its column buffers only; the row lists are
    # checked without building them.
    text = export_alist(matrix)
    parsed, retained, _ = _traced(lambda: parse_alist(text))
    assert parsed == matrix
    assert retained / parsed.nnz <= 8


def test_girth_peaks_at_most_8_bytes_per_nonzero_beyond_its_input(matrix):
    # The BFS reads the matrix's own buffers; beyond them it holds three
    # work arrays of one index per vertex and its queue.
    matrix.row_cols  # part of the input: the matrix keeps them
    g, _, peak = _traced(lambda: girth(matrix))
    assert g >= 4
    assert peak / matrix.nnz <= 8
