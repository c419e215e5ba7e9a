from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scldpc import (Assignment, BaseCode, CodeInstance, CouplingScheme,
                    SparseBinaryMatrix, WalkCandidate, assemble_protograph,
                    assemble_qc, export_alist, girth, parse_alist)
from dense import to_dense
from test_graphs import _girth_reference


def _grid(base: BaseCode, fn) -> Assignment:
    values = tuple(tuple(fn(i, j) if base.has_edge(i, j) else None
                         for j in range(base.kappa))
                   for i in range(base.gamma))
    return Assignment("partition", values)


def _lift_grid(base: BaseCode, fn) -> Assignment:
    values = tuple(tuple(fn(i, j) if base.has_edge(i, j) else None
                         for j in range(base.kappa))
                   for i in range(base.gamma))
    return Assignment("lift", values)


# ---------------------------------------------------------------------------
# SparseBinaryMatrix
# ---------------------------------------------------------------------------

def test_sparse_matrix_roundtrip():
    entries = [(0, 0), (2, 1), (1, 0), (0, 2)]
    h = SparseBinaryMatrix.from_entries(3, 3, entries)
    dense = to_dense(h)
    expect = np.zeros((3, 3), dtype=np.uint8)
    for r, c in entries:
        expect[r, c] = 1
    assert np.array_equal(dense, expect)
    assert h.nnz == 4
    assert h == SparseBinaryMatrix.from_entries(3, 3, reversed(entries))


def test_sparse_matrix_rejects_unsorted_columns():
    with pytest.raises(ValueError):
        SparseBinaryMatrix(2, 2, ((1, 0), (0,)))


def test_sparse_matrix_row_adjacency():
    h = SparseBinaryMatrix.from_entries(2, 3, [(0, 0), (0, 2), (1, 2)])
    assert h.row_cols == ((0, 2), (2,))
    assert h.col_rows == ((0,), (), (0, 1))


@st.composite
def _matrices(draw) -> SparseBinaryMatrix:
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    entries = draw(st.sets(st.tuples(st.integers(0, nrows - 1),
                                     st.integers(0, ncols - 1)),
                           max_size=40)) if nrows and ncols else ()
    return SparseBinaryMatrix.from_entries(nrows, ncols, entries)


@settings(max_examples=200, deadline=None)
@given(h=_matrices())
def test_row_cols_is_the_transpose_and_alist_round_trips(h):
    rows = tuple(tuple(j for j in range(h.ncols) if i in h.col_rows[j])
                 for i in range(h.nrows))
    assert h.row_cols == rows
    assert sum(map(len, h.row_cols)) == h.nnz
    assert h.circulant_size is None
    if h.nnz:
        back = parse_alist(export_alist(h))
        assert back == h
        assert back.row_cols == rows


# ---------------------------------------------------------------------------
# BaseCode / CouplingScheme validation
# ---------------------------------------------------------------------------

def test_base_code_defaults_all_ones():
    base = BaseCode(2, 3)
    assert base.is_all_ones
    assert base.edges == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


def test_base_code_mask():
    base = BaseCode(2, 2, mask=((1, 0), (1, 1)))
    assert not base.is_all_ones
    assert base.edges == ((0, 0), (1, 0), (1, 1))
    assert base.has_edge(1, 1) and not base.has_edge(0, 1)


def test_base_code_rejects_bad_dims():
    with pytest.raises(ValueError):
        BaseCode(0, 3)
    with pytest.raises(ValueError):
        BaseCode(2, 2, mask=((1, 1),))


def test_scheme_uniform():
    s = CouplingScheme.uniform(2)
    assert s.pattern == (0, 1, 2)
    assert s.probs == (Fraction(1, 3),) * 3
    assert s.memory == 2
    assert s.coupling_length == 3
    assert s.lifting_degree == 1


def test_scheme_length_defaults_to_memory_plus_one():
    s = CouplingScheme((0, 2), (Fraction(1, 2), Fraction(1, 2)))
    assert s.coupling_length == 3


def test_scheme_validation():
    with pytest.raises(ValueError):
        CouplingScheme((1, 0), (Fraction(1, 2), Fraction(1, 2)), 2, 1)
    with pytest.raises(ValueError):
        CouplingScheme((0, 1), (Fraction(1, 2), Fraction(1, 3)), 2, 1)
    with pytest.raises(ValueError):
        CouplingScheme((0, 1), (Fraction(1, 2), Fraction(1, 2)), 1, 1)
    with pytest.raises(ValueError):
        CouplingScheme.uniform(1, lifting_degree=0)
    with pytest.raises(TypeError):
        CouplingScheme((0, 1), (0.5, 0.5), 2, 1)


@pytest.mark.parametrize("build", [
    lambda: BaseCode(1, 2, mask=((0.9, 1),)),
    lambda: CouplingScheme((0, 1.7), ("1/2", "1/2"), 2),
    lambda: Assignment("partition", ((0.9, 1),)),
    lambda: Assignment.from_dict("lift", {(0, 0): 3.7}, 1, 1),
    lambda: WalkCandidate.from_nodes((0.5, 0, 1, 1)),
], ids=["mask", "pattern", "assignment", "from-dict", "walk-nodes"])
def test_constructors_reject_non_integers(build):
    # int() would truncate these silently (0.9 -> 0, 1.7 -> 1).
    with pytest.raises(TypeError):
        build()


def test_constructors_accept_numpy_integers():
    one, zero = np.int64(1), np.uint8(0)
    assert BaseCode(1, 2, mask=((one, zero),)).mask == ((1, 0),)
    assert CouplingScheme((zero, one), ("1/2", "1/2"), 2).pattern == (0, 1)
    assert Assignment("lift", ((one, None),)).values == ((1, None),)
    assert WalkCandidate.from_nodes(np.arange(4)) == \
        WalkCandidate.from_nodes((0, 1, 2, 3))


# ---------------------------------------------------------------------------
# Protograph assembly
# ---------------------------------------------------------------------------

def test_trivial_single_edge_uncoupled():
    base = BaseCode(1, 1)
    scheme = CouplingScheme.uniform(0)
    partition = _grid(base, lambda i, j: 0)
    h = assemble_protograph(base, partition, scheme)
    assert np.array_equal(to_dense(h), np.array([[1]], dtype=np.uint8))


def test_hand_built_2x2_protograph():
    # Alternating spreading on a 2x2 base with memory 1, two replicas.
    # Replica r puts the (i, j) edge at row (r + P(i,j)) * 2 + i,
    # column r * 2 + j; writing the eight placements out by hand gives
    # the matrix below.
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1)
    partition = _grid(base, lambda i, j: (i + j) % 2)
    h = assemble_protograph(base, partition, scheme)
    expect = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ], dtype=np.uint8)
    assert np.array_equal(to_dense(h), expect)


def test_replica_blocks_identical():
    rng = np.random.default_rng(7)
    for _ in range(20):
        gamma = int(rng.integers(1, 4))
        kappa = int(rng.integers(1, 5))
        m = int(rng.integers(0, 3))
        length = m + 1 + int(rng.integers(0, 3))
        base = BaseCode(gamma, kappa)
        scheme = CouplingScheme.uniform(m, length)
        partition = _grid(base,
                          lambda i, j: int(rng.integers(0, m + 1)))
        dense = to_dense(assemble_protograph(base, partition, scheme))
        window = (m + 1) * gamma
        first = dense[0:window, 0:kappa]
        for r in range(1, length):
            block = dense[r * gamma:r * gamma + window,
                          r * kappa:(r + 1) * kappa]
            assert np.array_equal(block, first)


def test_protograph_edge_conservation():
    base = BaseCode(3, 4, mask=((1, 1, 0, 1), (1, 1, 1, 1), (0, 1, 1, 1)))
    scheme = CouplingScheme.uniform(2, 5)
    partition = _grid(base, lambda i, j: (i * j) % 3)
    h = assemble_protograph(base, partition, scheme)
    assert h.nnz == 5 * len(base.edges)
    assert h.nrows == 3 * (5 + 2) and h.ncols == 4 * 5


def test_partition_value_outside_pattern_rejected():
    base = BaseCode(2, 2)
    scheme = CouplingScheme((0, 2), (Fraction(1, 2), Fraction(1, 2)), 3, 1)
    partition = _grid(base, lambda i, j: 1)
    with pytest.raises(ValueError):
        assemble_protograph(base, partition, scheme)


def test_partition_must_cover_every_edge():
    base = BaseCode(2, 2)
    scheme = CouplingScheme.uniform(1)
    partition = Assignment("partition", ((0, None), (0, 1)))
    with pytest.raises(ValueError):
        assemble_protograph(base, partition, scheme)


# ---------------------------------------------------------------------------
# Circulant lifting
# ---------------------------------------------------------------------------

def test_circulant_convention():
    # One edge, no coupling, Z = 3, shift 1: row r has its one at
    # column c with r = (c + 1) mod 3.
    base = BaseCode(1, 1)
    scheme = CouplingScheme.uniform(0, lifting_degree=3)
    inst = CodeInstance(base, scheme,
                        _grid(base, lambda i, j: 0),
                        _lift_grid(base, lambda i, j: 1))
    dense = to_dense(assemble_qc(inst))
    expect = np.zeros((3, 3), dtype=np.uint8)
    for c in range(3):
        expect[(c + 1) % 3, c] = 1
    assert np.array_equal(dense, expect)


def test_qc_dimensions_and_weight():
    base = BaseCode(2, 3)
    scheme = CouplingScheme.uniform(1, 3, 4)
    inst = CodeInstance(base, scheme,
                        _grid(base, lambda i, j: (i + j) % 2),
                        _lift_grid(base, lambda i, j: (2 * i + j) % 4))
    h = assemble_qc(inst)
    assert h.nrows == 2 * (3 + 1) * 4
    assert h.ncols == 3 * 3 * 4
    assert h.nnz == 4 * 3 * len(base.edges)
    # every lifted row/column keeps the protograph degree structure
    proto = assemble_protograph(base, inst.partition, scheme)
    dense = to_dense(h)
    pd = to_dense(proto)
    for row_block in range(proto.nrows):
        weight = int(pd[row_block].sum())
        for r in range(4):
            assert int(dense[row_block * 4 + r].sum()) == weight


def test_zero_shift_gives_identity_blocks():
    base = BaseCode(1, 2)
    scheme = CouplingScheme.uniform(0, lifting_degree=4)
    inst = CodeInstance(base, scheme,
                        _grid(base, lambda i, j: 0),
                        _lift_grid(base, lambda i, j: 0))
    dense = to_dense(assemble_qc(inst))
    assert np.array_equal(dense[:, :4], np.eye(4, dtype=np.uint8))
    assert np.array_equal(dense[:, 4:], np.eye(4, dtype=np.uint8))


def _assemble_qc_entries(instance: CodeInstance) -> SparseBinaryMatrix:
    """Reference assembly: collect every (row, column) entry, then sort."""
    base, scheme = instance.base, instance.scheme
    m = scheme.memory
    length = scheme.coupling_length
    z = scheme.lifting_degree
    nrows = base.gamma * (length + m) * z
    ncols = base.kappa * length * z
    entries = []
    for r in range(length):
        for (i, j) in base.edges:
            k = instance.partition.values[i][j]
            x = instance.lift.values[i][j]
            big_r = ((r + k) * base.gamma + i) * z
            big_c = (r * base.kappa + j) * z
            for c in range(z):
                entries.append((big_r + (c + x) % z, big_c + c))
    return SparseBinaryMatrix.from_entries(nrows, ncols, entries)


@st.composite
def _instances(draw) -> CodeInstance:
    gamma = draw(st.integers(1, 4))
    kappa = draw(st.integers(1, 6))
    mask = draw(st.lists(st.lists(st.integers(0, 1), min_size=kappa,
                                  max_size=kappa),
                         min_size=gamma, max_size=gamma))
    m = draw(st.integers(0, 3))
    length = draw(st.integers(m + 1, m + 4))
    z = draw(st.integers(1, 13))
    base = BaseCode(gamma, kappa, mask=tuple(map(tuple, mask)))
    partition = _grid(base, lambda i, j: draw(st.integers(0, m)))
    lift = _lift_grid(base, lambda i, j: draw(st.integers(0, z - 1)))
    return CodeInstance(base, CouplingScheme.uniform(m, length, z),
                        partition, lift)


@settings(max_examples=150, deadline=None)
@given(inst=_instances())
def test_assemble_qc_matches_entry_assembly(inst):
    h = assemble_qc(inst)
    ref = _assemble_qc_entries(inst)
    assert (h.nrows, h.ncols) == (ref.nrows, ref.ncols)
    assert h.col_rows == ref.col_rows


@settings(max_examples=100, deadline=None)
@given(inst=_instances())
def test_girth_from_circulant_sources_matches_every_vertex_bfs(inst):
    h = assemble_qc(inst)
    ref = _assemble_qc_entries(inst)
    assert h.circulant_size == inst.scheme.lifting_degree
    assert ref.circulant_size is None
    assert ref == h and hash(ref) == hash(h)
    g = girth(h)  # one source per column block
    assert g == girth(ref)  # every vertex a source
    assert g == _girth_reference(ref)


def test_instance_validates_lift_range():
    base = BaseCode(1, 1)
    scheme = CouplingScheme.uniform(0, lifting_degree=3)
    with pytest.raises(ValueError):
        CodeInstance(base, scheme,
                     _grid(base, lambda i, j: 0),
                     _lift_grid(base, lambda i, j: 3))


def test_instance_validates_stage_names():
    base = BaseCode(1, 1)
    scheme = CouplingScheme.uniform(0, lifting_degree=2)
    lift = _lift_grid(base, lambda i, j: 0)
    with pytest.raises(ValueError):
        CodeInstance(base, scheme, lift, lift)


def test_assignment_from_dict_roundtrip():
    base = BaseCode(2, 3)
    a = Assignment.from_dict("partition",
                             {e: k for k, e in enumerate(base.edges)},
                             base.gamma, base.kappa)
    assert a.covers(base)
    assert dict(a.items()) == {e: k for k, e in enumerate(base.edges)}
    assert a[(1, 2)] == 5
