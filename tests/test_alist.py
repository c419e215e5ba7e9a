from __future__ import annotations

import numpy as np
import pytest

from scldpc import SparseBinaryMatrix, export_alist, parse_alist
from dense import to_dense


def _random_matrix(rng: np.random.Generator) -> SparseBinaryMatrix:
    while True:
        nrows = int(rng.integers(1, 9))
        ncols = int(rng.integers(1, 9))
        dense = rng.integers(0, 2, size=(nrows, ncols))
        if dense.sum() > 0:
            break
    entries = [(int(r), int(c)) for r, c in zip(*np.nonzero(dense))]
    return SparseBinaryMatrix.from_entries(nrows, ncols, entries)


def test_known_text_layout():
    # 2x3 matrix: rows (1,1,0) and (0,1,1).  The header is
    # "<ncols> <nrows>", indices are 1-based, and short neighbor lists
    # are zero-padded to the maximum degree.
    h = SparseBinaryMatrix.from_entries(2, 3, [(0, 0), (0, 1), (1, 1),
                                               (1, 2)])
    lines = export_alist(h).splitlines()
    assert lines[0] == "3 2"
    assert lines[1] == "2 2"           # max column degree, max row degree
    assert lines[2] == "1 2 1"         # column degrees
    assert lines[3] == "2 2"           # row degrees
    assert lines[4] == "1 0"           # column 1 -> row 1 (padded)
    assert lines[5] == "1 2"           # column 2 -> rows 1,2
    assert lines[6] == "2 0"           # column 3 -> row 2 (padded)
    assert lines[7] == "1 2"           # row 1 -> columns 1,2
    assert lines[8] == "2 3"           # row 2 -> columns 2,3
    assert len(lines) == 9


def test_roundtrip_random_matrices():
    rng = np.random.default_rng(20240814)
    for _ in range(50):
        h = _random_matrix(rng)
        back = parse_alist(export_alist(h))
        assert back == h
        assert np.array_equal(to_dense(back), to_dense(h))


def test_refuses_empty_matrix():
    with pytest.raises(ValueError):
        export_alist(SparseBinaryMatrix.from_entries(2, 2, []))


def test_parse_rejects_truncation():
    h = SparseBinaryMatrix.from_entries(2, 2, [(0, 0), (1, 1)])
    text = export_alist(h)
    lines = text.splitlines()
    with pytest.raises(ValueError):
        parse_alist("\n".join(lines[:3]))


def test_parse_rejects_degree_mismatch():
    h = SparseBinaryMatrix.from_entries(2, 2, [(0, 0), (1, 1)])
    lines = export_alist(h).splitlines()
    lines[2] = "2 1"  # claim column 1 has two neighbors
    with pytest.raises(ValueError):
        parse_alist("\n".join(lines))


def test_parse_rejects_inconsistent_cross_lists():
    h = SparseBinaryMatrix.from_entries(2, 2, [(0, 0), (1, 1)])
    lines = export_alist(h).splitlines()
    # swap the row-side neighbor lists so they contradict the column side
    lines[-2], lines[-1] = lines[-1], lines[-2]
    with pytest.raises(ValueError):
        parse_alist("\n".join(lines))


def test_parse_rejects_out_of_range_index():
    h = SparseBinaryMatrix.from_entries(2, 2, [(0, 0), (1, 1)])
    lines = export_alist(h).splitlines()
    lines[4] = "3"  # row index beyond nrows
    with pytest.raises(ValueError):
        parse_alist("\n".join(lines))


def _two_by_three_lines() -> list[str]:
    # Rows (1,1,0) and (0,1,1), as in test_known_text_layout.
    h = SparseBinaryMatrix.from_entries(2, 3, [(0, 0), (0, 1), (1, 1),
                                               (1, 2)])
    return export_alist(h).splitlines()


@pytest.mark.parametrize("lines_kept, message", [
    (5, "missing neighbor lists"),      # inside the column lines
    (8, "missing neighbor lists"),      # inside the row lines
])
def test_parse_rejects_truncated_neighbor_lists(lines_kept, message):
    lines = _two_by_three_lines()
    with pytest.raises(ValueError, match=message):
        parse_alist("\n".join(lines[:lines_kept]))


def test_parse_rejects_row_line_defects():
    lines = _two_by_three_lines()
    bad_padding = lines[:7] + ["1 2 0"] + lines[8:]
    with pytest.raises(ValueError, match="row 0: line not padded"):
        parse_alist("\n".join(bad_padding))
    out_of_range = lines[:8] + ["2 4"]  # column 4 of a 3-column matrix
    with pytest.raises(ValueError, match="disagree"):
        parse_alist("\n".join(out_of_range))


def test_parse_rejects_trailing_content():
    lines = _two_by_three_lines()
    for extra in (["1 2"], ["", "7"], ["x"]):
        with pytest.raises(ValueError, match="trailing content"):
            parse_alist("\n".join(lines + extra))
    # Trailing blank lines are not content.
    assert parse_alist("\n".join(lines + ["", "  "])).nnz == 4


@pytest.mark.parametrize("side", ["column", "row"])
def test_parse_rejects_header_max_degree_above_actual(side):
    # Declare a maximum degree one above the real one and pad every line
    # of that side to it: each line is self-consistent, but exporting the
    # parsed matrix would not give this text back.
    lines = _two_by_three_lines()
    dmax_col, dmax_row = map(int, lines[1].split())
    if side == "column":
        lines[1] = f"{dmax_col + 1} {dmax_row}"
        span = range(4, 7)
    else:
        lines[1] = f"{dmax_col} {dmax_row + 1}"
        span = range(7, 9)
    for k in span:
        lines[k] += " 0"
    with pytest.raises(ValueError, match="maximum degree"):
        parse_alist("\n".join(lines))


def test_parse_accepts_any_line_break():
    lines = _two_by_three_lines()
    h = parse_alist("\n".join(lines))
    for sep in ("\r\n", "\r", "\n\n", "\f"):
        assert parse_alist(sep.join(lines)) == h
