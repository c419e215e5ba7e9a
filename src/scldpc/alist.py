"""Reading and writing parity-check matrices in alist text format.

Layout (MacKay's convention, column count first):

    N M
    max_col_degree max_row_degree
    <N column degrees>
    <M row degrees>
    N lines: 1-indexed row neighbors of each column, zero-padded
    M lines: 1-indexed column neighbors of each row, zero-padded

Blank lines are ignored.  ``export_alist`` joins a bounded chunk of lines
at a time, so it holds little beyond the text it returns.  ``parse_alist``
reads the text one line at a time and validates each line as it is read,
so beyond the returned matrix it holds the current line, the two degree
lists and one cursor per column.  It checks every degree, padding width
and index, that the row lists agree with the column lists (through the
cursors, without building the parsed matrix's row lists), that the
header's maximum degrees are the maxima of the degree lists (so that
export of the parsed matrix gives the text back), and that nothing follows
the last row list.
"""

from __future__ import annotations

import re
from array import array
from itertools import islice
from typing import Iterator, Optional

from .model import INDEX_TYPE, IndexLists, SparseBinaryMatrix, check_column

# A run of characters between two of the line boundaries str.splitlines uses.
_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")

# Lines of a neighbour-list section that export joins into one string, so
# that it never holds one string per line of the whole matrix.
_CHUNK_LINES = 1024


def export_alist(h: SparseBinaryMatrix) -> str:
    if h.nrows < 1 or h.ncols < 1 or h.nnz == 0:
        raise ValueError("refusing to export an empty matrix")

    def degrees(lists: IndexLists) -> tuple[str, int]:
        """The degree line, from one string per distinct degree, and the
        maximum degree."""
        lengths = lists.lengths()
        text = {d: str(d) for d in set(lengths)}
        return " ".join([text[d] for d in lengths]), max(lengths)

    def section(lists: IndexLists, width: int) -> Iterator[str]:
        """One zero-padded line of 1-based indices per list, joined a
        bounded chunk of lines at a time in one pass over ``ptr``."""
        ptr, idx = lists.ptr, lists.idx
        spans = zip(ptr, islice(ptr, 1, None))
        for _ in range(0, len(lists), _CHUNK_LINES):
            yield "\n".join(" ".join([str(v + 1) for v in idx[a:b]]
                                      + ["0"] * (width - b + a))
                             for a, b in islice(spans, _CHUNK_LINES))

    col_deg, dmax_col = degrees(h.col_rows)
    row_deg, dmax_row = degrees(h.row_cols)
    return "\n".join([f"{h.ncols} {h.nrows}", f"{dmax_col} {dmax_row}",
                       col_deg, row_deg, *section(h.col_rows, dmax_col),
                       *section(h.row_cols, dmax_row), ""])


def _lines(text: str) -> Iterator[str]:
    """Non-blank lines of ``text`` as ``str.splitlines`` cuts them, lazily."""
    for match in _LINE.finditer(text):
        line = match.group()
        if not line.isspace():
            yield line


def _token_lists(lines: Iterator[str]) -> Iterator[list[int]]:
    """Each line's integers; reading past the last is a ValueError."""
    n = 0
    for n, line in enumerate(lines, 1):
        yield [int(tok) for tok in line.split()]
    raise ValueError("truncated alist: missing "
                     + ("header" if n < 4 else "neighbor lists"))


def parse_alist(text: str) -> SparseBinaryMatrix:
    raw = _lines(text)
    lines = _token_lists(raw)
    (ncols, nrows), (dmax_col, dmax_row), col_deg, row_deg = islice(lines, 4)
    if len(col_deg) != ncols or len(row_deg) != nrows:
        raise ValueError("alist degree list length mismatch")

    ptr, idx = array(INDEX_TYPE, (0,)), array(INDEX_TYPE)
    col_error: Optional[ValueError] = None
    for j in range(ncols):
        line = next(lines)
        entries = [v - 1 for v in line if v != 0]
        if len(entries) != col_deg[j]:
            raise ValueError(f"column {j}: degree does not match entries")
        if len(line) != dmax_col:
            raise ValueError(f"column {j}: line not padded to max degree")
        if col_error is None:
            entries.sort()
            try:
                check_column(j, entries, nrows)
            except ValueError as err:
                col_error = err
                continue
            idx.extend(entries)
            ptr.append(len(idx))
    # Row lists are redundant given the column lists; check them with one
    # cursor per column.  Row indices ascend within each column and the row
    # lines come in row order, so every column that row i lists must have
    # i as its next unread entry.  No cursor passes its column's end, so
    # all of them end there iff the row lines list nnz entries in all.  A
    # bad column index or a disagreement is raised only after every row
    # line's degree and padding passed, so a given defect always yields
    # the same message.
    agree = col_error is None
    cursor = ptr[:-1]
    for i in range(nrows):
        line = next(lines)
        entries = [v - 1 for v in line if v != 0]
        if len(entries) != row_deg[i]:
            raise ValueError(f"row {i}: degree does not match entries")
        if len(line) != dmax_row:
            raise ValueError(f"row {i}: line not padded to max degree")
        for c in entries:
            if not (agree and 0 <= c < ncols and cursor[c] < ptr[c + 1]
                    and idx[cursor[c]] == i):
                agree = False
                break
            cursor[c] += 1
    if col_error is not None:
        raise col_error
    if not agree or sum(row_deg) != len(idx):
        raise ValueError("alist row/column neighbor lists disagree")
    if dmax_col != max(col_deg) or dmax_row != max(row_deg):
        raise ValueError("alist header maximum degree does not match "
                         "the degree lists")
    if next(raw, None) is not None:
        raise ValueError("trailing content after alist neighbor lists")
    return SparseBinaryMatrix._from_buffers(nrows, ncols, ptr, idx)
