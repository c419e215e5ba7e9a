"""``parse_alist`` against the parser it replaced.

``_old_parse_alist`` below is the parser as it was before its row lines
were checked with one cursor per column, verbatim, with the two line
readers it called.  That parser built the parsed matrix's transposed
buffers and compared each row line with them.  On exported text with one
random edit, both parsers must return equal matrices, or raise the same
exception type with the same message.
"""

from __future__ import annotations

import re
from array import array
from itertools import islice
from typing import Iterator, Optional

from hypothesis import given, settings, strategies as st

from scldpc import SparseBinaryMatrix, export_alist, parse_alist
from scldpc.model import INDEX_TYPE, check_column
from helpers import from_entries

_OLD_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _old_lines(text: str) -> Iterator[str]:
    """Non-blank lines of ``text`` as ``str.splitlines`` cuts them, lazily."""
    for match in _OLD_LINE.finditer(text):
        line = match.group()
        if not line.isspace():
            yield line


def _old_token_lists(lines: Iterator[str]) -> Iterator[list[int]]:
    """Each line's integers; reading past the last is a ValueError."""
    n = 0
    for n, line in enumerate(lines, 1):
        yield [int(tok) for tok in line.split()]
    raise ValueError("truncated alist: missing "
                     + ("header" if n < 4 else "neighbor lists"))


def _old_parse_alist(text: str) -> SparseBinaryMatrix:
    raw = _old_lines(text)
    lines = _old_token_lists(raw)
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
    h = None if col_error else SparseBinaryMatrix._from_buffers(
        nrows, ncols, ptr, idx)
    # Row lists are redundant given the column lists; cross-check each
    # against the transposed buffers.  A bad column index or a
    # disagreement is raised only after every row line's degree and
    # padding passed, so a given defect always yields the same message.
    agree = h is not None
    rows = h.row_cols if agree else None
    for i in range(nrows):
        line = next(lines)
        entries = sorted(v - 1 for v in line if v != 0)
        if len(entries) != row_deg[i]:
            raise ValueError(f"row {i}: degree does not match entries")
        if len(line) != dmax_row:
            raise ValueError(f"row {i}: line not padded to max degree")
        agree = agree and (
            rows.idx[rows.ptr[i]:rows.ptr[i + 1]].tolist() == entries)
    if h is None:
        raise col_error
    if not agree:
        raise ValueError("alist row/column neighbor lists disagree")
    if dmax_col != max(col_deg) or dmax_row != max(row_deg):
        raise ValueError("alist header maximum degree does not match "
                         "the degree lists")
    if next(raw, None) is not None:
        raise ValueError("trailing content after alist neighbor lists")
    return h


def _outcome(parse, text: str):
    """The parsed matrix, or the type and message of what parse raised."""
    try:
        return parse(text)
    except Exception as err:  # the comparison covers every exception
        return type(err), str(err)


@st.composite
def _matrices(draw) -> SparseBinaryMatrix:
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    entries = draw(st.sets(st.tuples(st.integers(0, nrows - 1),
                                     st.integers(0, ncols - 1)),
                           min_size=1, max_size=30))
    return from_entries(nrows, ncols, entries)


_EDITS = ("swap-rows", "shuffle-line", "set-entry", "duplicate",
          "wrap-negative", "drop-row-entry", "pad-extra", "pad-short",
          "none")


def _edit(draw, h: SparseBinaryMatrix, kind: str) -> list[str]:
    """The exported lines of h with one edit of the given kind."""
    lines = export_alist(h).splitlines()
    first_row = 4 + h.ncols
    body = range(4, len(lines))
    if kind == "swap-rows" and h.nrows > 1:
        a, b = draw(st.lists(st.integers(first_row, len(lines) - 1),
                             min_size=2, max_size=2, unique=True))
        lines[a], lines[b] = lines[b], lines[a]
    elif kind == "shuffle-line":
        k = draw(st.sampled_from(body))
        lines[k] = " ".join(draw(st.permutations(lines[k].split())))
    elif kind == "set-entry":
        # Any line, the header and degree lines included.
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        t = draw(st.integers(0, len(tokens) - 1))
        bound = max(h.nrows, h.ncols) + 2
        tokens[t] = str(draw(st.integers(-3, bound)
                             | st.sampled_from([2 ** 31, 2 ** 63,
                                                -2 ** 31 - 1])))
        lines[k] = " ".join(tokens)
    elif kind == "duplicate":
        k = draw(st.sampled_from(body))
        tokens = lines[k].split()
        src, dst = (draw(st.integers(0, len(tokens) - 1)) for _ in range(2))
        tokens[dst] = tokens[src]
        lines[k] = " ".join(tokens)
    elif kind == "wrap-negative":
        # Entry u becomes u - n, n the other side's dimension: read as a
        # Python index, it would name the same column (row) as u.
        k, t = draw(st.sampled_from(
            [(k, t) for k in body
             for t, tok in enumerate(lines[k].split()) if tok != "0"]))
        tokens = lines[k].split()
        n = h.nrows if k < first_row else h.ncols
        tokens[t] = str(int(tokens[t]) - n)
        lines[k] = " ".join(tokens)
    elif kind == "drop-row-entry":
        # One row line loses an entry and its degree agrees: each line is
        # consistent, but a column now lists a row that does not list it.
        i = draw(st.sampled_from([i for i in range(h.nrows)
                                  if h.row_cols[i]]))
        tokens = lines[first_row + i].split()
        t = draw(st.integers(0, len(h.row_cols[i]) - 1))
        lines[first_row + i] = " ".join(tokens[:t] + tokens[t + 1:] + ["0"])
        degrees = lines[3].split()
        degrees[i] = str(int(degrees[i]) - 1)
        lines[3] = " ".join(degrees)
    elif kind == "pad-extra":
        lines[draw(st.sampled_from(body))] += " 0"
    elif kind == "pad-short":
        k = draw(st.sampled_from(body))
        lines[k] = lines[k].rsplit(" ", 1)[0] if " " in lines[k] else ""
    return lines


@settings(max_examples=600, deadline=None)
@given(h=_matrices(), kind=st.sampled_from(_EDITS),
       sep=st.sampled_from(["\n", "\r\n", "\r"]), data=st.data())
def test_parse_alist_matches_old_parser_on_single_edits(h, kind, sep, data):
    text = sep.join(_edit(data.draw, h, kind)) + sep
    old = _outcome(_old_parse_alist, text)
    new = _outcome(parse_alist, text)
    assert new == old
    if kind == "none":
        assert new == h and hash(new) == hash(h)
