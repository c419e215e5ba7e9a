from __future__ import annotations

import math

import numpy as np

from scldpc import SparseBinaryMatrix, girth
from helpers import from_entries


def _m(rows: list[list[int]]) -> SparseBinaryMatrix:
    arr = np.array(rows, dtype=np.uint8)
    entries = [(int(r), int(c)) for r, c in zip(*np.nonzero(arr))]
    return from_entries(arr.shape[0], arr.shape[1], entries)


def tanner_has_4cycle(h: SparseBinaryMatrix) -> bool:
    """True iff two rows share two columns (direct structural test)."""
    seen: set[tuple[int, int]] = set()
    for col in h.col_rows:
        d = len(col)
        for a in range(d):
            for b in range(a + 1, d):
                pair = (col[a], col[b])
                if pair in seen:
                    return True
                seen.add(pair)
    return False


def _girth_reference(h: SparseBinaryMatrix) -> float:
    """Exhaustive reference: shortest cycle through each vertex via plain
    BFS over the bipartite adjacency, written independently."""
    nv = h.nrows + h.ncols

    def neighbors(u: int) -> list[int]:
        if u < h.nrows:
            return [h.nrows + c for c in h.row_cols[u]]
        return list(h.col_rows[u - h.nrows])

    best = math.inf
    for s in range(nv):
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v and dist[v] >= dist[u]:
                        best = min(best, dist[u] + dist[v] + 1)
            frontier = nxt
    return best


def test_girth_known_graphs():
    assert girth(_m([[1, 1], [1, 1]])) == 4
    assert math.isinf(girth(_m([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    assert girth(_m([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 6
    # tree: a star
    assert math.isinf(girth(_m([[1, 1, 1, 1]])))


def test_girth_eight():
    # 8-cycle as a bipartite incidence: 4 checks, 4 variables in a ring
    rows = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    assert girth(_m(rows)) == 8


def test_girth_matches_reference_on_random_matrices():
    rng = np.random.default_rng(1234)
    for _ in range(40):
        nr = int(rng.integers(2, 7))
        nc = int(rng.integers(2, 7))
        dense = (rng.random((nr, nc)) < 0.45).astype(np.uint8)
        entries = [(int(r), int(c)) for r, c in zip(*np.nonzero(dense))]
        if not entries:
            continue
        h = from_entries(nr, nc, entries)
        assert girth(h) == _girth_reference(h)
        assert tanner_has_4cycle(h) == (girth(h) == 4)


def test_4cycle_detector_is_column_pair_collision():
    # two columns sharing two rows <=> 4-cycle
    assert tanner_has_4cycle(_m([[1, 1], [1, 1], [0, 1]]))
    assert not tanner_has_4cycle(_m([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
