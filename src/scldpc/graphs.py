"""Independent structural verifiers on explicit Tanner graphs.

Everything here works straight off a parity-check matrix and knows nothing
about how it was constructed, so these routines can serve as oracles for
the algebraic activation conditions.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from itertools import islice

from .model import INDEX_TYPE, SparseBinaryMatrix


def girth(h: SparseBinaryMatrix) -> float:
    """Length of the shortest cycle in the Tanner graph (inf if a forest).

    BFS from a set of sources; when the frontier meets itself the enclosing
    cycle has length 2*depth or 2*depth - 1 (odd cycles cannot occur in a
    bipartite graph but the generic rule costs nothing).  A BFS from a
    vertex on a shortest cycle finds it, so the sources must meet every
    shortest cycle up to a graph automorphism.  In general they are all
    vertices.  On a matrix ``assemble_qc`` built from Z x Z circulants,
    adding 1 mod Z to every index within its block maps the graph onto
    itself, and every cycle passes through a variable node, so the first
    variable node of each column block suffices (Fossorier, IEEE T-IT
    2004).  Exact, and early exits once a 4-cycle is certain.
    """
    n_rows = h.nrows
    n = n_rows + h.ncols
    rows, cols = h.row_cols, h.col_rows
    # Check nodes are 0..n_rows-1, variable nodes n_rows..n-1; the
    # neighbours of node u are adj[ptr[u]:ptr[u + 1]].
    nnz = len(cols.idx)
    ptr = array(INDEX_TYPE, rows.ptr)
    ptr.extend(p + nnz for p in islice(cols.ptr, 1, None))
    adj = array(INDEX_TYPE, (v + n_rows for v in rows.idx))
    adj.extend(cols.idx)
    z = h.circulant_size
    sources = range(n) if z is None else range(n_rows, n, z)

    best = math.inf
    dist = array(INDEX_TYPE, (0,)) * n
    parent = array(INDEX_TYPE, (-1,)) * n
    stamp = array(INDEX_TYPE, (0,)) * n
    for epoch, src in enumerate(sources, 1):
        dist[src] = 0
        parent[src] = -1
        stamp[src] = epoch
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du >= best:
                break
            pu = parent[u]
            for v in adj[ptr[u]:ptr[u + 1]]:
                if v == pu:
                    continue
                if stamp[v] != epoch:
                    stamp[v] = epoch
                    dist[v] = du + 1
                    parent[v] = u
                    queue.append(v)
                else:
                    # Cross edge inside one BFS tree: cycle through src.
                    best = min(best, du + dist[v] + 1)
        if best == 4:
            return 4
    return best


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
