"""An independent structural verifier on explicit Tanner graphs.

``girth`` works straight off a parity-check matrix's index buffers and,
beyond an optional circulant size, knows nothing about how the matrix was
constructed, so it can serve as an oracle for the algebraic activation
conditions.
"""

from __future__ import annotations

import math
from array import array
from collections import deque

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
    # Check nodes are 0..n_rows-1 and variable nodes n_rows..n-1.  Check
    # node u's neighbours are n_rows + row_cols[u]; variable node
    # n_rows + c's are col_rows[c], read in place from the matrix.
    row_ptr, row_idx = h.row_cols.ptr, h.row_cols.idx
    col_ptr, col_idx = h.col_rows.ptr, h.col_rows.idx
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
            if u < n_rows:
                adj, off = row_idx[row_ptr[u]:row_ptr[u + 1]], n_rows
            else:
                c = u - n_rows
                adj, off = col_idx[col_ptr[c]:col_ptr[c + 1]], 0
            for v in adj:
                v += off
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

