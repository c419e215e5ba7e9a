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
from typing import Iterable

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


def classify_absorbing_set(h: SparseBinaryMatrix,
                           vns: Iterable[int]) -> tuple[int, int, bool]:
    """Classify a variable-node subset S as an (a, b) absorbing set.

    a = |S|; b = number of check nodes with odd degree into S.  S is
    absorbing iff every variable in S with at least one check neighbor has
    strictly more even-degree (into S) neighbors than odd-degree ones;
    variables with no neighbors pass vacuously.  Consequences worth spelling
    out: a subset touching no check node has b = 0 and classifies as
    absorbing, and a single variable of degree d >= 1 never does (0 even
    neighbors vs d odd).
    """
    s = sorted(vns)
    if len(set(s)) != len(s):
        raise ValueError("duplicate variable index in subset")
    if any(v < 0 or v >= h.ncols for v in s):
        raise ValueError("variable index out of range")
    degree_into_s: dict[int, int] = {}
    for v in s:
        for r in h.col_rows[v]:
            degree_into_s[r] = degree_into_s.get(r, 0) + 1
    odd_checks = {r for r, d in degree_into_s.items() if d % 2}
    a, b = len(s), len(odd_checks)
    absorbing = True
    for v in s:
        neighbors = h.col_rows[v]
        if not neighbors:
            continue  # vacuously fine: no odd neighbors to outnumber
        odd = sum(1 for r in neighbors if r in odd_checks)
        even = len(neighbors) - odd
        if not even > odd:
            absorbing = False
            break
    return a, b, absorbing
