"""Hot inner loops: triangle/K4-link enumeration and integer blocking-flow.

The enumerations have no per-edge or per-triangle loop. Each is a sequence
of numpy passes over blocks of rows (edges for triangles, triangles for
links): one pass intersects the adjacency rows of a whole block and takes
the candidate vertices above the row's largest vertex from the resulting
(rows, n) bool mask. A block has max(1, `_BLOCK_CELLS` // n) rows, so its
mask holds at most `_BLOCK_CELLS` cells and it finds at most that many
triangles or K4s. Counting the masks, the int32 edge-id rows of a link
block, and the int64 indices and the keys of what it finds, a block's
temporaries stay below 84 bytes a cell, 22 MB. What is kept across blocks
is the output: 12 bytes a triangle, and one key per link, 4 bytes while
m**2 < 2**31 and 8 beyond, until one sort puts the keys in canonical order.

The flow kernel is Dinic over plain Python integers on a network in CSR
order, so capacities of any magnitude stay exact; `maxflow.max_flow` runs it
only on networks whose values scipy's int32 Dinic cannot be proven to hold,
and derives the value and the cut from the per-slot flows it returns.
"""

from __future__ import annotations

import numpy as np

_BLOCK_CELLS = 1 << 18


def pair_keys(first, second, base):
    """One sortable key first * base + second per pair, for values in
    [0, base): int32 when base**2 fits, which sorts about three times as fast
    as int64 and takes half the memory, else int64."""
    dtype = np.int32 if base * base < 1 << 31 else np.int64
    keys = np.multiply(first, base, dtype=dtype)
    keys += second
    return keys


def split_keys(keys, base):
    """The (first, second) int32 arrays of sorted `pair_keys` output.

    The run of each first value is found by one binary search per value,
    which is far cheaper than dividing every key.
    """
    starts = np.searchsorted(keys, np.arange(base + 1, dtype=keys.dtype) * base)
    first = np.repeat(np.arange(base, dtype=np.int32), np.diff(starts))
    second = keys - first * keys.dtype.type(base)
    return first, second.astype(np.int32, copy=False)


def _blocks(count, n):
    """(start, stop) row ranges of at most `_BLOCK_CELLS` mask cells each."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    return [(start, min(start + rows, count)) for start in range(0, count, rows)]


def enumerate_triangle_array(adj, edge_u, edge_v):
    """All triangles as an (t, 3) int32 array in lexicographic order.

    Edge (u, v) with u < v pairs with every common neighbor w > v, so each
    triangle appears once; edges come in id order and w ascending.
    """
    n = adj.shape[0]
    vertices = np.arange(n)
    parts = [np.empty((0, 3), np.int32)]
    for start, stop in _blocks(edge_u.shape[0], n):
        u = edge_u[start:stop]
        v = edge_v[start:stop]
        common = adj[u] & adj[v]
        common &= vertices > v[:, None]
        row, w = np.nonzero(common)
        block = np.empty((row.size, 3), np.int32)
        block[:, 0] = u[row]
        block[:, 1] = v[row]
        block[:, 2] = w
        parts.append(block)
    return np.concatenate(parts)


def enumerate_link_arrays(adj, eid, m, triangles, max_links):
    """Rooted-K4 link endpoints as two int32 edge-id arrays (e1 < e2), sorted
    by (e1, e2), from the graph's (t, 3) triangle array and its m edges.
    Returns None when more than `max_links` links exist.

    Triangle (a, b, c) with a < b < c pairs with every common neighbor d > c,
    so each K4 {a < b < c < d} appears once, and gives its three opposite
    pairs (ab, cd), (ac, bd), (ad, bc). Edge ids follow the lexicographic
    order of the pairs, so the first edge of each pair, which holds a, has
    the smaller id. The count is checked after every block, so at most one
    block past the cap is held.
    """
    n = adj.shape[0]
    vertices = np.arange(n)
    # An empty key array of the right dtype, for graphs without a K4.
    parts = [pair_keys(np.empty(0, np.int32), 0, m)]
    count = 0
    for start, stop in _blocks(triangles.shape[0], n):
        a, b, c = triangles[start:stop].T
        common = adj[a] & adj[b]
        common &= adj[c]
        common &= vertices > c[:, None]
        # Cell row * n + d of the mask is K4 {a, b, c, d} of triangle row.
        cell = np.flatnonzero(common)
        count += 3 * cell.size
        if count > max_links:
            return None
        row = cell // n
        ad, bd, cd = (np.take(eid[x], cell) for x in (a, b, c))
        ab, ac, bc = eid[a, b][row], eid[a, c][row], eid[b, c][row]
        parts += [pair_keys(ab, cd, m), pair_keys(ac, bd, m), pair_keys(ad, bc, m)]
    keys = np.concatenate(parts)
    del parts
    keys.sort()
    return split_keys(keys, m)


def _dinic_python(num_nodes, source, sink, indptr, heads, reverse, residual):
    # Blocking-flow phases over CSR slots: slot p of row v runs v -> heads[p]
    # and reverse[p] is the slot of heads[p] -> v. `residual` starts as the
    # capacities and is mutated to the final residual.
    level = [0] * num_nodes
    while True:
        for i in range(num_nodes):
            level[i] = -1
        queue = [source]
        level[source] = 0
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for p in range(indptr[v], indptr[v + 1]):
                w = heads[p]
                if residual[p] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        if level[sink] < 0:
            return
        iters = indptr[:num_nodes]
        while True:
            v = source
            path = []
            found = False
            while True:
                if v == sink:
                    found = True
                    break
                advanced = False
                while iters[v] < indptr[v + 1]:
                    p = iters[v]
                    w = heads[p]
                    if residual[p] > 0 and level[w] == level[v] + 1:
                        path.append(p)
                        v = w
                        advanced = True
                        break
                    iters[v] += 1
                if advanced:
                    continue
                level[v] = -2
                if v == source:
                    break
                p = path.pop()
                v = heads[reverse[p]]
                iters[v] += 1
            if not found:
                break
            bottleneck = min(residual[p] for p in path)
            for p in path:
                residual[p] -= bottleneck
                residual[reverse[p]] += bottleneck


def max_flow_int(num_nodes, source, sink, indptr, heads, reverse, caps):
    """Exact integer max flow on CSR slots (lists); returns the per-slot net
    flows.

    Row v holds slots indptr[v]..indptr[v+1]-1, slot p runs to heads[p] with
    capacity caps[p], and reverse[p] is the slot of the opposite direction.
    The net flow of a slot is its capacity minus its final residual, so the
    flows are skew-symmetric: flows[reverse[p]] == -flows[p].
    """
    residual = list(caps)
    _dinic_python(num_nodes, source, sink, indptr, heads, reverse, residual)
    return [c - r for c, r in zip(caps, residual)]
