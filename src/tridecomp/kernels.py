"""Hot inner loops: triangle/K4-link enumeration and integer blocking-flow.

The enumerations are vectorized numpy over the boolean adjacency matrix and
emit their results in canonical order. The flow kernel is Dinic over plain
Python integers, so capacities of any magnitude stay exact; `maxflow.max_flow`
runs it only on networks whose values scipy's int32 Dinic cannot be proven
to hold.
"""

from __future__ import annotations

import numpy as np


def enumerate_triangle_array(adj, edge_u, edge_v):
    """All triangles as an (t, 3) int32 array in lexicographic order.

    Edges are scanned in id order and the third vertex ascending, restricted
    to w > v so each triangle appears exactly once.
    """
    rows = []
    for k in range(edge_u.shape[0]):
        u = int(edge_u[k])
        v = int(edge_v[k])
        common = np.nonzero(adj[u] & adj[v])[0]
        common = common[common > v]
        if common.size:
            block = np.empty((common.size, 3), np.int32)
            block[:, 0] = u
            block[:, 1] = v
            block[:, 2] = common
            rows.append(block)
    if not rows:
        return np.empty((0, 3), np.int32)
    return np.concatenate(rows)


def enumerate_link_arrays(adj, eid, edge_u, edge_v, max_links):
    """Rooted-K4 link endpoints as two int32 edge-id arrays (e1 < e2), sorted.

    One link per K4/opposite-pair: edge k pairs with every induced edge (a,b)
    inside its common neighborhood that has a larger edge id. Returns None
    when more than `max_links` links exist.
    """
    e1_parts = []
    e2_parts = []
    count = 0
    for k in range(edge_u.shape[0]):
        u = int(edge_u[k])
        v = int(edge_v[k])
        common = np.nonzero(adj[u] & adj[v])[0]
        if common.size < 2:
            continue
        sub = adj[np.ix_(common, common)]
        ii, jj = np.nonzero(np.triu(sub, 1))
        if ii.size == 0:
            continue
        partner = eid[common[ii], common[jj]]
        partner = partner[partner > k]
        if partner.size == 0:
            continue
        count += partner.size
        if count > max_links:
            return None
        e1_parts.append(np.full(partner.size, k, np.int32))
        e2_parts.append(partner.astype(np.int32))
    if not e1_parts:
        return np.empty(0, np.int32), np.empty(0, np.int32)
    return np.concatenate(e1_parts), np.concatenate(e2_parts)


def _dinic_python(num_nodes, source, sink, slot_to, slot_cap, csr_ptr, csr_slot):
    # Blocking-flow phases over paired residual slots (slot i ^ 1 is the
    # reverse of slot i). slot_cap is mutated to the final residual.
    total = 0
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
            for p in range(csr_ptr[v], csr_ptr[v + 1]):
                a = csr_slot[p]
                w = slot_to[a]
                if slot_cap[a] > 0 and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        if level[sink] < 0:
            break
        iters = list(csr_ptr[:num_nodes])
        while True:
            v = source
            path = []
            found = False
            while True:
                if v == sink:
                    found = True
                    break
                advanced = False
                while iters[v] < csr_ptr[v + 1]:
                    a = csr_slot[iters[v]]
                    w = slot_to[a]
                    if slot_cap[a] > 0 and level[w] == level[v] + 1:
                        path.append(a)
                        v = w
                        advanced = True
                        break
                    iters[v] += 1
                if advanced:
                    continue
                level[v] = -2
                if v == source:
                    break
                a = path.pop()
                v = slot_to[a ^ 1]
                iters[v] += 1
            if not found:
                break
            bottleneck = min(slot_cap[a] for a in path)
            for a in path:
                slot_cap[a] -= bottleneck
                slot_cap[a ^ 1] += bottleneck
            total += bottleneck
    reach = [lv >= 0 for lv in level]
    return total, reach


def max_flow_int(num_nodes, source, sink, tails, heads, caps):
    """Exact integer max flow; returns (value, per-arc flows, source-side mask).

    Arc i becomes residual slots 2i (forward, capacity caps[i]) and 2i+1
    (reverse, capacity 0).
    """
    num_arcs = len(tails)
    if num_arcs == 0:
        reach = [False] * num_nodes
        reach[source] = True
        return 0, [], reach

    slot_tail = np.empty(2 * num_arcs, np.int64)
    slot_to = np.empty(2 * num_arcs, np.int64)
    slot_tail[0::2] = tails
    slot_tail[1::2] = heads
    slot_to[0::2] = heads
    slot_to[1::2] = tails
    order = np.argsort(slot_tail, kind="stable")
    counts = np.bincount(slot_tail, minlength=num_nodes)
    csr_ptr = np.zeros(num_nodes + 1, np.int64)
    np.cumsum(counts, out=csr_ptr[1:])

    slot_cap = [0] * (2 * num_arcs)
    slot_cap[0::2] = caps
    value, reach = _dinic_python(
        num_nodes,
        source,
        sink,
        slot_to.tolist(),
        slot_cap,
        csr_ptr.tolist(),
        order.tolist(),
    )
    flows = [c - r for c, r in zip(caps, slot_cap[0::2])]
    return value, flows, reach
