"""Exact integer max flow: Dinic over plain Python integers.

The network is in CSR order, so capacities of any magnitude stay exact;
`maxflow.max_flow` runs it only on networks whose values scipy's int32 Dinic
cannot be proven to hold, and derives the value and the cut from the
per-slot flows it returns.
"""

from __future__ import annotations


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
