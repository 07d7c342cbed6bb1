"""Exact maximum flow over integer capacities with minimum-cut extraction.

A network carries integer capacities over one shared `denominator`: the
auxiliary network of `decompose` is built that way, and `from_triples`
scales rational capacities once by the lcm of their denominators.

Two exact paths compute the flow. The fast path runs scipy's compiled Dinic
(`scipy.sparse.csgraph.maximum_flow`) on the capacity matrix, with parallel
arcs summed, and holds every capacity, flow and residual in int32. It runs
only when the network's values prove that none of them can overflow (see
`_int32_matrix`); every other network goes to `kernels.max_flow_int`, a Dinic
over Python integers. Both are Dinic, whose phase count is bounded by the
node count, so termination does not depend on capacity values. Either way
the minimum cut is the set of nodes reachable from the source in the
residual network, which is the same for every maximum flow, and
max-flow/min-cut duality is asserted before the result is returned. scipy
is imported on the first call of `max_flow`, so importing the package does
not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels

# scipy's Dinic keeps capacities, flows and residuals in int32.
_INT32_LIMIT = 1 << 31


@dataclass(frozen=True)
class ArcNetwork:
    """Directed arcs with integer capacities over `denominator`, and terminals.

    `tails` and `heads` are integer arrays; `capacities` is an int64 array, or
    an object array of Python ints when the values may not fit.
    """

    num_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    capacities: np.ndarray
    source: int
    sink: int
    denominator: int

    @classmethod
    def from_triples(cls, num_nodes, triples, source, sink):
        """Network from (tail, head, rational capacity) triples."""
        caps = [Fraction(c) for _, _, c in triples]
        denominator = math.lcm(*(c.denominator for c in caps))
        return cls(
            num_nodes,
            np.array([t for t, _, _ in triples], np.int64),
            np.array([h for _, h, _ in triples], np.int64),
            np.array(
                [c.numerator * (denominator // c.denominator) for c in caps], dtype=object
            ),
            source,
            sink,
            denominator,
        )

    def validate(self):
        if not 0 <= self.source < self.num_nodes:
            raise ValueError("source out of range")
        if not 0 <= self.sink < self.num_nodes:
            raise ValueError("sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if self.tails.size and not (
            0 <= min(self.tails.min(), self.heads.min())
            and max(self.tails.max(), self.heads.max()) < self.num_nodes
        ):
            raise ValueError("arc endpoint out of range")
        if (self.capacities < 0).any():
            raise ValueError("negative capacity")


@dataclass(frozen=True)
class FlowResult:
    """A maximum flow with its matching minimum cut.

    `flows[i]` is the flow on arc i as an integer over the shared
    `denominator` (an int64 array, or an object array of Python ints on
    networks whose capacities are); `flow(i)` gives it as an exact rational.
    `source_side` is the bool mask of the nodes on the source side of the cut.
    """

    value: Fraction
    flows: np.ndarray
    denominator: int
    source_side: np.ndarray

    def flow(self, i):
        return Fraction(int(self.flows[i]), self.denominator)


def _int32_matrix(net):
    """The capacity matrix (parallel arcs summed) as int32 CSR, or None.

    Every augmenting path adds its bottleneck to the flow value and at most
    that much to any arc, so no arc ever carries more than the value, which
    is at most S, the total capacity out of the source. The residual of a
    matrix entry (i, j) is C[i, j] + F[j, i] <= max C + S. So when
    max C + S < 2**31 (and the node and entry counts fit int32 indices), every
    capacity, flow, residual and the value fit in int32. A network without
    arcs takes the Python path, which returns at once.
    """
    caps = net.capacities
    if (
        caps.size == 0
        or max(2 * caps.size, net.num_nodes) >= _INT32_LIMIT
        or caps.max() >= _INT32_LIMIT
    ):
        return None
    from scipy.sparse import csr_array

    caps = np.asarray(caps, dtype=np.int64)
    tails = net.tails.astype(np.int32, copy=False)
    heads = net.heads.astype(np.int32, copy=False)
    matrix = csr_array((caps, (tails, heads)), shape=(net.num_nodes, net.num_nodes))
    supply = int(caps[net.tails == net.source].sum())
    if int(matrix.data.max()) + supply >= _INT32_LIMIT:
        return None
    matrix.data = matrix.data.astype(np.int32)
    return matrix


def _scipy_max_flow(net, matrix):
    """(value, per-arc int64 flows, source-side mask) from scipy's Dinic.

    scipy returns one skew-symmetric net flow F per node pair. The arcs from
    i to j share max(F[i, j], 0) in arc order, each up to its capacity, so
    antiparallel arcs split F by sign and parallel arcs fill in turn.
    """
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    result = maximum_flow(matrix, net.source, net.sink, method="dinic")
    flow = result.flow
    # C - F keeps only the positive residuals (a sparse difference drops
    # zeros): unused capacity forward, and flow that can be pushed back.
    residual = matrix - flow
    reached = breadth_first_order(
        residual, net.source, directed=True, return_predecessors=False
    )
    side = np.zeros(net.num_nodes, np.bool_)
    side[reached] = True

    caps = np.asarray(net.capacities, dtype=np.int64)
    forward = np.empty_like(caps)
    np.maximum(flow[net.tails, net.heads], 0, out=forward)
    if matrix.nnz == caps.size:
        return int(result.flow_value), forward, side
    key = net.tails.astype(np.int64) * net.num_nodes + net.heads
    order = np.argsort(key, kind="stable")
    key = key[order]
    cap = caps[order]
    before = np.cumsum(cap) - cap
    first = np.concatenate([[True], key[1:] != key[:-1]])
    before -= before[first][np.cumsum(first) - 1]
    flows = np.empty_like(caps)
    flows[order] = np.clip(forward[order] - before, 0, cap)
    return int(result.flow_value), flows, side


def max_flow(net):
    """Maximum flow and a minimum cut; duality is asserted before returning."""
    net.validate()
    matrix = _int32_matrix(net)
    if matrix is None:
        value, flows, reach = kernels.max_flow_int(
            net.num_nodes, net.source, net.sink, net.tails, net.heads, net.capacities.tolist()
        )
        flows = np.array(flows, dtype=net.capacities.dtype)
        side = np.array(reach, dtype=np.bool_)
    else:
        value, flows, side = _scipy_max_flow(net, matrix)
    cut_cap = sum(net.capacities[side[net.tails] & ~side[net.heads]].tolist())
    if cut_cap != value:
        raise AssertionError(
            f"max-flow/min-cut duality violated: value {value} vs cut {cut_cap}"
        )
    return FlowResult(
        value=Fraction(value, net.denominator),
        flows=flows,
        denominator=net.denominator,
        source_side=side,
    )


def flow_violation(net, res):
    """First violated flow constraint as a message, or None when valid/maximum.

    Re-derives everything (arc bounds, conservation, value, cut capacity)
    from the network's integer capacities; nothing is trusted from the
    solver. Sums run in int64 when the capacities bound them below 2**63,
    else over Python ints.
    """
    if net.denominator != res.denominator:
        return f"denominator mismatch: {res.denominator} vs {net.denominator}"
    caps = net.capacities
    flows = np.asarray(res.flows)
    if flows.shape != caps.shape:
        return "flow vector length does not match arc count"
    bad = np.flatnonzero((flows < 0) | (flows > caps))
    if bad.size:
        i = int(bad[0])
        if flows[i] < 0:
            return f"arc {i} carries negative flow"
        return f"arc {i} exceeds its capacity"
    # Every flow now lies in [0, capacity], so each balance and the cut sum
    # are bounded by the arc count times the largest capacity.
    fits = caps.size == 0 or int(caps.max()) * caps.size < 1 << 63
    dtype = np.int64 if fits else object
    flows = flows.astype(dtype)
    balance = np.zeros(net.num_nodes, dtype)
    np.add.at(balance, net.heads, flows)
    np.add.at(balance, net.tails, -flows)
    inner = np.ones(net.num_nodes, np.bool_)
    inner[[net.source, net.sink]] = False
    unbalanced = np.flatnonzero((balance != 0) & inner)
    if unbalanced.size:
        return f"conservation violated at node {unbalanced[0]}"
    if Fraction(-int(balance[net.source]), net.denominator) != res.value:
        return "value does not equal the net outflow of the source"
    side = np.asarray(res.source_side, dtype=np.bool_)
    if side.shape != (net.num_nodes,):
        return "cut side does not match the node count"
    if not side[net.source] or side[net.sink]:
        return "cut does not separate source from sink"
    cut_cap = int(caps[side[net.tails] & ~side[net.heads]].astype(dtype).sum())
    if Fraction(cut_cap, net.denominator) != res.value:
        return "cut capacity does not equal the flow value"
    return None


def verify_flow(net, res):
    """Independent recheck of capacity, conservation, value, and cut capacity."""
    return flow_violation(net, res) is None
