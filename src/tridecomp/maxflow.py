"""Exact maximum flow over integer capacities with minimum-cut extraction.

A network carries integer capacities over one shared `denominator`: the
auxiliary network of `decompose` is built that way, and a caller with
rational capacities scales them once by the lcm of their denominators
before `ArcNetwork.from_arcs`.

Every network has one form, CSR order: its arcs ("slots") are sorted by
(tail, head) with parallel arcs merged, no self-loops, and a reverse slot
for every slot (capacity 0 where the input had no reverse arc). So row v of
the capacity matrix is one contiguous run of slots, and a flow is one
integer per slot: the signed net flow from tail to head, which is
skew-symmetric (a slot and its reverse carry opposite values).

Two exact paths compute the flow on the same slots and return only the
per-slot net flows. The fast path passes the slots as an int32 CSR matrix to
scipy's compiled Dinic (`scipy.sparse.csgraph.maximum_flow`), whose flow
matrix comes back on exactly these slots; it runs only when the network's
values prove that no capacity, flow or residual can overflow int32 (see
`fits_int32`). Every other network goes to `kernels.max_flow_int`, a Dinic
over Python integers on the same slots. Dinic's phase count is bounded by
the node count, so termination does not depend on capacity values.

`max_flow` derives the rest once, whichever path ran. The value is the
source row's net outflow. The minimum cut is the set of nodes reachable from
the source over slots below capacity, the same for every maximum flow. A
flow whose value equals the supply (the total capacity out of the source)
saturates every source slot, so its cut is {source}, of capacity the supply,
with no search; any other flow gets one breadth-first search, and duality is
asserted on its cut. scipy is imported on the first call of `max_flow`, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels

# scipy's Dinic keeps capacities, flows and residuals in int32.
_INT32_LIMIT = 1 << 31


def _check_arcs(num_nodes, tails, heads, caps):
    if tails.shape != heads.shape or tails.shape != caps.shape:
        raise ValueError("tails, heads and capacities differ in length")
    if tails.size and not (
        0 <= min(tails.min(), heads.min()) and max(tails.max(), heads.max()) < num_nodes
    ):
        raise ValueError("arc endpoint out of range")
    if (caps < 0).any():
        raise ValueError("negative capacity")


@dataclass(frozen=True)
class ArcNetwork:
    """Slots in CSR order with integer capacities over `denominator`, and
    terminals.

    `tails` and `heads` are integer arrays, sorted by (tail, head) without
    repeats or self-loops, and every (tail, head) has its (head, tail);
    `capacities` is an int64 array, an int32 array when `fits_int32` holds
    for its values, or an object array of Python ints when the values may
    not fit int64. `from_arcs` brings any arc list into this form.
    """

    num_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    capacities: np.ndarray
    source: int
    sink: int
    denominator: int

    @classmethod
    def from_arcs(cls, num_nodes, tails, heads, capacities, source, sink, denominator=1):
        """Network from arbitrary integer arcs: parallel arcs summed,
        self-loops dropped, a zero-capacity reverse added where missing."""
        tails = np.asarray(tails, np.int64).ravel()
        heads = np.asarray(heads, np.int64).ravel()
        caps = np.asarray(capacities)
        if caps.dtype != object:
            caps = caps.astype(np.int64)
        _check_arcs(num_nodes, tails, heads, caps)
        loop = tails == heads
        tails, heads, caps = tails[~loop], heads[~loop], caps[~loop]
        keys = np.concatenate([tails * num_nodes + heads, heads * num_nodes + tails])
        keys, slot = np.unique(keys, return_inverse=True)
        merged = np.zeros(keys.size, caps.dtype)
        np.add.at(merged, slot[: caps.size], caps)
        return cls(
            num_nodes,
            keys // num_nodes,
            keys % num_nodes,
            merged,
            source,
            sink,
            denominator,
        )

    @property
    def indptr(self):
        """Row v's slots are indptr[v]..indptr[v+1]-1 (int64, num_nodes + 1)."""
        return np.searchsorted(self.tails, np.arange(self.num_nodes + 1, dtype=self.tails.dtype))

    def reverse_slots(self):
        """reverse[p] is the slot of (heads[p], tails[p]); ValueError when a
        slot has no reverse."""
        n = self.num_nodes
        # The sentinel n**2 exceeds every key, so a missing reverse never
        # indexes past the end.
        keys = np.append(self.tails.astype(np.int64) * n + self.heads, n * n)
        wanted = self.heads.astype(np.int64) * n + self.tails
        reverse = np.searchsorted(keys, wanted)
        missing = np.flatnonzero(keys[reverse] != wanted)
        if missing.size:
            p = int(missing[0])
            raise ValueError(f"arc {self.tails[p]} -> {self.heads[p]} has no reverse slot")
        return reverse

    def validate(self):
        """Terminals, endpoints and capacities in range, slots in CSR order
        without self-loops; the reverse slots are checked by each flow path."""
        if not 0 <= self.source < self.num_nodes:
            raise ValueError("source out of range")
        if not 0 <= self.sink < self.num_nodes:
            raise ValueError("sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        tails, heads = self.tails, self.heads
        _check_arcs(self.num_nodes, tails, heads, self.capacities)
        if (tails == heads).any():
            raise ValueError("self-loop slot")
        same_row = tails[1:] == tails[:-1]
        if (tails[1:] < tails[:-1]).any() or (same_row & (heads[1:] <= heads[:-1])).any():
            raise ValueError("slots not in CSR order: (tail, head) must strictly increase")


@dataclass(frozen=True)
class FlowResult:
    """A maximum flow with its matching minimum cut.

    `flows[p]` is the net flow on slot p of the network, from its tail to its
    head, as an integer over the shared `denominator` (an int64 array, or an
    object array of Python ints on networks whose capacities are); a slot and
    its reverse carry opposite values. `source_side` is the bool mask of the
    nodes on the source side of the cut.
    """

    value: Fraction
    flows: np.ndarray
    denominator: int
    source_side: np.ndarray


def fits_int32(max_capacity, supply, num_slots, num_nodes):
    """Whether scipy's int32 Dinic is exact on a network with these values.

    Every augmenting path adds its bottleneck to the flow value and at most
    that much to any slot, so no slot ever carries more than the value, which
    is at most the supply S, the total capacity out of the source. The
    residual of a slot (i, j) is C[i, j] + F[j, i] <= max C + S. So when
    max C + S < 2**31 (and the node and slot counts fit int32 indices),
    every capacity, flow, residual and the value fit in int32.
    """
    return (
        max(num_slots, num_nodes) < _INT32_LIMIT
        and max_capacity + supply < _INT32_LIMIT
    )


def _scipy_flows(net, indptr):
    """Per-slot int64 net flows from scipy's Dinic, on a network that
    `fits_int32` holds for; int32 capacities are wrapped, not copied.

    scipy adds a zero-capacity reverse for every entry that lacks one and
    returns its flow matrix on the resulting slots. A network in CSR form has
    every reverse already, so the flow comes back on exactly its slots, and
    one comparison of the index arrays confirms that before the data is read.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    matrix = csr_array(
        (
            net.capacities.astype(np.int32, copy=False),
            net.heads.astype(np.int32, copy=False),
            indptr.astype(np.int32),
        ),
        shape=(net.num_nodes, net.num_nodes),
    )
    flow = maximum_flow(matrix, net.source, net.sink, method="dinic").flow
    if not (
        np.array_equal(flow.indptr, matrix.indptr)
        and np.array_equal(flow.indices, matrix.indices)
    ):
        net.reverse_slots()  # names a missing reverse slot, if there is one
        raise AssertionError("scipy returned its flow on other slots than the network's")
    return flow.data.astype(np.int64)


def max_flow(net):
    """Maximum flow and a minimum cut, derived once from either path's flows."""
    net.validate()
    caps = net.capacities
    indptr = net.indptr
    source_slots = slice(indptr[net.source], indptr[net.source + 1])
    supply = sum(caps[source_slots].tolist())
    # A network without slots takes the Python path, which returns at once.
    fits = caps.size > 0 and fits_int32(int(caps.max()), supply, caps.size, net.num_nodes)
    if fits:
        flows = _scipy_flows(net, indptr)
    else:
        flows = kernels.max_flow_int(
            net.num_nodes,
            net.source,
            net.sink,
            indptr.tolist(),
            net.heads.tolist(),
            net.reverse_slots().tolist(),
            caps.tolist(),
        )
        # int32 capacities still give int64 flows, object ones Python ints.
        flows = np.array(flows, dtype=np.promote_types(caps.dtype, np.int64))
    value = sum(flows[source_slots].tolist())
    side = np.zeros(net.num_nodes, np.bool_)
    side[net.source] = True
    # A saturating flow leaves no residual out of the source: its cut is
    # {source}, of capacity `supply`.
    if value != supply:
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import breadth_first_order

        # The slots with residual capacity; the False entries are dropped
        # so that only they are edges of the search. The index arrays are
        # copied because dropping works in place on the network's heads.
        residual = csr_array(
            (caps > flows, net.heads, indptr), shape=(net.num_nodes,) * 2, copy=True
        )
        residual.eliminate_zeros()
        side[breadth_first_order(residual, net.source, return_predecessors=False)] = True
        if side[net.sink]:
            raise AssertionError("the flow is not maximum: the sink is reachable")
        cut = caps[side[net.tails] & ~side[net.heads]]
        # Under `fits_int32` there are fewer than 2**31 slots of less than
        # 2**31 each, so the int64 sum is exact; otherwise Python ints.
        cut_cap = int(cut.sum(dtype=np.int64)) if fits else sum(cut.tolist())
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

    Re-derives everything (CSR form, skew symmetry, slot bounds,
    conservation, value, cut capacity) from the network's integer
    capacities; nothing is trusted from the solver. Sums run in int64 when
    the capacities bound them below 2**63, else over Python ints.
    """
    if net.denominator != res.denominator:
        return f"denominator mismatch: {res.denominator} vs {net.denominator}"
    try:
        net.validate()
        reverse = net.reverse_slots()
    except ValueError as exc:
        return f"network is not in canonical CSR form: {exc}"
    caps = net.capacities
    flows = np.asarray(res.flows)
    if flows.shape != caps.shape:
        return "flow vector length does not match slot count"
    bad = np.flatnonzero(flows[reverse] != -flows)
    if bad.size:
        return f"slot {int(bad[0])} is not skew-symmetric to its reverse"
    # A slot's flow is at most its capacity and, by skew symmetry, at least
    # minus its reverse's capacity.
    bad = np.flatnonzero(flows > caps)
    if bad.size:
        return f"slot {int(bad[0])} exceeds its capacity"
    # So each net outflow and the cut sum are bounded by the slot count
    # times the largest capacity.
    fits = caps.size == 0 or int(caps.max()) * caps.size < 1 << 63
    dtype = np.int64 if fits else object
    flows = flows.astype(dtype)
    outflow = np.zeros(net.num_nodes, dtype)
    np.add.at(outflow, net.tails, flows)
    inner = np.ones(net.num_nodes, np.bool_)
    inner[[net.source, net.sink]] = False
    unbalanced = np.flatnonzero((outflow != 0) & inner)
    if unbalanced.size:
        return f"conservation violated at node {unbalanced[0]}"
    if Fraction(int(outflow[net.source]), net.denominator) != res.value:
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
