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

Two exact paths compute the flow on the same slots. The fast path passes
the slots as an int32 CSR matrix to scipy's compiled Dinic
(`scipy.sparse.csgraph.maximum_flow`), which returns its flow matrix on
exactly these slots, so the flows are its data array; it runs only when
the network's values prove that no capacity, flow or residual can overflow
int32 (see `fits_int32`). Every other network goes to
`kernels.max_flow_int`, a Dinic over Python integers that walks the same
slots through a reverse-slot index and returns capacity minus residual.
Both are Dinic, whose phase count is bounded by the node count, so
termination does not depend on capacity values. The minimum cut is the set
of nodes reachable from the source in the residual network, which is the
same for every maximum flow. On a saturating flow, one whose value equals
the total capacity out of the source, every source slot has residual 0, so
the scipy path takes the cut {source} with no search. Either way
max-flow/min-cut duality is asserted before the result is returned. scipy
is imported on the first call of `max_flow`, so importing the package does
not load it.
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


def _int32_matrix(net):
    """The capacity matrix on the network's slots as int32 CSR, or None when
    `fits_int32` fails. Int32 capacities are wrapped, not copied. A network
    without slots takes the Python path, which returns at once.
    """
    caps = net.capacities
    if caps.size == 0:
        return None
    indptr = net.indptr
    supply = sum(caps[indptr[net.source] : indptr[net.source + 1]].tolist())
    if not fits_int32(int(caps.max()), supply, caps.size, net.num_nodes):
        return None
    from scipy.sparse import csr_array

    return csr_array(
        (
            caps.astype(np.int32, copy=False),
            net.heads.astype(np.int32, copy=False),
            indptr.astype(np.int32),
        ),
        shape=(net.num_nodes, net.num_nodes),
    )


def _scipy_max_flow(net, matrix):
    """(value, per-slot int64 net flows, source-side mask, cut capacity) from
    scipy's Dinic.

    scipy adds a zero-capacity reverse for every entry that lacks one and
    returns its flow matrix on the resulting slots. A network in CSR form has
    every reverse already, so the flow comes back on exactly its slots, and
    one comparison of the index arrays confirms that before the data is read.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    result = maximum_flow(matrix, net.source, net.sink, method="dinic")
    flow = result.flow
    if not (
        np.array_equal(flow.indptr, matrix.indptr)
        and np.array_equal(flow.indices, matrix.indices)
    ):
        net.reverse_slots()  # names a missing reverse slot, if there is one
        raise AssertionError("scipy returned its flow on other slots than the network's")
    value = int(result.flow_value)
    side = np.zeros(net.num_nodes, np.bool_)
    side[net.source] = True
    supply = int(matrix.data[matrix.indptr[net.source] : matrix.indptr[net.source + 1]].sum())
    if value == supply:
        # No slot carries more than its capacity, so the source row's net
        # outflow reaches its capacity sum only when every source slot is
        # saturated: no residual leaves the source.
        return value, flow.data.astype(np.int64), side, supply
    # Capacity minus net flow is each slot's residual; the zeros are dropped
    # so that only positive residuals are edges of the search. The index
    # arrays are copied because dropping works in place and `matrix` shares
    # the network's heads.
    residual = csr_array(
        (matrix.data - flow.data, matrix.indices, matrix.indptr), matrix.shape, copy=True
    )
    residual.eliminate_zeros()
    reached = breadth_first_order(
        residual, net.source, directed=True, return_predecessors=False
    )
    side[reached] = True
    # At most 2**31 slots of less than 2**31 each: the sum fits int64.
    crossing = side[net.tails] & ~side[net.heads]
    cut_cap = int(matrix.data[crossing].sum(dtype=np.int64))
    return value, flow.data.astype(np.int64), side, cut_cap


def max_flow(net):
    """Maximum flow and a minimum cut; duality is asserted before returning."""
    net.validate()
    matrix = _int32_matrix(net)
    if matrix is None:
        value, flows, reach = kernels.max_flow_int(
            net.num_nodes,
            net.source,
            net.sink,
            net.indptr.tolist(),
            net.heads.tolist(),
            net.reverse_slots().tolist(),
            net.capacities.tolist(),
        )
        # int32 capacities still give int64 flows, object ones Python ints.
        flows = np.array(flows, dtype=np.promote_types(net.capacities.dtype, np.int64))
        side = np.array(reach, dtype=np.bool_)
        cut_cap = sum(net.capacities[side[net.tails] & ~side[net.heads]].tolist())
    else:
        value, flows, side, cut_cap = _scipy_max_flow(net, matrix)
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
