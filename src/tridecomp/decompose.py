"""Fractional triangle decomposition via flow-based weight redistribution.

Pipeline: fix the deficiency from the input graph, peel heavy triangles, give
every residual triangle the uniform weight m/(3t) (the unique uniform choice
making the average edge weight 1), then rebalance the per-edge weight sums to
exactly 1 by routing the surplus through an auxiliary network. Nodes of that
network are the residual edges; each rooted-K4 link joins two disjoint edges
of a K4 and can carry weight between them, capped so no triangle weight can
go negative; edges whose weight sum starts above 1 attach to a supersource,
those below 1 to a supersink. A saturating flow yields the decomposition; a
deficient max flow yields a minimum-cut certificate that this method (not
necessarily the LP) fails on the instance.

Arithmetic: every capacity of the network is an integer over one shared
denominator D, the lcm of the denominators of w and of the link capacity.
Triangle weights are integer numerators over 2D, so a flow f/D across a link
moves exactly f on each of its four triangles. Both are numpy int64 arrays
when a bound proven from the inputs keeps every value and partial sum below
2**62, and object arrays of Python ints otherwise (`verify._int_dtype`). The
result is a `verify.Decomposition` of such numerators over one denominator;
peeled triangles join with numerator = denominator. Fractions (or, in float
mode, correctly rounded floats) are made only at read-out.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EdgeInNoTriangleError,
    EmptyGraphError,
    RegimeWarning,
    UnknownTriangleError,
)
from .graph import (
    DEFAULT_MAX_LINKS,
    Graph,
    degree_stats,
    enumerate_rooted_k4_links,
    enumerate_triangles,
    triangles_per_edge,
)
from .kernels import pair_keys, split_keys
from .maxflow import ArcNetwork, fits_int32, max_flow
from .peeling import peel_heavy_triangles
from .verify import CutCertificate, Decomposition, _int_dtype

REGIME_LIMIT = Fraction(1, 10)


def initial_weight(residual, triangles=None):
    """The uniform starting weight m/(3t); every edge must lie in a triangle.

    `triangles`, when given, is `enumerate_triangles(residual)`.
    """
    if residual.m == 0:
        raise EmptyGraphError("no edges, the decomposition is vacuous")
    if triangles is None:
        triangles = enumerate_triangles(residual)
    counts = triangles_per_edge(residual, triangles)
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        e = int(missing[0])
        raise EdgeInNoTriangleError(e, residual.endpoints(e))
    return Fraction(residual.m, 3 * triangles.shape[0])


def _triangle_keys(rows, n):
    """One int64 key per sorted vertex triple, ordered as the triples are."""
    rows = rows.astype(np.int64)
    return (rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]


def apply_transfer(g, assignment, links, net_flows):
    """Move net_flows[i] of edge weight across link i of g, from e1 to e2.

    Flows are integer numerators over half the assignment's denominator; a
    negative flow moves weight from e2 to e1. Sending f from e1 to e2
    subtracts f/2 from each of the two K4 triangles containing e1 and adds
    f/2 to each of the two containing e2; only the weights of e1 and e2
    change (by -f and +f), every other edge keeps its sum because each
    remaining K4 edge lies in one losing and one gaining triangle. The
    caller is responsible for |net_flows[i]| <= link capacity.
    """
    nums = assignment.numerators
    flows = np.asarray(net_flows, dtype=nums.dtype)
    moving = np.flatnonzero(flows)
    flows = flows[moving]
    # The sentinel n**3 exceeds every key, so a missing triangle never
    # indexes past the end.
    keys = np.append(_triangle_keys(assignment.triangles, g.n), g.n**3)

    def rows(a, b, c):
        triples = np.sort(np.stack([a, b, c], axis=1), axis=1)
        wanted = _triangle_keys(triples, g.n)
        found = np.searchsorted(keys, wanted)
        missing = np.flatnonzero(keys[found] != wanted)
        if missing.size:
            raise UnknownTriangleError(
                f"transfer references triangle {tuple(triples[missing[0]].tolist())} "
                "missing from the assignment"
            )
        return found

    e1 = links.e1[moving]
    e2 = links.e2[moving]
    p, q = g.edge_u[e1], g.edge_v[e1]
    r, s = g.edge_u[e2], g.edge_v[e2]
    for third in (r, s):
        np.add.at(nums, rows(p, q, third), -flows)
    for third in (p, q):
        np.add.at(nums, rows(r, s, third), flows)
    return assignment


@dataclass(frozen=True)
class FlowNetwork:
    """The auxiliary network: residual edges as nodes plus two terminals.

    Capacities are integers over `denominator`: terminals[e] is T_e*w - 1
    for edge e (positive: a supersource arc with that surplus, negative: a
    supersink arc with the shortfall, zero: no terminal arc), and every link
    carries `link_capacity` in each direction.
    """

    residual: Graph
    denominator: int
    link_capacity: int
    links: object
    terminals: np.ndarray
    required_flow: Fraction

    @property
    def supersource(self):
        return self.residual.m

    @property
    def supersink(self):
        return self.residual.m + 1

    def to_arc_network(self):
        """Solver form in CSR order, and the bool mask of its link slots.

        Slots: e1 -> e2 and e2 -> e1 for each link, at the link capacity;
        supersource -> e for each source edge and e -> supersink for each
        sink edge, with their zero-capacity reverses. The link slots are the
        slots (e1, e2) with e1 < e2 < m; CSR order lists them in the
        canonical link order. The capacities are int32 when
        `maxflow.fits_int32` holds for them, so the scipy path wraps them
        without a copy.
        """
        m = self.residual.m
        nodes = m + 2
        terminals = self.terminals
        sources = np.flatnonzero(terminals > 0)
        sinks = np.flatnonzero(terminals < 0)
        e1, e2 = self.links.e1, self.links.e2
        source = np.full(sources.size, self.supersource)
        sink = np.full(sinks.size, self.supersink)
        # One key per slot; sorted, they are CSR order. Node ids stay below
        # m + 2, which the dense-size guardrail keeps far below 2**31.
        keys = np.concatenate(
            [
                pair_keys(e1, e2, nodes),
                pair_keys(e2, e1, nodes),
                pair_keys(source, sources, nodes),
                pair_keys(sources, source, nodes),
                pair_keys(sinks, sink, nodes),
                pair_keys(sink, sinks, nodes),
            ]
        )
        keys.sort()
        tails, heads = split_keys(keys, nodes)
        del keys
        # Every slot holds the link capacity, a terminal capacity or 0.
        link = self.link_capacity if e1.size else 0
        largest = max(int(np.abs(terminals).max(initial=0)), link)
        supply = int(terminals[sources].sum())
        fits = fits_int32(largest, supply, tails.size, nodes)
        caps = np.full(tails.size, link, np.int32 if fits else terminals.dtype)
        net = ArcNetwork(
            nodes,
            tails,
            heads,
            caps,
            self.supersource,
            self.supersink,
            self.denominator,
        )
        # Row e ends with its terminal slot, if any: e -> supersource (the
        # zero reverse of a source arc) or e -> supersink. The supersource
        # row holds the source arcs, the supersink row the zero reverses of
        # the sink arcs.
        indptr = net.indptr
        caps[indptr[sources + 1] - 1] = 0
        caps[indptr[sinks + 1] - 1] = -terminals[sinks]
        caps[indptr[m] : indptr[m + 1]] = terminals[sources]
        caps[indptr[m + 1] :] = 0
        return net, (tails < heads) & (heads < m)


def build_network(residual, uniform_weight, deficiency, max_links=DEFAULT_MAX_LINKS,
                  triangles=None):
    """Assemble the auxiliary network for a residual graph.

    The deficiency is the one fixed from the original (pre-peeling) graph.
    Per-direction link capacity is 2w / (3(1-d)n); edges with triangle-weight
    sum above 1 become sources with the surplus as terminal capacity, those
    below 1 become sinks with the shortfall, exact balances are left off the
    terminals entirely. All capacities share the denominator lcm of those of
    w and the link capacity. `triangles`, when given, is
    `enumerate_triangles(residual)`.
    """
    if not 0 <= deficiency < 1:
        raise ValueError(f"deficiency {deficiency} outside [0, 1)")
    capacity = 2 * uniform_weight / (3 * (1 - deficiency) * residual.n)
    denominator = math.lcm(uniform_weight.denominator, capacity.denominator)
    weight = uniform_weight.numerator * (denominator // uniform_weight.denominator)
    link_capacity = capacity.numerator * (denominator // capacity.denominator)
    if triangles is None:
        triangles = enumerate_triangles(residual)
    counts = triangles_per_edge(residual, triangles)
    # The loads T_e*w sum to m, so |T_e*w - 1| <= m, and the surpluses (and
    # the shortfalls) sum to at most m.
    dtype = _int_dtype(max(residual.m * denominator, link_capacity))
    terminals = counts.astype(dtype) * weight - denominator
    if terminals.sum() != 0:
        raise AssertionError("source/sink imbalance; the uniform weight is not m/(3t)")
    required = int(terminals[terminals > 0].sum())
    links = enumerate_rooted_k4_links(residual, max_links, triangles)
    return FlowNetwork(
        residual=residual,
        denominator=denominator,
        link_capacity=link_capacity,
        links=links,
        terminals=terminals,
        required_flow=Fraction(required, denominator),
    )


def solve(residual, deficiency, max_links=DEFAULT_MAX_LINKS):
    """Redistribute uniform weights on a peeled residual graph.

    Returns a Decomposition of the residual graph in which every edge weight
    equals exactly 1, or a CutCertificate when the max flow misses the
    required value.
    """
    triangles = enumerate_triangles(residual)
    uniform = initial_weight(residual, triangles=triangles)
    network = build_network(
        residual, uniform, deficiency, max_links=max_links, triangles=triangles
    )
    arcnet, link_slots = network.to_arc_network()
    result = max_flow(arcnet)
    if result.value > network.required_flow:
        raise AssertionError("flow value exceeds the supersource cut capacity")
    if result.value < network.required_flow:
        return CutCertificate(
            source_side_edges=np.flatnonzero(result.source_side[: residual.m]).tolist(),
            cut_capacity=result.value,
            required_flow=network.required_flow,
        )
    # The supersource row holds the source arcs, the supersink row the
    # reverses of the sink arcs, whose net flow is minus the sink arc's.
    flows = result.flows
    m = residual.m
    indptr = arcnet.indptr
    source_row = slice(indptr[m], indptr[m + 1])
    sink_row = slice(indptr[m + 1], indptr[m + 2])
    if (flows[source_row] != arcnet.capacities[source_row]).any() or (
        flows[sink_row] != network.terminals[arcnet.heads[sink_row]]
    ).any():
        raise AssertionError("a terminal arc is unsaturated at the required flow")
    links = network.links
    if not (
        np.array_equal(arcnet.tails[link_slots], links.e1)
        and np.array_equal(arcnet.heads[link_slots], links.e2)
    ):
        raise AssertionError("the link slots are not in canonical link order")

    # Weights are numerators over 2D, so a flow f/D moves f on each of the
    # four triangles of its link. A triangle lies in at most n - 3 K4s and
    # in 3 links of each, and a link moves at most its capacity, which
    # bounds every numerator and every partial sum.
    denominator = 2 * network.denominator
    start = uniform.numerator * (denominator // uniform.denominator)
    dtype = _int_dtype(start + 3 * (residual.n - 3) * network.link_capacity)
    numerators = np.full(len(triangles), start, dtype)
    assignment = Decomposition(triangles, numerators, denominator, network.required_flow)
    apply_transfer(residual, assignment, links, flows[link_slots])
    if 3 * sum(numerators.tolist()) != residual.m * denominator:
        raise AssertionError("total triangle weight drifted from m/3")
    return assignment


def decompose(g, max_links=DEFAULT_MAX_LINKS):
    """Full pipeline on an arbitrary graph; peeled triangles carry weight one."""
    if g.m == 0:
        return with_peeled(g, [], None)
    stats = degree_stats(g)
    if stats.deficiency >= REGIME_LIMIT:
        warnings.warn(
            f"deficiency {stats.deficiency} is at or above {REGIME_LIMIT}: outside "
            "the regime where the flow method is guaranteed",
            RegimeWarning,
            stacklevel=2,
        )
    peel = peel_heavy_triangles(g)
    residual = None
    if peel.residual.m > 0:
        residual = solve(peel.residual, peel.deficiency, max_links=max_links)
        if isinstance(residual, CutCertificate):
            return residual
    return with_peeled(g, peel.removed, residual)


def with_peeled(g, removed, residual):
    """The decomposition of g: the peeled triangles `removed` at weight one,
    joined with the Decomposition `residual` (None when nothing is left).

    Peeled and residual triangles are edge-disjoint, so no triangle repeats
    and one argsort of their keys orders the rows.
    """
    if residual is None:
        residual = Decomposition.from_entries([])
    den = residual.denominator
    dtype = np.result_type(residual.numerators.dtype, _int_dtype(den))
    triangles = np.concatenate([np.array(removed, np.int32).reshape(-1, 3), residual.triangles])
    numerators = np.concatenate(
        [np.full(len(removed), den, dtype), residual.numerators.astype(dtype)]
    )
    order = np.argsort(_triangle_keys(triangles, g.n))
    return Decomposition(triangles[order], numerators[order], den)
