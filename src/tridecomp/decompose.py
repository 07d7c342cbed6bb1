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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    EdgeInNoTriangleError,
    EmptyGraphError,
    InputFormatError,
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
from .maxflow import ArcNetwork, max_flow
from .peeling import peel_heavy_triangles

REGIME_LIMIT = Fraction(1, 10)

FLOAT_EDGE_TOLERANCE = 1e-9
FLOAT_WEIGHT_FLOOR = -1e-12


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


class TriangleWeightAssignment:
    """Evolving map from every triangle of the host graph to its weight."""

    def __init__(self, graph, weights):
        self.graph = graph
        self.weights = weights
        # Set by solve(): the flow value that was required and achieved.
        self.required_flow = None

    @classmethod
    def uniform(cls, graph, triangles, weight):
        return cls(graph, {tuple(row): weight for row in triangles.tolist()})

    def __len__(self):
        return len(self.weights)

    def total(self):
        return sum(self.weights.values())

    def edge_weight(self, u, v):
        """Sum of the weights of the triangles containing edge (u, v)."""
        g = self.graph
        g.edge_id(u, v)
        total = 0
        for w in np.nonzero(g.adj[u] & g.adj[v])[0].tolist():
            total += self.weights[tuple(sorted((u, v, w)))]
        return total

    def items(self):
        return self.weights.items()


def apply_transfer(assignment, link, net_flow, direction="e1->e2"):
    """Move `net_flow` of edge weight across a rooted-K4 link.

    Sending f from e1 to e2 subtracts f/2 from each of the two K4 triangles
    containing e1 and adds f/2 to each of the two containing e2; only the
    weights of e1 and e2 change (by -f and +f), every other edge keeps its
    sum because each remaining K4 edge lies in one losing and one gaining
    triangle. The caller is responsible for |net_flow| <= link capacity.
    """
    g = assignment.graph
    p, q = g.endpoints(link.e1)
    r, s = g.endpoints(link.e2)
    if direction == "e1->e2":
        (sa, sb), (da, db) = (p, q), (r, s)
    elif direction == "e2->e1":
        (sa, sb), (da, db) = (r, s), (p, q)
    else:
        raise ValueError(f"direction must be 'e1->e2' or 'e2->e1', got {direction!r}")
    half = net_flow / 2
    weights = assignment.weights
    try:
        for w in (da, db):
            weights[tuple(sorted((sa, sb, w)))] -= half
        for w in (sa, sb):
            weights[tuple(sorted((da, db, w)))] += half
    except KeyError as exc:
        raise UnknownTriangleError(
            f"transfer references triangle {exc.args[0]} missing from the assignment"
        ) from exc
    return assignment


@dataclass(frozen=True)
class FlowNetwork:
    """The auxiliary network: residual edges as nodes plus two terminals."""

    residual: Graph
    uniform_weight: Fraction
    deficiency: Fraction
    link_capacity: Fraction
    links: object
    source_excess: dict
    sink_deficit: dict
    required_flow: Fraction

    @property
    def supersource(self):
        return self.residual.m

    @property
    def supersink(self):
        return self.residual.m + 1

    def to_arc_network(self):
        """Solver form plus the arc layout (terminal arc ids, link arc base)."""
        tails, heads, caps = [], [], []
        source_arcs = {}
        sink_arcs = {}
        for e in sorted(self.source_excess):
            source_arcs[e] = len(tails)
            tails.append(self.supersource)
            heads.append(e)
            caps.append(self.source_excess[e])
        for e in sorted(self.sink_deficit):
            sink_arcs[e] = len(tails)
            tails.append(e)
            heads.append(self.supersink)
            caps.append(self.sink_deficit[e])
        link_base = len(tails)
        e1s = self.links.e1.tolist()
        e2s = self.links.e2.tolist()
        for a, b in zip(e1s, e2s):
            tails.append(a)
            heads.append(b)
            caps.append(self.link_capacity)
            tails.append(b)
            heads.append(a)
            caps.append(self.link_capacity)
        net = ArcNetwork(
            self.residual.m + 2, tails, heads, caps, self.supersource, self.supersink
        )
        return net, (source_arcs, sink_arcs, link_base)


def build_network(residual, uniform_weight, deficiency, max_links=DEFAULT_MAX_LINKS,
                  triangles=None):
    """Assemble the auxiliary network for a residual graph.

    The deficiency is the one fixed from the original (pre-peeling) graph.
    Per-direction link capacity is 2w / (3(1-d)n); edges with triangle-weight
    sum above 1 become sources with the surplus as terminal capacity, those
    below 1 become sinks with the shortfall, exact balances are left off the
    terminals entirely. `triangles`, when given, is
    `enumerate_triangles(residual)`.
    """
    if not 0 <= deficiency < 1:
        raise ValueError(f"deficiency {deficiency} outside [0, 1)")
    n = residual.n
    capacity = 2 * uniform_weight / (3 * (1 - deficiency) * n)
    counts = triangles_per_edge(residual, triangles)
    source_excess = {}
    sink_deficit = {}
    for e, te in enumerate(counts.tolist()):
        load = te * uniform_weight
        if load > 1:
            source_excess[e] = load - 1
        elif load < 1:
            sink_deficit[e] = 1 - load
    required = sum(source_excess.values(), Fraction(0))
    deficit_total = sum(sink_deficit.values(), Fraction(0))
    if required != deficit_total:
        raise AssertionError(
            f"source/sink imbalance {required} vs {deficit_total}; "
            "the uniform weight is not m/(3t)"
        )
    links = enumerate_rooted_k4_links(residual, max_links)
    return FlowNetwork(
        residual=residual,
        uniform_weight=uniform_weight,
        deficiency=deficiency,
        link_capacity=capacity,
        links=links,
        source_excess=source_excess,
        sink_deficit=sink_deficit,
        required_flow=required,
    )


@dataclass(frozen=True)
class CutCertificate:
    """Witness that the maximum flow falls short of the required value.

    `source_side_edges` are the residual-graph edge ids whose network nodes
    sit on the supersource side of a minimum cut of capacity < required_flow.
    """

    source_side_edges: list
    cut_capacity: Fraction
    required_flow: Fraction


@dataclass(frozen=True)
class Decomposition:
    """Triangles with weights covering every edge of the host graph exactly once."""

    entries: list
    graph: Graph | None = None

    def total(self):
        return sum(w for _, w in self.entries)

    def weight_of(self, triangle):
        for tri, w in self.entries:
            if tri == triangle:
                return w
        return None


class _ConservationMonitor:
    """Recomputes the full triangle-weight total against m/3 during transfers.

    Checks after every transfer while the running cost stays small, then
    samples every 64th transfer plus a final check on large instances.
    """

    def __init__(self, assignment, expected, transfers):
        self.assignment = assignment
        self.expected = expected
        self.count = 0
        self.every = 1 if len(assignment) * max(transfers, 1) <= 2_000_000 else 64

    def after_transfer(self):
        self.count += 1
        if self.count % self.every == 0:
            self._check()

    def finish(self):
        self._check()

    def _check(self):
        total = self.assignment.total()
        if total != self.expected:
            raise AssertionError(
                f"total triangle weight {total} drifted from {self.expected}"
            )


def solve(residual, deficiency, mode="exact", max_links=DEFAULT_MAX_LINKS,
          instrument=False):
    """Redistribute uniform weights on a peeled residual graph.

    Returns a TriangleWeightAssignment in which every edge weight equals
    exactly 1, or a CutCertificate when the max flow misses the required
    value. `mode="float"` switches the weight bookkeeping (not the flow
    computation, which is always exact) to float64 for large instances.
    """
    triangles = enumerate_triangles(residual)
    uniform = initial_weight(residual, triangles=triangles)
    network = build_network(
        residual, uniform, deficiency, max_links=max_links, triangles=triangles
    )
    arcnet, (source_arcs, sink_arcs, link_base) = network.to_arc_network()
    result = max_flow(arcnet)
    if result.value > network.required_flow:
        raise AssertionError("flow value exceeds the supersource cut capacity")
    if result.value < network.required_flow:
        m = residual.m
        edges = [e for e in range(m) if result.source_side[e]]
        return CutCertificate(
            source_side_edges=edges,
            cut_capacity=result.value,
            required_flow=network.required_flow,
        )

    if instrument:
        for e, arc in source_arcs.items():
            if result.flow(arc) != network.source_excess[e]:
                raise AssertionError(f"source arc of edge {e} is unsaturated")
        for e, arc in sink_arcs.items():
            if result.flow(arc) != network.sink_deficit[e]:
                raise AssertionError(f"sink arc of edge {e} is unsaturated")

    start = uniform if mode == "exact" else float(uniform)
    assignment = TriangleWeightAssignment.uniform(residual, triangles, start)

    flows = result.flows_scaled
    denom = result.denominator
    nets = []
    for i in range(len(network.links)):
        delta = flows[link_base + 2 * i] - flows[link_base + 2 * i + 1]
        if delta:
            nets.append((i, delta))

    monitor = None
    if instrument and mode == "exact":
        monitor = _ConservationMonitor(assignment, Fraction(residual.m, 3), len(nets))

    for i, delta in nets:
        link = network.links.link(i)
        amount = Fraction(abs(delta), denom)
        if mode != "exact":
            amount = abs(delta) / denom
        direction = "e1->e2" if delta > 0 else "e2->e1"
        apply_transfer(assignment, link, amount, direction)
        if monitor is not None:
            monitor.after_transfer()
    if monitor is not None:
        monitor.finish()
    assignment.required_flow = network.required_flow
    return assignment


def decompose(g, mode="exact", max_links=DEFAULT_MAX_LINKS, instrument=False):
    """Full pipeline on an arbitrary graph; peeled triangles carry weight one."""
    one = Fraction(1) if mode == "exact" else 1.0
    if g.m == 0:
        return Decomposition(entries=[], graph=g)
    stats = degree_stats(g)
    if stats.deficiency >= REGIME_LIMIT:
        warnings.warn(
            f"deficiency {stats.deficiency} is at or above {REGIME_LIMIT}: outside "
            "the regime where the flow method is guaranteed",
            RegimeWarning,
            stacklevel=2,
        )
    peel = peel_heavy_triangles(g)
    entries = [(tri, one) for tri in peel.removed]
    if peel.residual.m > 0:
        outcome = solve(
            peel.residual,
            peel.deficiency,
            mode=mode,
            max_links=max_links,
            instrument=instrument,
        )
        if isinstance(outcome, CutCertificate):
            return outcome
        entries.extend(outcome.items())
    entries.sort(key=lambda item: item[0])
    return Decomposition(entries=entries, graph=g)


def _format_weight(w):
    return str(w) if isinstance(w, Fraction) else repr(w)


def format_decomposition(d):
    lines = [f"# triangles={len(d.entries)} total={_format_weight(d.total())}"]
    for (a, b, c), w in d.entries:
        lines.append(f"{a} {b} {c} {_format_weight(w)}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text, mode="exact"):
    """Read the decomposition text format; duplicate triangles are kept as-is
    (the verifier sums them)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputFormatError(f"line {lineno}: expected 'u v w weight'")
        try:
            a, b, c = int(parts[0]), int(parts[1]), int(parts[2])
            weight = Fraction(parts[3]) if mode == "exact" else float(Fraction(parts[3]))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from exc
        if not a < b < c:
            raise InputFormatError(f"line {lineno}: vertices must be strictly increasing")
        entries.append(((a, b, c), weight))
    return Decomposition(entries=entries, graph=None)


def format_cut_certificate(cert):
    header = (
        f"# INFEASIBLE-BY-FLOW M={cert.required_flow} cut={cert.cut_capacity}"
    )
    return "\n".join([header] + [str(e) for e in cert.source_side_edges]) + "\n"
