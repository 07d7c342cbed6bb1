"""Exact maximum flow over rational capacities with minimum-cut extraction.

Capacities are scaled once by the lcm of their denominators, the blocking-flow
phases then run over Python integers, and flows come back as exact rationals
over that common denominator. Phase count is bounded by the node count, so
termination does not depend on capacity values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels


@dataclass(frozen=True)
class ArcNetwork:
    """Directed arcs (tail, head, rational capacity) with designated terminals."""

    num_nodes: int
    tails: list
    heads: list
    capacities: list
    source: int
    sink: int

    @classmethod
    def from_triples(cls, num_nodes, triples, source, sink):
        tails, heads, caps = [], [], []
        for t, h, c in triples:
            tails.append(t)
            heads.append(h)
            caps.append(c if isinstance(c, Fraction) else Fraction(c))
        return cls(num_nodes, tails, heads, caps, source, sink)

    def validate(self):
        if not 0 <= self.source < self.num_nodes:
            raise ValueError("source out of range")
        if not 0 <= self.sink < self.num_nodes:
            raise ValueError("sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if self.tails and not (
            0 <= min(self.tails)
            and max(self.tails) < self.num_nodes
            and 0 <= min(self.heads)
            and max(self.heads) < self.num_nodes
        ):
            raise ValueError("arc endpoint out of range")


@dataclass(frozen=True)
class FlowResult:
    """A maximum flow with its matching minimum cut.

    Per-arc flows are integers over the shared `denominator`; `flow(i)` gives
    the exact rational for arc i without materializing millions of Fractions.
    """

    value: Fraction
    flows_scaled: list
    denominator: int
    source_side: list
    _value_scaled: int = field(repr=False, default=0)

    def flow(self, i):
        return Fraction(self.flows_scaled[i], self.denominator)

    def flows(self):
        return [Fraction(f, self.denominator) for f in self.flows_scaled]


def _scale_capacities(capacities):
    denoms = {c.denominator for c in capacities}
    lcm = math.lcm(*denoms) if denoms else 1
    # Auxiliary networks repeat one capacity object across most arcs, so
    # scale each distinct Fraction object once.
    cache = {}
    scaled = []
    for c in capacities:
        key = id(c)
        v = cache.get(key)
        if v is None:
            if c < 0:
                raise ValueError(f"negative capacity {c}")
            v = c.numerator * (lcm // c.denominator)
            cache[key] = v
        scaled.append(v)
    return scaled, lcm


def max_flow(net):
    """Maximum flow and a minimum cut; duality is asserted before returning."""
    net.validate()
    caps_scaled, lcm = _scale_capacities(net.capacities)
    value_scaled, flows_scaled, reach = kernels.max_flow_int(
        net.num_nodes, net.source, net.sink, net.tails, net.heads, caps_scaled
    )
    result = FlowResult(
        value=Fraction(value_scaled, lcm),
        flows_scaled=flows_scaled,
        denominator=lcm,
        source_side=list(reach),
        _value_scaled=value_scaled,
    )
    cut_cap = sum(
        c
        for t, h, c in zip(net.tails, net.heads, caps_scaled)
        if reach[t] and not reach[h]
    )
    if cut_cap != value_scaled:
        raise AssertionError(
            f"max-flow/min-cut duality violated: value {value_scaled} vs cut {cut_cap}"
        )
    return result


def flow_violation(net, res):
    """First violated flow constraint as a message, or None when valid/maximum.

    Re-derives everything (scaled capacities, conservation, value, cut
    capacity) from the network; nothing is trusted from the solver.
    """
    caps_scaled, lcm = _scale_capacities(net.capacities)
    if lcm != res.denominator:
        return f"denominator mismatch: {res.denominator} vs {lcm}"
    if len(res.flows_scaled) != len(net.tails):
        return "flow vector length does not match arc count"
    balance = [0] * net.num_nodes
    for i, (t, h, c) in enumerate(zip(net.tails, net.heads, caps_scaled)):
        f = res.flows_scaled[i]
        if f < 0:
            return f"arc {i} carries negative flow"
        if f > c:
            return f"arc {i} exceeds its capacity"
        balance[t] -= f
        balance[h] += f
    for v in range(net.num_nodes):
        if v in (net.source, net.sink):
            continue
        if balance[v] != 0:
            return f"conservation violated at node {v}"
    if -balance[net.source] != res.value * lcm:
        return "value does not equal the net outflow of the source"
    if not res.source_side[net.source] or res.source_side[net.sink]:
        return "cut does not separate source from sink"
    cut_cap = sum(
        c
        for t, h, c in zip(net.tails, net.heads, caps_scaled)
        if res.source_side[t] and not res.source_side[h]
    )
    if Fraction(cut_cap, lcm) != res.value:
        return "cut capacity does not equal the flow value"
    return None


def verify_flow(net, res):
    """Independent recheck of capacity, conservation, value, and cut capacity."""
    return flow_violation(net, res) is None
