"""Exact maximum flow over integer capacities with minimum-cut extraction.

A network carries integer capacities over one shared `denominator`: the
auxiliary network of `decompose` is built that way, and `from_triples`
scales rational capacities once by the lcm of their denominators. The
blocking-flow phases run over Python integers, and flows come back as exact
rationals over that denominator. Phase count is bounded by the node count,
so termination does not depend on capacity values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels


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

    Per-arc flows are integers over the shared `denominator`; `flow(i)` gives
    the exact rational for arc i without materializing millions of Fractions.
    """

    value: Fraction
    flows_scaled: list
    denominator: int
    source_side: list

    def flow(self, i):
        return Fraction(self.flows_scaled[i], self.denominator)


def max_flow(net):
    """Maximum flow and a minimum cut; duality is asserted before returning."""
    net.validate()
    value_scaled, flows_scaled, reach = kernels.max_flow_int(
        net.num_nodes, net.source, net.sink, net.tails, net.heads, net.capacities.tolist()
    )
    side = np.array(reach)
    cut_cap = sum(net.capacities[side[net.tails] & ~side[net.heads]].tolist())
    if cut_cap != value_scaled:
        raise AssertionError(
            f"max-flow/min-cut duality violated: value {value_scaled} vs cut {cut_cap}"
        )
    return FlowResult(
        value=Fraction(value_scaled, net.denominator),
        flows_scaled=flows_scaled,
        denominator=net.denominator,
        source_side=list(reach),
    )


def flow_violation(net, res):
    """First violated flow constraint as a message, or None when valid/maximum.

    Re-derives everything (conservation, value, cut capacity) from the
    network's integer capacities; nothing is trusted from the solver.
    """
    if net.denominator != res.denominator:
        return f"denominator mismatch: {res.denominator} vs {net.denominator}"
    if len(res.flows_scaled) != net.tails.size:
        return "flow vector length does not match arc count"
    balance = [0] * net.num_nodes
    arcs = list(zip(net.tails.tolist(), net.heads.tolist(), net.capacities.tolist()))
    for i, (t, h, c) in enumerate(arcs):
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
    if Fraction(-balance[net.source], net.denominator) != res.value:
        return "value does not equal the net outflow of the source"
    if not res.source_side[net.source] or res.source_side[net.sink]:
        return "cut does not separate source from sink"
    side = res.source_side
    cut_cap = sum(c for t, h, c in arcs if side[t] and not side[h])
    if Fraction(cut_cap, net.denominator) != res.value:
        return "cut capacity does not equal the flow value"
    return None


def verify_flow(net, res):
    """Independent recheck of capacity, conservation, value, and cut capacity."""
    return flow_violation(net, res) is None
