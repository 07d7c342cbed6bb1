"""Max-flow solver against exhaustive min-cut enumeration and injected faults."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridecomp.maxflow import ArcNetwork, flow_violation, max_flow, verify_flow

from conftest import brute_min_cut


def net(num_nodes, triples, source=0, sink=None):
    if sink is None:
        sink = num_nodes - 1
    return ArcNetwork.from_triples(num_nodes, triples, source, sink)


class TestBasics:
    def test_single_arc(self):
        res = max_flow(net(2, [(0, 1, Fraction(5, 3))]))
        assert res.value == Fraction(5, 3)
        assert res.flow(0) == Fraction(5, 3)

    def test_parallel_paths(self):
        res = max_flow(net(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]))
        assert res.value == 2
        assert res.source_side == [True, False, False, False]

    def test_bottleneck(self):
        # min cut computed by enumerating the 4 cuts of this 4-node network
        triples = [(0, 1, 2), (1, 2, 1), (1, 3, 1), (2, 3, 2)]
        expected = brute_min_cut(4, [0, 1, 1, 2], [1, 2, 3, 3], [2, 1, 1, 2], 0, 3)
        assert expected == 2
        assert max_flow(net(4, triples)).value == expected

    def test_empty_network(self):
        n = net(2, [])
        assert n.tails.size == 0 and n.denominator == 1
        res = max_flow(n)
        assert res.value == 0
        assert res.flows_scaled == []

    def test_disconnected(self):
        res = max_flow(net(3, [(0, 1, 7)], source=0, sink=2))
        assert res.value == 0

    def test_antiparallel_arcs(self):
        res = max_flow(net(3, [(0, 1, 3), (1, 0, 3), (1, 2, 2)]))
        assert res.value == 2

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValueError):
            max_flow(net(2, [], source=0, sink=0))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_flow(net(2, [(0, 1, Fraction(-1))]))

    def test_rational_capacities(self):
        n = net(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 2))])
        # Scaled once by the lcm 6 of the denominators.
        assert n.denominator == 6
        assert n.capacities.tolist() == [2, 3]
        res = max_flow(n)
        assert res.denominator == 6
        assert res.flows_scaled == [2, 2]
        assert res.value == Fraction(1, 3)

    def test_huge_capacities_use_exact_path(self):
        big = Fraction(10**30, 7)
        n = net(2, [(0, 1, big)])
        assert n.capacities.tolist() == [10**30]
        res = max_flow(n)
        assert res.value == big


class TestVerifyFlow:
    def test_solver_output_verifies(self):
        n = net(4, [(0, 1, 2), (1, 2, 1), (1, 3, 1), (2, 3, 2)])
        res = max_flow(n)
        assert verify_flow(n, res)

    def test_over_capacity_detected(self):
        n = net(2, [(0, 1, 1)])
        res = max_flow(n)
        bad = replace(res, flows_scaled=[res.flows_scaled[0] + 1])
        assert "capacity" in flow_violation(n, bad)

    def test_broken_conservation_detected(self):
        n = net(3, [(0, 1, 2), (1, 2, 2)])
        res = max_flow(n)
        bad = replace(res, flows_scaled=[2, 1])
        assert "conservation" in flow_violation(n, bad)

    def test_denominator_mismatch_detected(self):
        n = net(2, [(0, 1, Fraction(1, 2))])
        res = max_flow(n)
        bad = replace(res, denominator=4)
        assert "denominator" in flow_violation(n, bad)

    def test_bad_cut_detected(self):
        n = net(2, [(0, 1, 1)])
        res = max_flow(n)
        bad = replace(res, source_side=[True, True])
        assert "separate" in flow_violation(n, bad)


def random_network_cases(count, max_nodes=10, max_cap=9, seed=0x5EED):
    state = seed
    for _ in range(count):

        def rand(bound):
            nonlocal state
            state = state * 6364136223846793005 + 1442695040888963407 & (1 << 64) - 1
            return (state >> 33) % bound

        num_nodes = 2 + rand(max_nodes - 1)
        source = rand(num_nodes)
        sink = rand(num_nodes)
        while sink == source:
            sink = rand(num_nodes)
        arcs = []
        for _ in range(rand(2 * max_nodes + 1)):
            t = rand(num_nodes)
            h = rand(num_nodes)
            if t != h:
                arcs.append((t, h, Fraction(rand(max_cap + 1))))
        yield num_nodes, arcs, source, sink


class TestAgainstBruteForce:
    def test_random_small_networks(self):
        for num_nodes, arcs, source, sink in random_network_cases(300):
            network = ArcNetwork.from_triples(num_nodes, arcs, source, sink)
            res = max_flow(network)
            expected = brute_min_cut(
                num_nodes,
                [a[0] for a in arcs],
                [a[1] for a in arcs],
                [a[2] for a in arcs],
                source,
                sink,
            )
            assert res.value == expected
            assert verify_flow(network, res)


@st.composite
def tiny_networks(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    arc_count = draw(st.integers(min_value=0, max_value=10))
    arcs = []
    for _ in range(arc_count):
        t = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        h = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if t != h:
            num = draw(st.integers(min_value=0, max_value=12))
            den = draw(st.integers(min_value=1, max_value=4))
            arcs.append((t, h, Fraction(num, den)))
    return num_nodes, arcs


@settings(max_examples=60, deadline=None)
@given(tiny_networks(), st.data())
def test_adding_an_arc_never_decreases_value(case, data):
    num_nodes, arcs = case
    base = ArcNetwork.from_triples(num_nodes, arcs, 0, num_nodes - 1)
    before = max_flow(base).value
    t = data.draw(st.integers(min_value=0, max_value=num_nodes - 2))
    h = data.draw(st.integers(min_value=t + 1, max_value=num_nodes - 1))
    cap = Fraction(data.draw(st.integers(min_value=0, max_value=9)))
    bigger = ArcNetwork.from_triples(num_nodes, arcs + [(t, h, cap)], 0, num_nodes - 1)
    assert max_flow(bigger).value >= before


@settings(max_examples=60, deadline=None)
@given(tiny_networks())
def test_duality_always(case):
    num_nodes, arcs = case
    network = ArcNetwork.from_triples(num_nodes, arcs, 0, num_nodes - 1)
    res = max_flow(network)
    assert verify_flow(network, res)
