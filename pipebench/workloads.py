"""Benchmark inputs: edge-list instances made from a workload seed.

The generators are the benchmark's own, so the program under test receives
only edge-list files. They follow the construction of the `tridecomp gen`
families (xorshift64* with the same constants, complement of random partial
matchings), so an instance here is the graph `gen` makes for the same
parameters.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* (shifts 12, 25, 27; multiplier 0x2545F4914F6CDD1D)."""

    def __init__(self, seed):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK64 or 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def shuffle(self, seq):
        for i in range(len(seq) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def complete_minus_hamilton(n):
    cycle = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    return [p for p in combinations(range(n), 2) if p not in cycle]


def random_min_degree(n, fraction, seed):
    """K_n minus `n - 1 - ceil(fraction * n)` random partial matchings."""
    cap = n - 1 - math.ceil(fraction * n)
    removed = set()
    if cap > 0:
        rng = Xorshift64Star(seed)
        order = list(range(n))
        for _ in range(cap):
            rng.shuffle(order)
            for i in range(0, n - 1, 2):
                a, b = order[i], order[i + 1]
                removed.add((a, b) if a < b else (b, a))
    return [p for p in combinations(range(n), 2) if p not in removed]


def edge_list_text(n, pairs):
    return "\n".join([f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in pairs]) + "\n"


@dataclass(frozen=True)
class Instance:
    """One input file and the CLI command run on it."""

    command: str
    label: str
    n: int
    pairs: list
    path: Path
    digest: str


# 1.7-2.7 s per op on 2 vCPUs, so a 30 s run holds 12-17 ops and its median
# shrugs off a burst of load from the rest of the machine.
FLOW_DENSE_N = 45


def _flow_dense(seed):
    # Deterministic: the seed is ignored.
    n = FLOW_DENSE_N
    return [("decompose", f"kmh{n}", n, complete_minus_hamilton(n))]


# Cycled in this order, so every prefix of a run mixes the three outcomes.
# Op times cluster by fraction (about 0.3, 0.75 and 1.0 s). 9/10 comes twice
# per cycle so that the median op lies inside its cluster, the narrowest of
# the three; with equal shares the median fell between two clusters, and
# inside the 4/5 one, which splits in two, it still moved with the seed.
RMD40_FRACTIONS = (Fraction(7, 10), Fraction(9, 10), Fraction(4, 5), Fraction(9, 10))
# More cycles than a run completes, so no instance runs twice.
RMD40_CYCLES = 16


def _rmd40_mixed(seed):
    rng = Xorshift64Star(seed)
    specs = []
    for _ in range(RMD40_CYCLES):
        for fraction in RMD40_FRACTIONS:
            s = rng.next_u64()
            label = f"rmd40-{fraction.numerator}_{fraction.denominator}-{s:016x}"
            specs.append(("decompose", label, 40, random_min_degree(40, fraction, s)))
    return specs


ORACLE_INSTANCES = 16


def _oracle_lp(seed):
    rng = Xorshift64Star(seed)
    specs = []
    for _ in range(ORACLE_INSTANCES):
        s = rng.next_u64()
        specs.append(("oracle", f"rmd14-4_5-{s:016x}", 14, random_min_degree(14, Fraction(4, 5), s)))
    return specs


WORKLOADS = {
    "flow-dense": _flow_dense,
    "rmd40-mixed": _rmd40_mixed,
    "oracle-lp": _oracle_lp,
}


def make_instances(workload, seed, directory):
    """Generate the workload's inputs from `seed` and write them under `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    instances = []
    for command, label, n, pairs in WORKLOADS[workload](seed):
        text = edge_list_text(n, pairs)
        path = directory / f"{label}.txt"
        path.write_text(text)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        instances.append(Instance(command, label, n, pairs, path, digest))
    return instances
