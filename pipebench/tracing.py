"""Spans around the package's public functions, installed from outside.

Each wrapped name is replaced in the namespace of the module that calls it,
found through `sys.modules` (the package attribute `tridecomp.decompose` is
the function, not the module). A name that no longer exists is reported as
absent and left alone, so refactors of the package do not break the
benchmark. No source file is changed.

A span's self time is its duration minus the durations of the wrapped calls
made inside it. Counts are taken from the arguments and results at the same
boundaries and kept per op.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_triangles(counts, args, result):
    counts["graph.triangle_calls"] += 1
    counts["graph.t"] = int(result.shape[0])


def _count_lp_triangles(counts, args, result):
    _count_triangles(counts, args, result)
    counts["lp.t"] = counts["graph.t"]


def _count_links(counts, args, result):
    counts["graph.links"] = len(result)


def _count_arcs(counts, args, result):
    counts["decompose.arcs"] = len(result[0].tails)


def _count_denominator(counts, args, result):
    counts["maxflow.denominator_bits"] = result.denominator.bit_length()


def _count_removed(counts, args, result):
    counts["peeling.removed"] = len(result.removed)


def _count_entries(counts, args, result):
    d = args[1]
    counts["verify.entries"] = len(getattr(d, "entries", d))


def _count_transfer(counts, args, result):
    counts["decompose.transfers"] += 1


def _count_cuts(counts, args, result):
    counts["decompose.cuts"] += type(result).__name__ == "CutCertificate"


# (module, attribute path, span name, count function). Several sites may
# share a span name; their times and calls add up.
SITES = (
    ("tridecomp.cli", "read_edge_list", "instances.read_edge_list", None),
    ("tridecomp.cli", "decompose", "decompose.decompose", _count_cuts),
    ("tridecomp.cli", "verify", "verify.verify", _count_entries),
    ("tridecomp.cli", "lp_feasible", "lp.lp_feasible", None),
    ("tridecomp.cli", "format_decomposition", "cli.format", None),
    ("tridecomp.cli", "format_cut_certificate", "cli.format", None),
    ("tridecomp.decompose", "peel_heavy_triangles", "peeling.peel_heavy_triangles", _count_removed),
    ("tridecomp.decompose", "initial_weight", "decompose.initial_weight", None),
    ("tridecomp.decompose", "build_network", "decompose.build_network", None),
    ("tridecomp.decompose", "enumerate_triangles", "graph.enumerate_triangles", _count_triangles),
    ("tridecomp.decompose", "enumerate_rooted_k4_links", "graph.enumerate_rooted_k4_links", _count_links),
    ("tridecomp.decompose", "max_flow", "maxflow.max_flow", _count_denominator),
    ("tridecomp.decompose", "apply_transfer", "decompose.apply_transfer", _count_transfer),
    ("tridecomp.decompose", "solve", "decompose.solve", None),
    ("tridecomp.decompose", "FlowNetwork.to_arc_network", "decompose.to_arc_network", _count_arcs),
    ("tridecomp.kernels", "max_flow_int", "kernels.max_flow_int", None),
    ("tridecomp.lp", "enumerate_triangles", "graph.enumerate_triangles", _count_lp_triangles),
)

# Per-layer time metric -> the span whose self time it sums.
SPAN_METRICS = {
    "kernels.dinic_s": "kernels.max_flow_int",
    "maxflow.max_flow_self_s": "maxflow.max_flow",
    "decompose.to_arc_network_s": "decompose.to_arc_network",
    "decompose.build_network_self_s": "decompose.build_network",
    "decompose.transfer_s": "decompose.apply_transfer",
    "decompose.solve_self_s": "decompose.solve",
    "decompose.initial_weight_s": "decompose.initial_weight",
    "decompose.decompose_self_s": "decompose.decompose",
    "graph.triangles_s": "graph.enumerate_triangles",
    "graph.links_s": "graph.enumerate_rooted_k4_links",
    "verify.verify_s": "verify.verify",
    "lp.lp_feasible_s": "lp.lp_feasible",
    "peeling.peel_s": "peeling.peel_heavy_triangles",
    "instances.read_s": "instances.read_edge_list",
    "cli.format_s": "cli.format",
}
# Per-layer count metric -> the site (module.path) that records it.
COUNT_METRICS = {
    "decompose.transfers": "tridecomp.decompose.apply_transfer",
    "graph.triangle_calls": "tridecomp.decompose.enumerate_triangles",
    "graph.t": "tridecomp.decompose.enumerate_triangles",
    "graph.links": "tridecomp.decompose.enumerate_rooted_k4_links",
    "decompose.arcs": "tridecomp.decompose.FlowNetwork.to_arc_network",
    "decompose.cuts": "tridecomp.cli.decompose",
    "maxflow.denominator_bits": "tridecomp.decompose.max_flow",
    "lp.t": "tridecomp.lp.enumerate_triangles",
    "verify.entries": "tridecomp.cli.verify",
    "peeling.removed": "tridecomp.decompose.peel_heavy_triangles",
}


class Tracer:
    """Installs the span wrappers, accumulates spans and counts per op."""

    def __init__(self):
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.root_s = 0.0  # time inside spans that have no traced parent
        self.counts = Counter()
        self.failed_counts = set()  # sites whose count function raised
        self._stack = []
        self._patched = []
        self.absent = []

    def _wrap(self, site, span, fn, count):
        self_s, stack = self.self_s, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration
                self_s[span] += duration - children
            if count is not None:
                try:
                    count(self.counts, args, result)
                except Exception:  # a changed return shape must not fail the op
                    self.failed_counts.add(site)
            return result

        return wrapper

    def install(self):
        self.absent = []
        for module_name, path, span, count in SITES:
            site = f"{module_name}.{path}"
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(site)
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(site, span, fn, count))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    def take_counts(self):
        """The counts of the op that just ended, and a fresh counter."""
        counts, self.counts = self.counts, Counter()
        return dict(counts)

    def absent_metrics(self):
        """Per-layer metrics that no installed site can record."""
        installed = {f"{m}.{p}": span for m, p, span, _ in SITES}
        for site in self.absent:
            installed.pop(site)
        spans = set(installed.values())
        absent = [name for name, span in SPAN_METRICS.items() if span not in spans]
        absent += [
            name
            for name, site in COUNT_METRICS.items()
            if site not in installed or site in self.failed_counts
        ]
        return absent
