"""The benchmark's traced call sites still exist in the package, and its
counts still read what they expect from their return values.

`pipebench/tracing.py` wraps functions by (module, attribute path) and
reports a missing one as absent instead of failing, and a count whose
function raises on a changed return shape is dropped the same way, so a
rename or a new return shape would silently zero a benchmark metric. This
test loads that file by path, without changing it, resolves every site and
traces one small `decompose`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tridecomp.cli import main

TRACING = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _load_tracing()
SITES = TRACING_MODULE.SITES


@pytest.mark.parametrize("module_name, path", [site[:2] for site in SITES])
def test_site_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_traced_decompose_records_every_count(capsys):
    for module_name in {site[0] for site in SITES}:
        importlib.import_module(module_name)
    tracer = TRACING_MODULE.Tracer()
    tracer.install()
    try:
        # K13 minus a Hamilton cycle: nothing is peeled, 65 edges, 546 links,
        # and the flow saturates.
        code = main(["decompose", "--gen", "complete-minus-hamilton", "--n", "13"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.absent == []
    assert tracer.failed_counts == set()
    counts = tracer.take_counts()
    assert tracer.absent_metrics() == []
    assert counts["graph.links"] == 546
    # Two slots per link, and a terminal slot and its reverse for each of
    # the 65 edges, all of which start off balance.
    assert counts["decompose.arcs"] == 2 * 546 + 2 * 65
    # The shared denominator is 108.
    assert counts["maxflow.denominator_bits"] == 7
