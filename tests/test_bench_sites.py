"""The benchmark's traced call sites still exist in the package.

`pipebench/tracing.py` wraps functions by (module, attribute path) and
reports a missing one as absent instead of failing, so a rename would
silently zero a benchmark span. This test loads that file by path, without
changing it, and resolves every site.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"


def _load_sites():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


SITES = _load_sites()


@pytest.mark.parametrize("module_name, path", [site[:2] for site in SITES])
def test_site_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for name in path.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
