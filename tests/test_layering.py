"""Module layering: the certificate checker, the LP oracle and the graph
layer import no solver."""

import ast
from pathlib import Path

import tridecomp

PACKAGE = Path(tridecomp.__file__).parent


def relative_imports(name):
    """The package modules that `name`.py imports by a relative import."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from . import x` names modules; `from .x import y` names one.
            modules |= {node.module} if node.module else {a.name for a in node.names}
    return modules


def test_verify_imports_only_errors():
    assert relative_imports("verify") <= {"errors"}


def test_lp_imports_no_flow_layer():
    assert relative_imports("lp") <= {"errors", "graph", "verify"}


def test_graph_imports_no_flow_kernel():
    # The enumerations live in graph.py, and kernels.py is only the Dinic.
    assert relative_imports("graph") <= {"errors"}
    assert relative_imports("kernels") == set()


def test_names_keep_their_old_homes():
    # `tridecomp.decompose` and `tridecomp.verify` are the functions; the
    # certificate types are still importable from the decompose module.
    from tridecomp.decompose import CutCertificate, Decomposition

    assert callable(tridecomp.decompose)
    assert callable(tridecomp.verify)
    assert CutCertificate is tridecomp.CutCertificate
    assert Decomposition is tridecomp.Decomposition
