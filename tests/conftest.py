"""Shared fixtures plus a terminal summary for the acceptance suite."""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import embimpute as ei


def build_system(n, p, d, s, delta, seed):
    """Random end-to-end system: domain matrix, graph, weights, fixed weights."""
    rng = np.random.default_rng(seed)
    domain = ei.DomainMatrix(
        tuple(f"e{i:05d}" for i in range(n)), rng.normal(size=(n, d))
    )
    known = rng.normal(size=(p, s))
    distances = ei.euclidean_distance_matrix(domain)
    graph = ei.build_graph(distances, delta)
    weights = ei.assemble_weight_matrix(graph, domain)
    fixed = ei.fix_known_block(weights, p)
    return SimpleNamespace(
        n=n,
        p=p,
        domain=domain,
        known=known,
        distances=distances,
        graph=graph,
        weights=weights,
        fixed=fixed,
    )


@pytest.fixture(scope="session", autouse=True)
def child_imports_this_checkout():
    """CLI tests start ``python -m embimpute`` in a child interpreter; put
    the package this suite imports on its path too, so an uninstalled
    checkout tests its own code."""
    source = str(Path(ei.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def random_system():
    return build_system


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[name] = "SKIP"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"  {name}: {_ACCEPTANCE_RESULTS[name]}")
