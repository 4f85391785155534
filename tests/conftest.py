"""Session fixtures and a deterministic hypothesis profile."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings

from stochorder import catalog, cli
from stochorder.orders import transform_curves
from stochorder.systems import parse_signature

settings.register_profile(
    "repo",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


@pytest.fixture(scope="session")
def named_distributions():
    return catalog.distributions()


@pytest.fixture(scope="session")
def named_distortions():
    """The catalog distortions, shared by the whole session: the root solves
    of earlier tests stay in their memos (Distortion.solved), so a test that
    means to exercise the solve takes fresh_distortions instead."""
    return catalog.distortions()


@pytest.fixture
def fresh_distortions(named_distortions):
    """Copies of the catalog distortions with empty solve memos."""
    return {name: replace(h) for name, h in named_distortions.items()}


@pytest.fixture(scope="session")
def catalog_curves(named_distributions):
    """curves(name, grid): transform_curves of the catalog distribution name
    alone on grid, computed once per session; the curves are read-only."""
    passes = {}

    def curves(name, grid):
        key = (name, grid)  # grids hash by identity; uniform_grid caches them
        if key not in passes:
            passes[key] = transform_curves([named_distributions[name]], grid)[0]
        return passes[key]

    return curves


@pytest.fixture(scope="session")
def reproduced(tmp_path_factory):
    """bundle(target): the directory ``stochorder reproduce target`` wrote,
    run once per session."""
    root = tmp_path_factory.mktemp("reproduce")
    bundles = {}

    def bundle(target):
        if target not in bundles:
            out = root / target
            assert cli.main(["reproduce", target, "--out-dir", str(out)]) == 0, target
            bundles[target] = out
        return bundles[target]

    return bundle


@pytest.fixture(scope="session")
def named_signatures():
    """The worked systems' signatures, parsed from their catalog rows."""
    return {name: parse_signature(sig) for name, (sig, _) in catalog.SYSTEMS.items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines into the run summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", ()) if mod else ()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
