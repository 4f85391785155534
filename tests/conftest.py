"""Session fixtures and a deterministic hypothesis profile."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings

from stochorder import catalog
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
