"""Shared fixtures.

The simulated clock makes everything deterministic; the main knob for test
speed is the functional-execution cap (how many elements are actually
summed).  ``machine`` uses a small cap so functional paths stay fast while
the performance model still reasons about full paper-scale sizes.

Telemetry state is process-global (by design: instrumentation sites must
be able to reach it without plumbing), so a test that switches it goes
through ``telemetry`` or ``disabled_telemetry``: each saves the enable
flag and environment variable, wipes recorded data, and restores
everything afterwards, so other tests always see telemetry in its
default (disabled, empty) state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Machine, ReproConfig
from repro.core.cases import C1, C2, C3, C4
from repro.telemetry import TELEMETRY_ENV, configure, get_telemetry


@pytest.fixture(scope="session")
def machine() -> Machine:
    """A shared machine with a small functional cap (fast tests)."""
    return Machine(config=ReproConfig(functional_elements_cap=1 << 16))


@pytest.fixture()
def fresh_machine() -> Machine:
    """A per-test machine for tests that mutate trace/state."""
    return Machine(config=ReproConfig(functional_elements_cap=1 << 16))


@pytest.fixture(scope="session")
def paper_machine() -> Machine:
    """Machine with the default (larger) functional cap for accuracy tests."""
    return Machine()


@pytest.fixture(params=[C1, C2, C3, C4], ids=lambda c: c.name)
def paper_case(request):
    """Parametrize over the four paper cases."""
    return request.param


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def _switched_telemetry(enabled: bool):
    saved_env = os.environ.get(TELEMETRY_ENV)
    saved_enabled = get_telemetry().enabled
    yield configure(enabled=enabled, reset=True)
    configure(enabled=saved_enabled, reset=True)
    if saved_env is None:
        os.environ.pop(TELEMETRY_ENV, None)
    else:
        os.environ[TELEMETRY_ENV] = saved_env


@pytest.fixture()
def telemetry():
    """The global Telemetry, enabled and empty; restored on teardown."""
    yield from _switched_telemetry(True)


@pytest.fixture()
def disabled_telemetry():
    """The global Telemetry, disabled and empty; restored on teardown."""
    yield from _switched_telemetry(False)
