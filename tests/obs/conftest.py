"""Observability test fixtures.

The flight recorder is process-global (by design: instrumentation sites
reach it without plumbing), so every test goes through a fixture that
saves the environment variable, resets to a known state, and restores
everything afterwards — tests in other directories always see it in its
default (disabled) state.  The telemetry fixtures live in
``tests/conftest.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.obs.flight import FLIGHT_ENV, configure_flight


@pytest.fixture()
def flight_dir(tmp_path):
    """The global FlightRecorder, enabled into a temp dir; restored after."""
    saved_env = os.environ.get(FLIGHT_ENV)
    directory = tmp_path / "flight"
    configure_flight(str(directory))
    yield directory
    configure_flight(None)
    if saved_env is not None:
        os.environ[FLIGHT_ENV] = saved_env
