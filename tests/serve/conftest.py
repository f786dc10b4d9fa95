"""Fixtures for the serving-tier concurrency/fault suite.

Flaky-timeout guard
-------------------
Every timing-sensitive wait in this suite goes through the ``t``
fixture, which scales budgets by ``REPRO_SERVE_TIMEOUT_SCALE``
(defaulting to 4 on CI, where schedulers stall threads for whole
seconds).  Tests assert *correctness after* a wait, never that
something completed *within* a tight bound — budgets are upper bounds
sized generously so a slow machine cannot produce a false failure.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.core import PTPNC

#: Multiplier for every timeout in this suite.
TIMEOUT_SCALE = float(
    os.environ.get("REPRO_SERVE_TIMEOUT_SCALE", "4" if os.environ.get("CI") else "1")
)

#: Fault-injection helpers pickle worker payloads by reference, which
#: the child can only resolve when it was forked from this process.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault-injection payloads require the fork start method",
)


@pytest.fixture
def t():
    """Scale a timeout budget: ``t(0.5)`` seconds, CI-multiplied."""

    def scale(seconds: float) -> float:
        return seconds * TIMEOUT_SCALE

    return scale


@pytest.fixture(scope="session")
def served_model():
    """One small trained-shape model shared by the whole suite."""
    return PTPNC(2, rng=np.random.default_rng(0))


@pytest.fixture
def series():
    return np.clip(np.cumsum(np.random.default_rng(1).normal(0, 0.2, 24)), -1, 1)


class _Gate:
    """Holds one service thread inside its first batch until released."""

    def __init__(self, svc, method: str, budget: float) -> None:
        self.entered = threading.Event()
        self._release = threading.Event()
        self._budget = budget
        inner = getattr(svc, method)
        first = [True]

        def held(*args):
            if first[0]:
                first[0] = False
                self.entered.set()
                self._release.wait(timeout=budget)
            return inner(*args)

        # An instance attribute shadows the method the loop looks up.
        setattr(svc, method, held)

    def wait_entered(self) -> None:
        assert self.entered.wait(timeout=self._budget), "no batch reached the gate"

    def release(self) -> None:
        self._release.set()


@pytest.fixture
def gate(t):
    """Make batch coalescing deterministic, without timing.

    ``hold = gate(svc)`` stalls ``svc``'s batch thread inside its first
    batch (``gate(svc, "_run_stream_batch")`` the fleet thread).  Send
    one plug request, ``hold.wait_entered()``, queue the companions,
    then ``hold.release()``: the companions are all queued before the
    thread looks again, so they form the next batch together.
    """
    gates = []

    def install(svc, method: str = "_run_batch") -> _Gate:
        gates.append(_Gate(svc, method, t(10.0)))
        return gates[-1]

    yield install
    for g in gates:
        g.release()
