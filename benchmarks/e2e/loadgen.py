"""Load generation and latency statistics for the ``serve-predict`` workload.

An open loop sends on a seeded Poisson schedule whatever the service
does, so a stall delays every later request and the queue can grow;
each request is timed from the moment it was *due*, not from when the
generator got round to sending it, so generator lateness is charged to
the system rather than hidden.  How late the generator itself ran is
reported alongside, as a validity check on the measurement.

A closed loop keeps a fixed number of requests in flight and sends the
next one only when one completes; it measures the service's capacity.
With one request in flight it measures the latency of a lone caller.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Seconds after the last send that outstanding requests may still finish
#: before they count as failed.
_DRAIN_TIMEOUT_S = 10.0

#: Sleep until this close to a due time, then spin (sleep overshoots by
#: tens of microseconds, a visible fraction of a 333 us inter-arrival gap).
_SPIN_S = 2e-4


def poisson_schedule(rate: float, duration: float, seed: int) -> np.ndarray:
    """Due times in seconds, relative to the phase start, of a Poisson process."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, int(rate * duration * 1.5) + 64)
    due = np.cumsum(gaps)
    while due[-1] < duration:
        due = np.concatenate([due, due[-1] + np.cumsum(rng.exponential(1.0 / rate, len(due)))])
    return due[due < duration]


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100, linear interpolation); NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail_percentile(samples) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples beyond it.

    Returns ``(q, value, n)``: the percentile in 0-100, the sample value
    at it (``MIN_BEYOND`` samples are strictly larger, barring ties) and
    the sample count; ``None`` when there are too few samples to leave
    ``MIN_BEYOND`` beyond any percentile.
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        return None
    ordered = np.sort(np.asarray(samples, dtype=float))
    return 100.0 * (n - MIN_BEYOND) / n, float(ordered[n - MIN_BEYOND - 1]), n


@dataclasses.dataclass
class Phase:
    """Outcome of one load phase: counts, latencies and generator lateness."""

    name: str
    sent: int
    ok: int
    failed: int
    wall_s: float
    latencies_s: np.ndarray
    late_s: np.ndarray
    drain_s: float = 0.0
    #: Open loop only: request ``i``'s future, ``None`` where it was refused.
    futures: List[Optional[Future]] = dataclasses.field(default_factory=list, repr=False)

    def summary(self) -> dict:
        """JSON-ready counts and latency percentiles in milliseconds."""
        ms = self.latencies_s * 1e3
        tail = tail_percentile(ms)
        out = {
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "p50_ms": percentile(ms, 50),
            "p99_ms": percentile(ms, 99),
            "drain_s": self.drain_s,
            "late_p99_ms": percentile(self.late_s * 1e3, 99),
        }
        if tail is not None:
            out["tail"] = {"q": tail[0], "ms": tail[1], "n": tail[2]}
        return out


def open_loop(name: str, submit: Callable[[int], Future], due: np.ndarray) -> Phase:
    """Send request ``i`` at ``due[i]`` seconds via ``submit(i)``, whatever the load.

    ``submit`` returns a future or raises (a refusal, counted as failed).
    Latency runs from the due time to the moment the future resolves;
    requests still unresolved :data:`_DRAIN_TIMEOUT_S` after the last
    send count as failed.
    """
    n = len(due)
    done = np.full(n, np.nan)
    errors = [0]
    lock = threading.Lock()
    futures: List[Optional[Future]] = []
    late = np.empty(n)

    def finish(i: int, future: Future) -> None:
        now = time.perf_counter()
        if future.cancelled() or future.exception() is not None:
            with lock:
                errors[0] += 1
        else:
            done[i] = now

    t0 = time.perf_counter() + 1e-3
    targets = t0 + due
    for i in range(n):
        target = targets[i]
        while True:
            now = time.perf_counter()
            if now >= target:
                break
            if target - now > _SPIN_S:
                time.sleep(target - now - _SPIN_S)
        late[i] = now - target
        try:
            future = submit(i)
        except Exception:  # noqa: BLE001 — a refused request is a measured failure
            futures.append(None)
            continue
        future.add_done_callback(lambda f, i=i: finish(i, f))
        futures.append(future)
    last_send = time.perf_counter()
    deadline = last_send + _DRAIN_TIMEOUT_S
    accepted = [f for f in futures if f is not None]
    for future in accepted:
        try:
            future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except Exception:  # noqa: BLE001 — counted through ``finish`` or below
            pass
    finished = ~np.isnan(done)
    latencies = done[finished] - targets[finished]
    end = float(np.nanmax(done)) if finished.any() else last_send
    refused = n - len(accepted)
    unresolved = sum(1 for f in accepted if not f.done())
    return Phase(
        name=name,
        sent=n,
        ok=int(finished.sum()),
        failed=refused + errors[0] + unresolved,
        wall_s=end - t0,
        latencies_s=latencies,
        late_s=late,
        drain_s=max(0.0, end - last_send),
        futures=futures,
    )


def closed_loop(
    name: str, submit: Callable[[int], Future], in_flight: int, duration: float
) -> Phase:
    """Keep ``in_flight`` requests outstanding for ``duration`` seconds.

    Latency runs from each send to its completion; ``wall_s`` from the
    first send to the last completion, so ``ok / wall_s`` is the
    throughput the service sustained.
    """
    slots = threading.Semaphore(in_flight)
    lock = threading.Lock()
    latencies: List[float] = []
    counts = {"failed": 0, "last": 0.0}

    def finish(sent_at: float, future: Future) -> None:
        now = time.perf_counter()
        with lock:
            if future.cancelled() or future.exception() is not None:
                counts["failed"] += 1
            else:
                latencies.append(now - sent_at)
            counts["last"] = max(counts["last"], now)
        slots.release()

    sent = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < duration:
        slots.acquire()
        sent_at = time.perf_counter()
        try:
            future = submit(sent)
        except Exception:  # noqa: BLE001 — a refused request is a measured failure
            with lock:
                counts["failed"] += 1
            slots.release()
        else:
            future.add_done_callback(lambda f, s=sent_at: finish(s, f))
        sent += 1
    drained = all(slots.acquire(timeout=_DRAIN_TIMEOUT_S) for _ in range(in_flight))
    with lock:
        ok = len(latencies)
        failed = counts["failed"] + (sent - ok - counts["failed"] if not drained else 0)
        end = counts["last"] or time.perf_counter()
    return Phase(
        name=name,
        sent=sent,
        ok=ok,
        failed=failed,
        wall_s=end - t0,
        latencies_s=np.asarray(latencies),
        late_s=np.zeros(0),
    )


def sequential(name: str, call: Callable[[int], object], duration: float) -> Phase:
    """Call ``call(i)`` back to back for ``duration`` seconds (at least once).

    A call that raises or returns a false value is a failed request.
    """
    latencies: List[float] = []
    sent = 0
    t0 = time.perf_counter()
    while sent == 0 or time.perf_counter() - t0 < duration:
        t = time.perf_counter()
        try:
            ok = bool(call(sent))
        except Exception:  # noqa: BLE001 — a failed request is a measured failure
            ok = False
        if ok:
            latencies.append(time.perf_counter() - t)
        sent += 1
    return Phase(
        name=name,
        sent=sent,
        ok=len(latencies),
        failed=sent - len(latencies),
        wall_s=time.perf_counter() - t0,
        latencies_s=np.asarray(latencies),
        late_s=np.zeros(0),
    )
