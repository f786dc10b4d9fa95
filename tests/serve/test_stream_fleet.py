"""Fleet-scheduler regressions: backpressure, eviction races, telemetry.

``/predict_stream`` chunks ride a bounded queue into a per-model
:class:`~repro.core.MultiStreamSession` fleet.  This suite pins the
failure-path contracts the happy-path endpoint suite does not reach:

* a full stream queue maps to HTTP 503 with ``Retry-After`` (and a
  rejected *opening* chunk rolls its fleet row back — no leak);
* LRU eviction racing an in-flight chunk resolves cleanly — the chunk
  either completes bit-correct or fails with 404, never steps a
  re-assigned row, and bystander sessions stay on the oracle;
* coalesced fleet steps surface in ``stats`` and ``stream.batch.*``
  telemetry.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.core import StreamingSession
from repro.serve import (
    MicroBatchService,
    QueueFullError,
    ServeHTTPServer,
    ServeOptions,
    UnknownSessionError,
)
from repro.telemetry import Run, read_events

from .test_service import call

pytestmark = pytest.mark.serve


def make_service(served_model, **overrides):
    options = ServeOptions(**overrides)
    svc = MicroBatchService(options)
    svc.register("demo", served_model)
    return svc


def _evict(svc, session_id):
    """What LRU pressure does to a session, made deterministic: detach
    the entry and park its fleet row (same code path ``_open_stream``
    takes when ``max_sessions`` overflows)."""
    with svc._sessions_lock:
        entry = svc._sessions.pop(session_id)
        entry.evicted = True
    svc._park_dead_row(session_id, entry)
    return entry


class TestQueueFullBackpressure:
    def test_http_503_with_retry_after(self, served_model, series):
        """QueueFullError from the stream path → 503 + Retry-After."""
        svc = make_service(served_model)
        original = svc.predict_stream

        def rejecting(*args, **kwargs):
            raise QueueFullError("stream queue full (128 pending)")

        svc.predict_stream = rejecting
        try:
            with ServeHTTPServer(svc, port=0).start_background() as srv:
                status, payload, headers = call(
                    srv,
                    "POST",
                    "/predict_stream",
                    {"model": "demo", "series": [float(v) for v in series]},
                )
            assert status == 503
            assert "queue full" in payload["error"]
            assert headers.get("Retry-After") == "1"
        finally:
            svc.predict_stream = original
            svc.close()

    def test_queue_full_raises_and_counts(self, served_model, series):
        svc = make_service(served_model)
        put = svc._stream_queue.put_nowait
        try:

            def full(item):
                raise queue.Full

            svc._stream_queue.put_nowait = full
            with pytest.raises(QueueFullError, match="stream queue full"):
                svc.predict_stream("demo", series[:4])
            assert svc.stats.snapshot()["by_status"].get("queue_full") == 1
        finally:
            svc._stream_queue.put_nowait = put
            svc.close()

    def test_rejected_open_rolls_back_the_fleet_row(self, served_model, series):
        """A 503'd *opening* chunk must not leak a session or a row."""
        svc = make_service(served_model, max_sessions=4)
        try:
            opened = svc.predict_stream("demo", series[:4])  # fleet exists now
            fleet = svc._fleets["demo"]

            def full(item):
                raise queue.Full

            put = svc._stream_queue.put_nowait
            try:
                svc._stream_queue.put_nowait = full
                with pytest.raises(QueueFullError):
                    svc.predict_stream("demo", series[:4])
            finally:
                svc._stream_queue.put_nowait = put
            assert set(svc._sessions) == {opened["session"]}
            # the parked row is reclaimed by the next fleet step
            svc.predict_stream(
                "demo", series[4:8], session_id=opened["session"]
            )
            assert fleet.engine.occupancy == 1
        finally:
            svc.close()


class TestEvictionRace:
    def test_evicted_before_dispatch_fails_clean_404(
        self, served_model, series, t
    ):
        """A chunk whose session is evicted while it waits for the fleet
        lock dies with UnknownSessionError — it never steps the row."""
        svc = make_service(served_model, max_sessions=4)
        try:
            victim = svc.predict_stream("demo", series[:4])["session"]
            fleet = svc._fleets["demo"]
            outcome = {}
            with fleet.lock:  # hold the fleet so the batch cannot start
                worker = threading.Thread(
                    target=lambda: outcome.update(
                        error=_expect_raises(
                            lambda: svc.predict_stream(
                                "demo", series[4:8], session_id=victim
                            )
                        )
                    )
                )
                worker.start()
                # wait until the chunk is enqueued (unfinished_tasks is
                # monotonic on put; the opening chunk already counted 1),
                # then evict while the batch is stalled on fleet.lock
                _spin_until(
                    lambda: svc._stream_queue.unfinished_tasks >= 2, t(5.0)
                )
                _evict(svc, victim)
            worker.join(timeout=t(5.0))
            assert not worker.is_alive()
            assert isinstance(outcome["error"], UnknownSessionError)
            # and over HTTP the next chunk is a plain 404
            with pytest.raises(UnknownSessionError):
                svc.predict_stream("demo", series[:4], session_id=victim)
        finally:
            svc.close()

    def test_evicted_during_processing_completes_then_404s(
        self, served_model, series, t
    ):
        """Eviction landing *mid-step* lets the in-flight chunk finish
        bit-correct; only the next chunk sees the 404."""
        svc = make_service(served_model, max_sessions=4)
        try:
            victim = svc.predict_stream("demo", series[:4])["session"]
            fleet = svc._fleets["demo"]
            started, release = threading.Event(), threading.Event()
            inner = fleet.engine.process_many

            def stalling(chunks):
                started.set()
                release.wait(timeout=30.0)
                return inner(chunks)

            fleet.engine.process_many = stalling
            outcome = {}
            worker = threading.Thread(
                target=lambda: outcome.update(
                    result=svc.predict_stream(
                        "demo", series[4:8], session_id=victim
                    )
                )
            )
            worker.start()
            assert started.wait(timeout=t(5.0))
            _evict(svc, victim)  # flips mid-step — too late to stop it
            release.set()
            worker.join(timeout=t(5.0))
            fleet.engine.process_many = inner
            assert not worker.is_alive()
            oracle = StreamingSession(served_model).process(series[:8])
            assert outcome["result"]["logits"] == [float(v) for v in oracle[-1]]
            assert outcome["result"]["steps_seen"] == 8
            with pytest.raises(UnknownSessionError, match=victim):
                svc.predict_stream("demo", series[8:12], session_id=victim)
        finally:
            release.set()
            svc.close()

    def test_bystander_sessions_survive_the_race_bit_equal(
        self, served_model, series
    ):
        """Evicting one session never perturbs another's filter state."""
        svc = make_service(served_model, max_sessions=4)
        try:
            keeper = svc.predict_stream("demo", series[:6])["session"]
            victim = svc.predict_stream("demo", series[:3])["session"]
            _evict(svc, victim)
            final = svc.predict_stream("demo", series[6:], session_id=keeper)
            oracle = StreamingSession(served_model).process(series)
            assert final["logits"] == [float(v) for v in oracle[-1]]
            assert final["steps_seen"] == series.size
            assert svc._fleets["demo"].engine.occupancy == 1
        finally:
            svc.close()

    def test_lru_eviction_emits_telemetry_and_counts(
        self, served_model, series, tmp_path
    ):
        with Run(dir=tmp_path / "run"):
            with make_service(served_model, max_sessions=2) as svc:
                first = svc.predict_stream("demo", series[:2])["session"]
                for _ in range(2):  # overflow the LRU
                    svc.predict_stream("demo", series[:2])
                with pytest.raises(UnknownSessionError):
                    svc.predict_stream("demo", series[:2], session_id=first)
                assert svc.stats.snapshot()["stream"]["evictions"] == 1
        events = read_events(tmp_path / "run" / "events.jsonl")
        (evict,) = [e for e in events if e["kind"] == "stream.batch.evict"]
        assert evict["session"] == first
        assert evict["reason"] == "lru"


class TestFleetCoalescing:
    def test_concurrent_chunks_step_as_one_batch(
        self, served_model, series, gate, t
    ):
        """Two sessions' chunks queued behind a held step share the next
        fleet step, and each still lands exactly on its single-stream
        oracle."""
        svc = make_service(served_model)
        try:
            a = svc.predict_stream("demo", series[:4], timeout=t(10.0))
            b = svc.predict_stream("demo", series[:7], timeout=t(10.0))
            results = {}

            def feed(key, sid, chunk):
                results[key] = svc.predict_stream(
                    "demo", chunk, session_id=sid, timeout=t(10.0)
                )

            hold = gate(svc, "_run_stream_batch")
            plug = threading.Thread(target=feed, args=("plug", None, series[:3]))
            plug.start()
            hold.wait_entered()
            threads = [
                threading.Thread(
                    target=feed, args=("a", a["session"], series[4:10])
                ),
                threading.Thread(
                    target=feed, args=("b", b["session"], series[7:12])
                ),
            ]
            for thread in threads:
                thread.start()
            assert _spin_until(lambda: svc._stream_queue.qsize() == 2, t(5.0))
            hold.release()
            for thread in (plug, *threads):
                thread.join(timeout=t(20.0))
            assert results["plug"]["batch_rows"] == 1
            assert results["a"]["batch_rows"] == 2
            assert results["b"]["batch_rows"] == 2
            for key, hi in (("a", 10), ("b", 12)):
                oracle = StreamingSession(served_model).process(series[:hi])
                assert results[key]["logits"] == [float(v) for v in oracle[-1]]
        finally:
            svc.close()

    def test_stream_stats_and_step_telemetry(self, served_model, series, tmp_path):
        with Run(dir=tmp_path / "run"):
            with make_service(served_model) as svc:
                sid = svc.predict_stream("demo", series[:8])["session"]
                svc.predict_stream("demo", series[8:], session_id=sid)
                stream = svc.stats.snapshot()["stream"]
                assert stream["batches"] == 2
                assert stream["rows_stepped"] == 2
                assert stream["max_occupancy"] == 1
        events = read_events(tmp_path / "run" / "events.jsonl")
        kinds = [e["kind"] for e in events]
        assert "stream.batch.open" in kinds
        steps = [e for e in events if e["kind"] == "stream.batch.step"]
        assert len(steps) == 2
        assert all(e["rows"] == 1 and e["capacity"] == 64 for e in steps)
        assert steps[0]["steps"] == 8 and steps[1]["steps"] == series.size - 8

    def test_report_renders_fleet_stepping(self, served_model, series, tmp_path):
        from repro.report import render_run

        with Run(dir=tmp_path / "run"):
            with make_service(served_model) as svc:
                sid = svc.predict_stream("demo", series[:8])["session"]
                svc.predict_stream("demo", series[8:], session_id=sid)
        text = render_run(tmp_path / "run")
        assert "## Streaming" in text
        assert "Fleet stepping" in text


def _expect_raises(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 — the exception IS the result
        return exc
    return None


def _spin_until(predicate, budget, interval=0.002):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()
