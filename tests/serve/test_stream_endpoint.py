"""Stateful ``/predict_stream`` suite: session continuity over HTTP.

The serving tier's streaming path must honour the split-invariance
contract of :mod:`repro.core.streaming` end-to-end: a series delivered
chunk-by-chunk through a session id yields bit-identical logits to a
one-shot session, and session lifecycle (open / reset / close / LRU
eviction) maps onto the documented status codes.
"""

import numpy as np
import pytest

from repro.core import StreamingSession
from repro.serve import (
    MicroBatchService,
    ServeHTTPServer,
    ServeOptions,
    UnknownSessionError,
)

from .test_service import call

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def server(served_model):
    svc = MicroBatchService(ServeOptions(max_sessions=4))
    svc.register("demo", served_model)
    with ServeHTTPServer(svc, port=0).start_background() as srv:
        yield srv
    svc.close()


def chunk_body(series, **extra):
    body = {"model": "demo", "series": [float(v) for v in series]}
    body.update(extra)
    return body


class TestStreamEndpoint:
    def test_chunked_session_bit_equal_one_shot(self, server, series, served_model):
        """Three chunks through one HTTP session equal the one-shot
        in-process session bitwise (state carried server-side)."""
        status, first, _ = call(
            server, "POST", "/predict_stream", chunk_body(series[:8])
        )
        assert status == 200
        sid = first["session"]
        assert first["steps_seen"] == 8 and first["chunk_steps"] == 8
        for lo, hi in ((8, 9), (9, 24)):
            status, payload, _ = call(
                server, "POST", "/predict_stream", chunk_body(series[lo:hi], session=sid)
            )
            assert status == 200
            assert payload["session"] == sid
        assert payload["steps_seen"] == series.size
        oracle = StreamingSession(served_model).process(series)
        assert payload["logits"] == [float(v) for v in oracle[-1]]
        assert payload["prediction"] == int(np.argmax(oracle[-1]))

    def test_reset_discharges_state(self, server, series):
        _, first, _ = call(server, "POST", "/predict_stream", chunk_body(series))
        sid = first["session"]
        _, again, _ = call(
            server,
            "POST",
            "/predict_stream",
            chunk_body(series, session=sid, reset=True),
        )
        assert again["logits"] == first["logits"]
        assert again["steps_seen"] == series.size

    def test_close_discards_session(self, server, series):
        _, opened, _ = call(server, "POST", "/predict_stream", chunk_body(series[:4]))
        sid = opened["session"]
        status, closed, _ = call(
            server, "POST", "/predict_stream", {"model": "demo", "session": sid, "close": True}
        )
        assert status == 200
        assert closed == {
            "model": "demo",
            "session": sid,
            "closed": True,
            "steps_seen": 4,
        }
        status, payload, _ = call(
            server, "POST", "/predict_stream", chunk_body(series, session=sid)
        )
        assert status == 404
        assert sid in payload["error"]

    def test_unknown_session_is_404(self, server, series):
        status, payload, _ = call(
            server, "POST", "/predict_stream", chunk_body(series, session="nope")
        )
        assert status == 404
        assert "nope" in payload["error"]

    def test_missing_series_is_400_unless_closing(self, server):
        status, payload, _ = call(
            server, "POST", "/predict_stream", {"model": "demo"}
        )
        assert status == 400
        assert "series" in payload["error"]

    def test_close_without_session_is_400(self, server):
        status, payload, _ = call(
            server, "POST", "/predict_stream", {"model": "demo", "close": True}
        )
        assert status == 400

    def test_unknown_model_is_404(self, server, series):
        status, _, _ = call(
            server,
            "POST",
            "/predict_stream",
            dict(chunk_body(series), model="ghost"),
        )
        assert status == 404

    def test_lru_evicts_oldest_session(self, server, series):
        """Opening more sessions than ``max_sessions`` evicts the
        least-recently-used one, which then 404s."""
        _, oldest, _ = call(server, "POST", "/predict_stream", chunk_body(series[:2]))
        for _ in range(server.service.options.max_sessions):
            call(server, "POST", "/predict_stream", chunk_body(series[:2]))
        status, _, _ = call(
            server,
            "POST",
            "/predict_stream",
            chunk_body(series[:2], session=oldest["session"]),
        )
        assert status == 404


class TestServiceDirect:
    def test_session_mismatched_model_rejected(self, served_model, series):
        with MicroBatchService(ServeOptions()) as svc:
            svc.register("a", served_model)
            svc.register("b", served_model)
            opened = svc.predict_stream("a", series[:4])
            with pytest.raises(ValueError, match="belongs to model"):
                svc.predict_stream("b", series[:4], session_id=opened["session"])

    def test_close_unknown_session_raises(self, served_model):
        with MicroBatchService(ServeOptions()) as svc:
            svc.register("a", served_model)
            with pytest.raises(UnknownSessionError):
                svc.predict_stream("a", session_id="missing", close=True)

    def test_sessions_cleared_on_close(self, served_model, series):
        svc = MicroBatchService(ServeOptions())
        svc.register("a", served_model)
        opened = svc.predict_stream("a", series[:4])
        svc.close()
        assert not svc._sessions
        with pytest.raises(Exception):
            svc.predict_stream("a", series[:4], session_id=opened["session"])
