"""HTTP transport suite: status-code mapping and endpoint payloads.

Talks to a real :class:`repro.serve.ServeHTTPServer` on an ephemeral
port with stdlib ``http.client`` — no test double sits between the
suite and the request parsing being verified.
"""

import http.client
import json

import pytest

from repro.serve import (
    MAX_BODY_BYTES,
    MicroBatchService,
    ServeHTTPServer,
    ServeOptions,
)

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def server(served_model):
    svc = MicroBatchService(ServeOptions())
    svc.register("demo", served_model)
    with ServeHTTPServer(svc, port=0).start_background() as srv:
        yield srv
    svc.close()


def call(server, method, path, body=None, headers=None):
    """One HTTP round-trip; returns ``(status, parsed_json, headers)``."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        payload = json.dumps(body).encode() if isinstance(body, dict) else body
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), dict(response.getheaders())
    finally:
        conn.close()


def predict_body(series):
    return {"model": "demo", "series": [float(v) for v in series]}


class TestEndpoints:
    def test_healthz(self, server):
        status, payload, _ = call(server, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "models": ["demo"]}

    def test_models_lists_plan_signatures(self, server):
        status, payload, _ = call(server, "GET", "/models")
        assert status == 200
        assert payload["demo"]["n_classes"] == 2
        assert payload["demo"]["model_class"] == "PTPNC"

    def test_predict_roundtrip(self, server, series):
        status, payload, _ = call(server, "POST", "/predict", predict_body(series))
        assert status == 200
        assert payload["model"] == "demo"
        assert payload["prediction"] in (0, 1)
        assert len(payload["logits"]) == 2
        assert payload["batch_size"] >= 1
        # The transport must agree with the service called directly.
        direct = server.service.predict("demo", series)
        assert payload["prediction"] == direct["prediction"]

    def test_predict_mc_roundtrip(self, server, series):
        body = dict(predict_body(series), draws=8, seed=1)
        status, payload, _ = call(server, "POST", "/predict_mc", body)
        assert status == 200
        assert sum(payload["class_votes"]) == 8
        assert 0 < payload["confidence"] <= 1
        assert payload["draws"] == 8

    def test_stats_reflects_traffic(self, server, series):
        call(server, "POST", "/predict", predict_body(series))
        status, payload, _ = call(server, "GET", "/stats")
        assert status == 200
        assert payload["requests"] >= 1
        assert payload["by_status"].get("ok", 0) >= 1
        assert set(payload["latency_ms"]) == {"p50", "p99", "mean"}


class TestErrorMapping:
    def test_malformed_json_is_400(self, server):
        status, payload, _ = call(
            server, "POST", "/predict", b"{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert "JSON" in payload["error"]

    def test_non_object_body_is_400(self, server):
        status, payload, _ = call(server, "POST", "/predict", b"[1, 2, 3]")
        assert status == 400
        assert "object" in payload["error"]

    def test_empty_body_is_400(self, server):
        status, payload, _ = call(server, "POST", "/predict", b"")
        assert status == 400
        assert "empty" in payload["error"]

    def test_missing_model_field_is_400(self, server):
        status, payload, _ = call(server, "POST", "/predict", {"series": [0.1, 0.2]})
        assert status == 400
        assert "model" in payload["error"]

    def test_missing_series_field_is_400(self, server):
        status, payload, _ = call(server, "POST", "/predict", {"model": "demo"})
        assert status == 400
        assert "series" in payload["error"]

    def test_ragged_series_is_400(self, server):
        body = {"model": "demo", "series": [[0.1, 0.2], [0.3]]}
        status, payload, _ = call(server, "POST", "/predict", body)
        assert status == 400

    def test_non_finite_series_is_400(self, server):
        body = {"model": "demo", "series": [0.1, "nan", 0.3]}
        status, _, _ = call(server, "POST", "/predict", body)
        assert status == 400

    def test_unknown_model_is_404(self, server, series):
        body = {"model": "missing", "series": [float(v) for v in series]}
        status, payload, _ = call(server, "POST", "/predict", body)
        assert status == 404
        assert "missing" in payload["error"]

    def test_unknown_endpoint_is_404(self, server, series):
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            status, _, _ = call(server, method, path, predict_body(series))
            assert status == 404

    def test_oversize_body_is_413(self, server):
        status, payload, _ = call(
            server, "POST", "/predict", b"",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
        )
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_bad_mc_parameters_are_400(self, server, series):
        for overrides in ({"draws": "many"}, {"draws": 0}, {"spread": 2.0}):
            body = dict(predict_body(series), **overrides)
            status, _, _ = call(server, "POST", "/predict_mc", body)
            assert status == 400


class TestBackpressureOverHTTP:
    def test_queue_full_maps_to_503_with_retry_after(
        self, monkeypatch, served_model, series
    ):
        monkeypatch.setattr(MicroBatchService, "_batch_loop", lambda self: None)
        svc = MicroBatchService(ServeOptions(queue_size=1))
        svc.register("demo", served_model)
        try:
            with ServeHTTPServer(svc, port=0).start_background() as srv:
                svc.submit("demo", series)  # fill the queue
                status, payload, headers = call(
                    srv, "POST", "/predict", predict_body(series)
                )
            assert status == 503
            assert "full" in payload["error"]
            assert headers.get("Retry-After") == "1"
        finally:
            svc.close()
