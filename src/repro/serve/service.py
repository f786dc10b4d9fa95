"""Stdlib HTTP front-end for the micro-batching service.

Endpoints (JSON in, JSON out)::

    GET  /healthz      -> {"status": "ok", "models": [...]}
    GET  /stats        -> ServeStats snapshot
    GET  /models       -> {name: frozen-plan signature}
    POST /predict      -> {"model": ..., "series": [...]}
                       -> {"model", "prediction", "logits",
                           "latency_ms", "batch_size"}
    POST /predict_mc   -> {"model", "series", "draws"?, "spread"?, "seed"?}
                       -> adds {"confidence", "class_votes",
                                "mean_logits", "draws", "spread"}
    POST /predict_stream -> {"model", "series", "session"?, "reset"?,
                             "close"?}
                       -> {"model", "session", "prediction", "logits",
                           "steps_seen", "chunk_steps", "latency_ms"}
                          (omit "session" to open one; thread the
                          returned id through subsequent chunks —
                          filter state carries across requests;
                          ``close: true`` discards it, "series" then
                          optional)

Error mapping: malformed payloads → 400, unknown model/session → 404,
oversize body → 413, queue full → 503 (with ``Retry-After``), request
timeout → 504, anything else → 500.  Built on ``http.server.ThreadingHTTPServer``
— one thread per in-flight request, all funnelling into the service's
bounded queue, so concurrency is capped by backpressure rather than by
the transport.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..compile import PlanInputError
from .batching import MicroBatchService
from .errors import (
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    UnknownModelError,
    UnknownSessionError,
)

__all__ = ["ServeHTTPServer", "MAX_BODY_BYTES"]

#: Largest accepted request body (covers ~60k-sample float series).
MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the owning :class:`ServeHTTPServer`."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out as two sends; with Nagle on, the body
    # waits for the client's delayed ACK (~40 ms per keep-alive reply).
    disable_nagle_algorithm = True

    @property
    def service(self) -> MicroBatchService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 — silence stderr access log
        pass

    def _send_json(self, code: int, payload: dict, retry_after: Optional[int] = None):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, retry_after: Optional[int] = None):
        self._send_json(code, {"error": message}, retry_after=retry_after)

    # -- GET -------------------------------------------------------------

    def do_GET(self):  # noqa: N802 — http.server API
        if self.path == "/healthz":
            self._send_json(
                200, {"status": "ok", "models": self.service.registry.names()}
            )
        elif self.path == "/stats":
            self._send_json(200, self.service.stats.snapshot())
        elif self.path == "/models":
            self._send_json(200, self.service.registry.signatures())
        else:
            self._error(404, f"no such endpoint: {self.path}")

    # -- POST ------------------------------------------------------------

    def _read_request(self, require_series: bool = True) -> Tuple[str, object, dict]:
        """Parse and minimally validate the JSON body of a POST."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise _BadRequest("invalid Content-Length header") from None
        if length <= 0:
            raise _BadRequest("empty request body")
        if length > MAX_BODY_BYTES:
            raise _TooLarge(f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        name = payload.get("model")
        if not isinstance(name, str) or not name:
            raise _BadRequest('missing or non-string "model" field')
        if require_series and "series" not in payload:
            raise _BadRequest('missing "series" field')
        return name, payload.get("series"), payload

    def do_POST(self):  # noqa: N802 — http.server API
        try:
            if self.path == "/predict_stream":
                # "series" may be omitted on close-only requests.
                name, series, payload = self._read_request(require_series=False)
                close = _bool_field(payload, "close", False)
                if not close and series is None:
                    raise _BadRequest('missing "series" field')
                result = self.service.predict_stream(
                    name,
                    series,
                    session_id=_opt_str_field(payload, "session"),
                    reset=_bool_field(payload, "reset", False),
                    close=close,
                )
            else:
                name, series, payload = self._read_request()
                if self.path == "/predict":
                    result = self.service.predict(name, series)
                elif self.path == "/predict_mc":
                    result = self.service.predict_mc(
                        name,
                        series,
                        draws=_int_field(payload, "draws", 32),
                        spread=_float_field(payload, "spread", 0.10),
                        seed=_int_field(payload, "seed", 0),
                    )
                else:
                    self._error(404, f"no such endpoint: {self.path}")
                    return
        except _TooLarge as exc:
            self._error(413, str(exc))
        except _BadRequest as exc:
            self._error(400, str(exc))
        except (PlanInputError, ValueError) as exc:
            self._error(400, str(exc))
        except (UnknownModelError, UnknownSessionError) as exc:
            self._error(404, str(exc))
        except QueueFullError as exc:
            self._error(503, str(exc), retry_after=1)
        except RequestTimeoutError as exc:
            self._error(504, str(exc))
        except ServeError as exc:
            self._error(500, str(exc))
        else:
            self._send_json(200, result)


class _BadRequest(Exception):
    pass


class _TooLarge(Exception):
    pass


def _int_field(payload: dict, key: str, default: int) -> int:
    value = payload.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _BadRequest(f'"{key}" must be an integer')
    return value


def _float_field(payload: dict, key: str, default: float) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _BadRequest(f'"{key}" must be a number')
    return float(value)


def _bool_field(payload: dict, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise _BadRequest(f'"{key}" must be a boolean')
    return value


def _opt_str_field(payload: dict, key: str) -> Optional[str]:
    value = payload.get(key)
    if value is not None and (not isinstance(value, str) or not value):
        raise _BadRequest(f'"{key}" must be a non-empty string')
    return value


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`MicroBatchService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    resolved address.  :meth:`start_background` runs ``serve_forever``
    on a daemon thread; :meth:`close` stops the transport (the service
    itself is closed by its owner).
    """

    daemon_threads = True

    def __init__(
        self, service: MicroBatchService, host: str = "127.0.0.1", port: int = 8000
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start_background(self) -> "ServeHTTPServer":
        self._thread = threading.Thread(
            target=self.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServeHTTPServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
