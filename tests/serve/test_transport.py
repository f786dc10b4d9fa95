"""Socket options of the HTTP transport.

The handler writes a reply's headers and body as two sends.  With
Nagle's algorithm on, the body waits for the client's delayed ACK, so
every keep-alive reply would stall ~40 ms.  The check is structural —
it reads ``TCP_NODELAY`` off the server-side accepted socket — rather
than a wall-clock bound.
"""

import http.client
import socket

import pytest

from repro.serve import MicroBatchService, ServeHTTPServer, ServeOptions
from repro.serve.service import _Handler

pytestmark = pytest.mark.serve


def test_accepted_socket_sets_tcp_nodelay(served_model):
    nodelay = []

    class RecordingHandler(_Handler):
        def setup(self):
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

    svc = MicroBatchService(ServeOptions())
    svc.register("demo", served_model)
    try:
        srv = ServeHTTPServer(svc, port=0)
        srv.RequestHandlerClass = RecordingHandler
        with srv.start_background():
            host, port = srv.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=30.0)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
    finally:
        svc.close()
    assert response.status == 200
    assert nodelay and all(nodelay)
