"""Keep-alive connection-pool behavior of :class:`ServiceClient`.

The pool is load-bearing twice over: the bench harness measures
throughput through it (reconnect-per-request would swamp the planning
cost being measured), and the sharded router forwards every request
over it (a shard connection per request would serialize the fleet on
connect overhead).
"""

from __future__ import annotations

import threading

import pytest

from repro.service import ServiceClient, ServiceConnectionError
from repro.service.app import PlanningServer


class TestPooling:
    def test_sequential_requests_reuse_one_connection(self, client):
        for _ in range(5):
            assert client.healthz().status == 200
        stats = client.pool_stats()
        assert stats.created == 1
        assert stats.reused == 4
        assert stats.retired == 0
        assert stats.idle == 1

    def test_pool_is_bounded_under_concurrency(self, server, fresh_caches):
        client = ServiceClient(server.url, pool_size=2)
        barrier = threading.Barrier(6)
        failures = []

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    assert client.plan({"ranks": 64}).status == 200
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        stats = client.pool_stats()
        # Excess connections are retired on release, never pooled.
        assert stats.idle <= 2
        assert stats.created + stats.reused == 18
        client.close()

    def test_close_drains_idle_and_stops_pooling(self, client):
        client.healthz()
        client.close()
        assert client.pool_stats().idle == 0
        # A closed client still works; it just stops pooling.
        assert client.healthz().status == 200
        assert client.pool_stats().idle == 0

    def test_context_manager_closes(self, server, fresh_caches):
        with ServiceClient(server.url) as client:
            client.healthz()
            assert client.pool_stats().idle == 1
        assert client.pool_stats().idle == 0

    def test_pool_size_validated(self, server):
        with pytest.raises(ValueError, match="pool_size"):
            ServiceClient(server.url, pool_size=0)

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="http"):
            ServiceClient("ftp://example.com")


class _OneShotServer:
    """Serves exactly one HTTP response per TCP connection, then hangs
    up *without* advertising ``Connection: close`` — the stale
    keep-alive race every pooled client must absorb, made deterministic.
    """

    _RESPONSE = (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 2\r\n\r\n{}"
    )

    def __init__(self) -> None:
        import socket

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.served = 0
        self._closed = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            with conn:
                if self._closed:
                    continue  # hang up without a response
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                if data:
                    # Count before replying: once the client reads the
                    # response it may assert on ``served`` at once.
                    self.served += 1
                    conn.sendall(self._RESPONSE)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._sock.close()


class TestTransportFailures:
    def test_unreachable_server_raises_connection_error(self):
        # Bind-then-close guarantees a dead port.
        from socket import AF_INET, SOCK_STREAM, socket

        with socket(AF_INET, SOCK_STREAM) as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=5)
        with pytest.raises(ServiceConnectionError):
            client.healthz()

    def test_stale_pooled_connection_retried_once(self):
        server = _OneShotServer()
        client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout_s=10)
        try:
            assert client.healthz().status == 200
            assert client.pool_stats().idle == 1  # pooled: no close header
            # The server already hung up; the reused socket fails and the
            # client must transparently retry on a fresh connection.
            assert client.healthz().status == 200
            stats = client.pool_stats()
            assert stats.reused == 1
            assert stats.retired >= 1  # the stale socket was discarded
            assert server.served == 2
        finally:
            client.close()
            server.close()

    def test_fresh_connection_failure_propagates(self):
        server = _OneShotServer()
        client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout_s=5)
        try:
            assert client.healthz().status == 200
            server.close()
            # Reused socket fails -> retry opens a fresh connection ->
            # connect refused -> the error must propagate (no third try).
            with pytest.raises(ServiceConnectionError):
                client.healthz()
        finally:
            client.close()
