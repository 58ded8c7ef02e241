"""Live ops endpoint: the registry served over HTTP while a run executes.

:class:`OpsServer` is a stdlib-only (``http.server``) background thread
exposing three read-only endpoints against a live
:class:`~repro.obs.metrics.MetricsRegistry`:

* ``/metrics``  — Prometheus text exposition (scrapeable);
* ``/snapshot`` — the JSON registry snapshot (optionally a richer
  system-provided snapshot when a provider callable is given);
* ``/slo``      — the SLO tracker's objective states and error budgets
  (404 unless an ``slo_provider`` is wired);
* ``/healthz``  — liveness probe: ``200 ok``, or ``503`` when the SLO
  provider reports an exhausted error budget (load balancers drain
  breached instances).

Wired as ``repro run --serve PORT`` (serve while the figures run) and
``repro serve`` (a standalone demo that drives a continuous workload).
The server never mutates anything: it renders whatever the registry
holds at request time.  Rendering races harmlessly with the run thread
(metric dicts grow while we iterate), so each render retries a few
times on ``RuntimeError: dict changed size`` before giving up with a
503 — acceptable for an ops endpoint, never for the experiment itself.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from repro.obs.export import to_prometheus_text
from repro.obs.metrics import MetricsRegistry

__all__ = ["OpsServer"]

_RENDER_RETRIES = 5


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-ops/1"

    # The owning OpsServer injects itself on the server object.
    def _ops(self) -> "OpsServer":
        return self.server.ops  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            if self._ops().slo_healthy():
                self._respond(200, "text/plain; charset=utf-8", "ok\n")
            else:
                self._respond(
                    503, "text/plain; charset=utf-8", "slo budget exhausted\n"
                )
            return
        if path == "/slo":
            state = self._ops().take_slo_state()
            if state is None:
                self._respond(404, "text/plain; charset=utf-8", "no slo tracker\n")
                return
            self._respond(
                200,
                "application/json; charset=utf-8",
                json.dumps(state, indent=2, sort_keys=True) + "\n",
            )
            return
        if path == "/metrics":
            self._render(
                "text/plain; version=0.0.4; charset=utf-8",
                lambda: to_prometheus_text(self._ops().registry),
            )
            return
        if path == "/snapshot":
            self._render(
                "application/json; charset=utf-8",
                lambda: json.dumps(self._ops().take_snapshot(), indent=2, sort_keys=True)
                + "\n",
            )
            return
        self._respond(404, "text/plain; charset=utf-8", "not found\n")

    def _render(self, content_type: str, render: Callable[[], str]) -> None:
        for _ in range(_RENDER_RETRIES):
            try:
                body = render()
            except RuntimeError:
                # Registry mutated mid-iteration; take a fresh view.
                continue
            self._respond(200, content_type, body)
            return
        self._respond(503, "text/plain; charset=utf-8", "registry busy, retry\n")

    def _respond(self, status: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # ops requests must not spam the experiment's stdout


class OpsServer:
    """Background HTTP server over a live metrics registry.

    ``port=0`` asks the OS for a free port (tests); the bound port is on
    ``server.port`` after :meth:`start`.  ``snapshot_provider`` lets an
    entry point serve a richer ``/snapshot`` (e.g. the system facade's
    ``snapshot()`` with its hot-key table) instead of the bare registry.
    ``slo_provider`` (e.g. the facade's ``slo_state``) turns on ``/slo``
    and makes ``/healthz`` breach-aware; it is read-only — serving never
    ticks the tracker, so scrape rate cannot skew tick-based budgets.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 8080,
        host: str = "127.0.0.1",
        snapshot_provider: Optional[Callable[[], dict]] = None,
        slo_provider: Optional[Callable[[], Optional[dict]]] = None,
    ) -> None:
        self.registry = registry
        self._snapshot_provider = snapshot_provider
        self._slo_provider = slo_provider
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.ops = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def take_snapshot(self) -> dict:
        if self._snapshot_provider is not None:
            return self._snapshot_provider()
        return self.registry.snapshot()

    def take_slo_state(self) -> Optional[dict]:
        if self._slo_provider is None:
            return None
        try:
            return self._slo_provider()
        except Exception:
            # A broken provider must not take the ops endpoint down.
            return None

    def slo_healthy(self) -> bool:
        """False only when the SLO provider affirmatively reports an
        exhausted budget; provider absence or failure degrades to
        healthy (liveness must not flap on plumbing errors)."""
        state = self.take_slo_state()
        if state is None:
            return True
        return bool(state.get("healthy", True))

    def start(self) -> "OpsServer":
        if self._thread is not None:
            raise RuntimeError("OpsServer already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-ops-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
