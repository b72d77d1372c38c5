"""The HTTP surface of the decision service.

:class:`DecisionServer` puts a :class:`~repro.serve.service.DecisionService`
behind the shared stdlib plumbing (:mod:`repro.utils.httpd`), the same
way :class:`repro.obs.serve.MetricsServer` exposes a registry:

========  ==========  ====================================================
method    path        behaviour
========  ==========  ====================================================
POST      /decide     thresholds for ``{"device": i}`` or
                      ``{"devices": [...]}`` at the current γ̂ — a batch
                      costs one vectorised kernel probe; sheds with
                      **503 + Retry-After** past the admission watermark
POST      /join       membership announcement (JoinLeave protocol message)
POST      /leave      ditto, leaving
GET       /state      γ̂, η, round, membership, load, shed counters
GET       /healthz    200 while the coordinator loop is alive, 503 after
GET       /metrics    Prometheus text exposition of the serve registry
========  ==========  ====================================================

Errors map onto plain HTTP: malformed JSON or unknown device ids → 400,
oversized batches → 413, shed load → 503 with ``Retry-After`` set to one
round period.  Every response is JSON (except ``/metrics``) and carries
``Content-Length``, so HTTP/1.1 keep-alive works and a replay client can
reuse one connection per worker.

Request spans: constructed with ``spans=SpanCollector(...)``, the server
records one ``serve.decide`` span per admitted request (wall time as the
span clock, status ``ok``/``error``) and one instant ``serve.shed`` span
per rejection.  The coordinator's ``coordinator.broadcast`` round spans
go to the same collector: handler threads and the coordinator's loop
thread share it behind one lock, owned here.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.obs.serve import prometheus_text
from repro.obs.spans import SpanCollector
from repro.serve.service import DecisionService
from repro.utils.httpd import HttpDaemon, QuietHandler


class _Handler(QuietHandler):
    protocol_version = "HTTP/1.1"

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:
        server: DecisionServer = self.server.decision_server
        if self.path == "/healthz":
            if server.service.healthy:
                self.send_json(200, {"status": "ok"})
            else:
                self.send_json(503, {"status": "unavailable"})
        elif self.path in ("/state", "/"):
            self.send_json(200, server.service.state())
        elif self.path == "/metrics":
            self.send_text(
                200, server.metrics_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        else:
            self.send_json(404, {"error": f"unknown path {self.path}"})

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:
        server: DecisionServer = self.server.decision_server
        if self.path == "/decide":
            self._decide(server)
        elif self.path in ("/join", "/leave"):
            self._membership(server, joining=self.path == "/join")
        else:
            self.drain_body()
            self.send_json(404, {"error": f"unknown path {self.path}"})

    def _decide(self, server: "DecisionServer") -> None:
        service = server.service
        if not service.admission.try_enter():
            self.drain_body()    # keep-alive safety: never strand body bytes
            service.registry.inc("serve.shed")
            server.span_instant("serve.shed")
            self.send_json(
                503, {"error": "overloaded, retry later", "shed": True},
                extra_headers={
                    "Retry-After": f"{service.config.round_period:g}"},
            )
            return
        try:
            span = server.span_begin("serve.decide")
            try:
                body = self.read_json_body()
            except ValueError as error:
                service.registry.inc("serve.errors")
                server.span_close(span, "error")
                self.send_json(400, {"error": str(error)})
                return
            devices = self._extract_devices(body)
            if devices is None:
                service.registry.inc("serve.errors")
                server.span_close(span, "error")
                self.send_json(400, {
                    "error": "body must carry \"device\": int or "
                             "\"devices\": [int, ...]"})
                return
            batch = 1 if isinstance(devices, int) else len(devices)
            if batch > service.config.max_batch:
                service.registry.inc("serve.errors")
                server.span_close(span, "error")
                self.send_json(413, {
                    "error": f"batch of {batch} exceeds max_batch="
                             f"{service.config.max_batch}"})
                return
            try:
                payload = service.decide(devices)
            except ValueError as error:
                service.registry.inc("serve.errors")
                server.span_close(span, "error")
                self.send_json(400, {"error": str(error)})
                return
            server.span_close(span, "ok", batch=batch)
            self.send_json(200, payload)
        finally:
            service.admission.exit()

    def _membership(self, server: "DecisionServer", joining: bool) -> None:
        service = server.service
        try:
            body = self.read_json_body()
        except ValueError as error:
            self.send_json(400, {"error": str(error)})
            return
        devices = self._extract_devices(body)
        if devices is None:
            self.send_json(400, {
                "error": "body must carry \"device\": int or "
                         "\"devices\": [int, ...]"})
            return
        try:
            accepted = service.join(devices) if joining \
                else service.leave(devices)
        except ValueError as error:
            self.send_json(400, {"error": str(error)})
            return
        self.send_json(200, {"accepted": accepted, "joining": joining})

    @staticmethod
    def _extract_devices(body: dict):
        """``device: int`` | ``devices: [int, ...]`` → ids, else None."""
        # Exact types: bool is an int subclass and must not pass.
        if "device" in body:
            device = body["device"]
            return device if type(device) is int else None
        devices = body.get("devices")
        if not isinstance(devices, list) or not devices \
                or set(map(type, devices)) != {int}:
            return None
        return devices


class _LockedSpans:
    """A collector's ``start``/``end``, each taken under ``lock``."""

    def __init__(self, spans: SpanCollector, lock: threading.Lock):
        self._spans = spans
        self._lock = lock

    def start(self, *args, **kwargs) -> int:
        with self._lock:
            return self._spans.start(*args, **kwargs)

    def end(self, *args, **kwargs) -> None:
        with self._lock:
            self._spans.end(*args, **kwargs)


class DecisionServer:
    """The decision service behind a threaded stdlib HTTP daemon."""

    def __init__(self, service: DecisionService, port: int = 0,
                 host: str = "127.0.0.1",
                 spans: Optional[SpanCollector] = None):
        self.service = service
        self.spans = spans
        self._span_lock = threading.Lock()
        if spans is not None:
            service.trace_rounds(_LockedSpans(spans, self._span_lock))
        self._daemon = HttpDaemon(
            _Handler, port=port, host=host,
            name="repro-decision-server", decision_server=self,
        )

    # -- span plumbing (handler threads share one collector) ---------------

    def span_begin(self, name: str) -> Optional[int]:
        if self.spans is None:
            return None
        with self._span_lock:
            return self.spans.start(
                name, virtual_time=self.service.driver.now)

    def span_close(self, span: Optional[int], status: str, **tags) -> None:
        if span is None or self.spans is None:
            return
        with self._span_lock:
            self.spans.end(span, status=status,
                           virtual_time=self.service.driver.now, **tags)

    def span_instant(self, name: str) -> None:
        self.span_close(self.span_begin(name), "shed")

    def metrics_text(self) -> str:
        registry = self.service.registry
        coordinator = self.service.coordinator
        registry.set_gauge("serve.gamma_hat", coordinator.stepper.estimate)
        registry.set_gauge("serve.round", float(coordinator.round))
        registry.set_gauge("serve.in_flight",
                           float(self.service.admission.in_flight))
        return prometheus_text(registry.snapshot())

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        return self._daemon.port

    @property
    def url(self) -> str:
        return self._daemon.url

    @property
    def running(self) -> bool:
        return self._daemon.running

    def start(self) -> "DecisionServer":
        """Start the service (if needed), then the HTTP listener."""
        if not self.service._started:
            self.service.start()
        self._daemon.start()
        return self

    def stop(self) -> None:
        self._daemon.stop()
        self.service.stop()
        if self.spans is not None:
            with self._span_lock:
                self.spans.finish(virtual_time=self.service.driver.now)
                self.spans.close()

    def __enter__(self) -> "DecisionServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "listening" if self.running else "stopped"
        return f"DecisionServer({self.url}, {state})"
