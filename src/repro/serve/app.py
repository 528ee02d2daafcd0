"""The stdlib HTTP surface of ``repro serve``.

A :class:`ThreadingHTTPServer` whose handler translates requests into
:class:`~repro.serve.service.ScenarioService` calls.  Routes:

====================================  ==========================================
``POST /v1/jobs``                     submit a Scenario spec (201 admitted,
                                      200 duplicate/cached, 400 invalid,
                                      413 body too large, 429 admission
                                      window full)
``GET /v1/jobs``                      all jobs, submission order
``GET /v1/jobs/<id>``                 job status / progress
``GET /v1/jobs/<id>/events``          progress lines — long-poll
                                      (``?since=N&timeout=S``) or chunked
                                      stream (``?stream=1``)
``POST /v1/jobs/<id>/pause``          park at the next increment boundary
``POST /v1/jobs/<id>/resume``         re-enqueue a parked job
``GET /v1/records/<spec_hash>``       canonical record bytes (the store's
                                      JSONL line, byte-identical to a
                                      direct run)
``GET /v1/report``                    HTML report over stored records
                                      (``?preset=`` selects sections)
``GET /metrics``                      Prometheus text format
``GET /``                             HTML index (job table)
====================================  ==========================================

Every handler runs in its own thread (``daemon_threads``), so long-polls
and streams never block other clients.  Clients are identified for queue
fairness by the ``X-Repro-Client`` header (falling back to the peer
address), which the 429 tests use to simulate distinct tenants.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from repro.harness.report import REPORT_SECTIONS, report_sections
from repro.serve import html
from repro.serve.jobs import Job
from repro.serve.service import ScenarioService, ServeConfig

#: Cap on one long-poll / stream wait so dead clients cannot pin threads.
MAX_WAIT_S = 30.0

#: Largest request body accepted (413 above it); far above any spec.
MAX_BODY_BYTES = 1 << 20

#: Seconds a request body may take to arrive in full.  Only the body read
#: is bounded: a handler-wide timeout would also close idle keep-alive
#: connections between requests.
BODY_TIMEOUT_S = 10.0


class _BadBody(Exception):
    """A request body refused with ``status`` before or while reading it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY: _send writes headers and body separately, and with
    # Nagle on a keep-alive body waits for the client's delayed ACK.
    disable_nagle_algorithm = True
    #: Set by make_server on the handler subclass.
    service: ScenarioService

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        pass  # observability goes through /metrics, not stderr noise

    def _client_id(self) -> str:
        return (self.headers.get("X-Repro-Client")
                or self.client_address[0])

    def _send(self, status: int, body: bytes, content_type: str,
              route: str, extra: Optional[dict] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        self.service.count_request(self.command, route, status)

    def _json(self, status: int, payload: Any, route: str,
              extra: Optional[dict] = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json", route, extra)

    def _html(self, status: int, markup: str, route: str) -> None:
        self._send(status, markup.encode("utf-8"),
                   "text/html; charset=utf-8", route)

    def _error(self, status: int, message: str, route: str,
               extra: Optional[dict] = None) -> None:
        self._json(status, {"error": message}, route, extra)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise _BadBody(400, f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _BadBody(413, f"body of {length} bytes exceeds the "
                                f"{MAX_BODY_BYTES}-byte limit")
        previous = self.connection.gettimeout()
        self.connection.settimeout(BODY_TIMEOUT_S)
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raw = b""
        finally:
            self.connection.settimeout(previous)
        if len(raw) < length:
            raise _BadBody(400, f"request body incomplete: {len(raw)} "
                                f"of {length} bytes arrived")
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    def _job_or_404(self, job_id: str, route: str) -> Optional[Job]:
        job = self.service.registry.get(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}", route)
        return job

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]
        try:
            if url.path == "/":
                jobs = [j.as_dict() for j in self.service.registry.jobs()]
                self._html(200, html.index_page(
                    jobs, record_count=len(self.service.store)), "/")
            elif url.path == "/metrics":
                self._send(200, self.service.prometheus().encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8",
                           "/metrics")
            elif parts[:2] == ["v1", "report"] and len(parts) == 2:
                self._get_report(query)
            elif parts[:2] == ["v1", "records"] and len(parts) == 3:
                self._get_record(parts[2])
            elif parts[:2] == ["v1", "jobs"] and len(parts) == 2:
                jobs = [j.as_dict() for j in self.service.registry.jobs()]
                self._json(200, {"jobs": jobs}, "/v1/jobs")
            elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
                job = self._job_or_404(parts[2], "/v1/jobs/<id>")
                if job is not None:
                    self._json(200, job.as_dict(), "/v1/jobs/<id>")
            elif (parts[:2] == ["v1", "jobs"] and len(parts) == 4
                    and parts[3] == "events"):
                job = self._job_or_404(parts[2], "/v1/jobs/<id>/events")
                if job is not None:
                    self._get_events(job, query)
            else:
                self._error(404, f"unknown route: {url.path}", "<unknown>")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def do_HEAD(self) -> None:  # noqa: N802 - stdlib handler API
        self.do_GET()

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts[:2] == ["v1", "jobs"] and len(parts) == 2:
                self._post_job()
            elif (parts[:2] == ["v1", "jobs"] and len(parts) == 4
                    and parts[3] in ("pause", "resume")):
                route = f"/v1/jobs/<id>/{parts[3]}"
                job = self._job_or_404(parts[2], route)
                if job is not None:
                    self._post_pause_resume(job, parts[3], route)
            else:
                self._error(404, f"unknown route: {url.path}", "<unknown>")
        except (BrokenPipeError, ConnectionResetError):
            pass

    # ------------------------------------------------------------------
    # Route bodies
    # ------------------------------------------------------------------
    def _post_job(self) -> None:
        route = "/v1/jobs"
        try:
            payload = self._read_json()
        except _BadBody as exc:
            # The stream no longer matches its framing: answer, then drop
            # the connection instead of parsing leftovers as a request.
            self.close_connection = True
            self._error(exc.status, str(exc), route)
            return
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}", route)
            return
        try:
            job, status = self.service.submit(payload, self._client_id())
        except ValueError as exc:
            self._error(400, str(exc), route)
            return
        if job is None:
            self._error(status, "admission window full; retry later",
                        route, extra={"Retry-After": "1"})
            return
        body = job.as_dict()
        body["record_url"] = f"/v1/records/{job.id}"
        self._json(status, body, route)

    def _post_pause_resume(self, job: Job, action: str, route: str) -> None:
        ok, detail = (self.service.pause(job) if action == "pause"
                      else self.service.resume(job))
        if not ok:
            self._error(409, detail, route)
            return
        payload = job.as_dict()
        payload["detail"] = detail
        self._json(202, payload, route)

    def _get_record(self, spec_hash: str) -> None:
        route = "/v1/records/<spec_hash>"
        body = self.service.record_bytes(spec_hash)
        if body is None:
            self._error(404, f"no stored record for {spec_hash}", route)
            return
        self._send(200, body, "application/json", route)

    def _get_report(self, query: dict) -> None:
        route = "/v1/report"
        preset = query.get("preset", [None])[0]
        tables = preset.split(",") if preset else None
        unknown = sorted(set(tables or ()) - set(REPORT_SECTIONS))
        if unknown:
            self._error(400, f"unknown report section(s) {', '.join(unknown)}; "
                        f"known: {', '.join(REPORT_SECTIONS)}", route)
            return
        records = self.service.store.records()
        try:
            sections = report_sections(records, tables=tables)
        except Exception as exc:  # defensive: report bugs shouldn't 500-loop
            self._error(500, f"report rendering failed: {exc}", route)
            return
        self._html(200, html.report_page(
            sections, record_count=len(records)), route)

    def _get_events(self, job: Job, query: dict) -> None:
        route = "/v1/jobs/<id>/events"
        since = int(query.get("since", ["0"])[0])
        timeout = min(MAX_WAIT_S,
                      float(query.get("timeout", ["10"])[0]))
        if query.get("stream", ["0"])[0] not in ("0", ""):
            self._stream_events(job, since, route)
            return
        # Long-poll: wait for anything past `since`, then return the batch.
        job.wait_until(
            lambda: len(job.events) > since or job.terminal, timeout)
        with job.cond:
            events = list(job.events[since:])
            payload = {
                "events": events,
                "next": since + len(events),
                "state": job.state,
                "done": job.terminal,
            }
        self._json(200, payload, route)

    def _stream_events(self, job: Job, since: int, route: str) -> None:
        """Chunked text/plain stream of progress lines until terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        self.service.count_request(self.command, route, 200)

        def chunk(line: str) -> None:
            data = (line + "\n").encode("utf-8")
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data + b"\r\n")
            self.wfile.flush()

        cursor = since
        try:
            while True:
                job.wait_until(
                    lambda: len(job.events) > cursor or job.terminal,
                    MAX_WAIT_S)
                with job.cond:
                    fresh = list(job.events[cursor:])
                    done = job.terminal and len(job.events) <= cursor + len(fresh)
                cursor += len(fresh)
                for line in fresh:
                    chunk(line)
                if done:
                    break
                if not fresh:
                    chunk("… still running")
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass
        # chunked responses end the message themselves; close to be safe
        self.close_connection = True


def make_server(service: ScenarioService) -> ThreadingHTTPServer:
    """Bind the HTTP server for ``service`` (port 0 → ephemeral port).

    The caller owns the lifecycle: ``service.start()`` before serving,
    ``server.shutdown()`` + ``service.stop()`` after.
    """
    handler = type("ReproServeHandler", (_Handler,), {"service": service})
    config = service.config
    server = ThreadingHTTPServer((config.host, config.port), handler)
    server.daemon_threads = True
    return server


def serve_forever(config: ServeConfig) -> None:
    """``repro serve`` entry point: run until SIGINT or SIGTERM.

    Either signal parks running jobs, stops the pool workers and removes
    the service's own work dir before returning.
    """
    if threading.current_thread() is threading.main_thread():
        # SIGTERM takes SIGINT's KeyboardInterrupt path below.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    service = ScenarioService(config)
    server = make_server(service)
    host, port = server.server_address[:2]
    service.start()
    print(f"repro serve listening on http://{host}:{port} "
          f"(jobs={config.jobs}, queue-depth={config.queue_depth}, "
          f"store={config.store})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
