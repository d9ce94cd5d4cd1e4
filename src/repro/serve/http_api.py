"""Thin stdlib HTTP front end over :class:`~repro.serve.service.JobService`.

Deliberately minimal (``http.server``, JSON in / JSON out, no deps) — the
control-plane idiom of an API server over a pluggable datastore, scaled to
this repo: every endpoint is a one-call delegation to the service facade,
so the HTTP layer adds routing and status codes, never logic.

=======  ==============================  =================================
POST     ``/v1/jobs``                    submit (body: JobSpec JSON)
GET      ``/v1/jobs``                    list job records
GET      ``/v1/jobs/<id>``               one job's record
POST     ``/v1/jobs/<id>/cancel``        evict a queued/admitted job
POST     ``/v1/scheduler/run``           reconcile + schedule the queue
                                         (body: ``{"seed": int,
                                         "execute": bool}``, both optional)
GET      ``/v1/healthz``                 liveness + queue depth
=======  ==============================  =================================

Errors come back as ``{"error": ...}`` with 400 (bad spec / illegal
transition / unusable ``Content-Length``), 404 (unknown job), 413 (body
over :data:`MAX_BODY_BYTES`), or 500; a rejected-at-admission job is
*not* an HTTP error — it is a job in state ``EVICTED`` with the planner's
reasoned quote in its record.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.service import JobService
from repro.serve.spec import JobSpec

__all__ = ["MAX_BODY_BYTES", "ServeHandler", "make_server", "serve_forever"]

#: Largest request body read; a JobSpec is a few hundred bytes of JSON.
MAX_BODY_BYTES = 1 << 20


class ServeHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's attached :class:`JobService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two segments; with Nagle on, a keep-alive
    # client's delayed ACK stalls every response by ~40 ms.
    disable_nagle_algorithm = True

    # The test suite exercises the API in-process; default request logging
    # would spam pytest output.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def service(self) -> JobService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------------

    def _send_json(self, doc, status: int = 200, close: bool = False) -> None:
        body = json.dumps(doc, indent=2, sort_keys=True,
                          default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # also tells the stdlib handler loop to drop the connection
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body, read once and bounded, before any routing.

        Exactly ``Content-Length`` bytes are consumed whichever route
        answers: bytes left unread would be parsed as the next request on a
        keep-alive connection.  A length that cannot be honoured is answered
        here (400 / 413, closing the connection, since the body's extent is
        unknown or unwanted) and ``None`` returned.
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(
                {"error": f"Content-Length {header!r} is not a byte count"},
                400, close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._send_json(
                {"error": f"request body of {length} bytes exceeds the "
                          f"{MAX_BODY_BYTES}-byte limit"},
                413, close=True)
            return None
        return self.rfile.read(length)

    @staticmethod
    def _json_object(raw: bytes) -> dict:
        if not raw:
            return {}
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    def _route(self) -> tuple:
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        return tuple(parts)

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        route = self._route()
        try:
            if route == ("v1", "healthz"):
                jobs = self.service.list()
                self._send_json({
                    "ok": True,
                    "jobs": len(jobs),
                    "pending": sum(1 for r in jobs if r.state == "PENDING"),
                })
            elif route == ("v1", "jobs"):
                self._send_json(
                    {"jobs": [r.to_dict() for r in self.service.list()]}
                )
            elif len(route) == 3 and route[:2] == ("v1", "jobs"):
                self._send_json(self.service.status(route[2]).to_dict())
            else:
                self._send_json({"error": f"no route {self.path!r}"}, 404)
        except KeyError as exc:
            self._send_json({"error": str(exc)}, 404)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json({"error": f"{type(exc).__name__}: {exc}"}, 500)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        raw = self._read_body()
        if raw is None:
            return
        route = self._route()
        try:
            if route == ("v1", "jobs"):
                spec = JobSpec.from_dict(self._json_object(raw))
                record = self.service.submit(spec)
                self._send_json(record.to_dict(), 201)
            elif (len(route) == 4 and route[:2] == ("v1", "jobs")
                    and route[3] == "cancel"):
                self._send_json(self.service.cancel(route[2]).to_dict())
            elif route == ("v1", "scheduler", "run"):
                body = self._json_object(raw)
                result = self.service.run_scheduler(
                    seed=body.get("seed"),
                    execute=bool(body.get("execute", True)),
                )
                self._send_json({
                    "trace_path": result.trace_path,
                    "admitted": result.admitted,
                    "rejected": result.rejected,
                    "done": result.done,
                    "failed": result.failed,
                })
            else:
                self._send_json({"error": f"no route {self.path!r}"}, 404)
        except KeyError as exc:
            self._send_json({"error": str(exc)}, 404)
        except ValueError as exc:
            self._send_json({"error": str(exc)}, 400)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json({"error": f"{type(exc).__name__}: {exc}"}, 500)


def make_server(
    service: JobService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind (port 0 picks a free one); caller drives ``serve_forever``."""
    server = ThreadingHTTPServer((host, port), ServeHandler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve_forever(
    server: ThreadingHTTPServer, background: bool = False
) -> Optional[threading.Thread]:
    """Serve until shutdown; ``background=True`` returns the daemon thread."""
    if not background:
        server.serve_forever()
        return None
    thread = threading.Thread(
        target=server.serve_forever, name="serve-api", daemon=True
    )
    thread.start()
    return thread
