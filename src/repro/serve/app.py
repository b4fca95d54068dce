"""The HTTP front door: location-transparent access to a live database.

Stdlib-only (``http.server``): a :class:`FrontDoor` wraps one
:class:`~repro.core.system.FragmentedDatabase` running on the asyncio
runtime and serves writes, reads, catalog/metrics introspection, and
the PR 9 dashboard over plain HTTP.

Threading model: ``ThreadingHTTPServer`` handles each request on its
own thread, but every *protocol* action (submit, catalog-routed
resubmit) is marshalled onto the runtime's event-loop thread through
``db.call_on_runtime`` — request threads only ever block on a
``threading.Event`` that the tracker's ``on_done`` (fired on the loop
thread) sets.  Reads of the tracer ring and the metrics registry are
safe from any thread once the system enabled their locks (which the
asyncio runtime does at construction).

Routing: the client names an **object**; the front door resolves the
owning fragment and the controlling agent's *current* home node via
the catalog at every attempt.  During a failover window the update
gate rejects with a transient reason — the front door queues the
request (bounded) and retries with a fresh transaction until the
supervisor re-homes the agent, then the write commits at the new home.
The client sees one slow 200, never a topology detail.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.cc.ops import Read, Write
from repro.core.system import FragmentedDatabase
from repro.core.transaction import RequestStatus, RequestTracker
from repro.errors import DesignError, InitiationError
from repro.obs.dashboard import build_dashboard_data, render_html

#: Rejection reasons the front door treats as transient: the request
#: is retried because the condition heals on its own (failover
#: completes, the control token lands).  Matched as substrings of
#: ``RequestTracker.reason``.
TRANSIENT_REASONS = ("is down", "in transit")

#: Default bound on concurrently queued-or-in-flight HTTP writes; the
#: 65th concurrent write gets an immediate 503 instead of a queue slot
#: (bounded queues are the Section 4 answer to overload, not infinite
#: buffering).
DEFAULT_MAX_QUEUED = 64

DEFAULT_RETRY_INTERVAL = 0.25
DEFAULT_DEADLINE = 30.0


class FrontDoor:
    """One HTTP server fronting one live fragmented database."""

    def __init__(
        self,
        db: FragmentedDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queued: int = DEFAULT_MAX_QUEUED,
        retry_interval: float = DEFAULT_RETRY_INTERVAL,
        deadline: float = DEFAULT_DEADLINE,
        sse_poll_interval: float = 0.5,
        sse_max_pings: int | None = None,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.retry_interval = retry_interval
        self.deadline = deadline
        self.sse_poll_interval = sse_poll_interval
        self.sse_max_pings = sse_max_pings
        self._admission = threading.BoundedSemaphore(max_queued)
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._m = db.metrics
        self._m.counter("http.requests")
        self._m.counter("http.updates_committed")
        self._m.counter("http.updates_retried")
        self._m.counter("http.updates_rejected")
        self._m.counter("http.updates_overload")
        self._m.counter("http.updates_timeout")
        self._m.counter("http.reads_served")

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FrontDoor":
        """Bind and serve on a background daemon thread."""
        if self._server is not None:
            return self
        door = self

        class Handler(_FrontDoorHandler):
            frontdoor = door

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-frontdoor",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread; idempotent."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "FrontDoor":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- write path ------------------------------------------------------

    def submit_write(self, payload: dict[str, Any]) -> tuple[int, dict]:
        """Route one client write; returns ``(http_status, body)``.

        The loop below *is* the queue-and-retry protocol: resolve the
        route fresh each attempt (the agent may have moved), submit a
        fresh transaction, block on its terminal event, and retry on
        transient rejections until the deadline.
        """
        obj = payload.get("object")
        if not isinstance(obj, str):
            return 400, {"error": "missing or non-string 'object'"}
        if "value" not in payload and "delta" not in payload:
            return 400, {"error": "provide 'value' (set) or 'delta' (add)"}
        fragment = self.db.catalog.fragment_of(obj, strict=False)
        if fragment is None:
            return 404, {"error": f"no fragment owns object {obj!r}"}

        if not self._admission.acquire(blocking=False):
            self._m.inc("http.updates_overload")
            return 503, {"error": "write queue full, retry later"}
        try:
            return self._submit_write_admitted(payload, obj, fragment)
        finally:
            self._admission.release()

    def _submit_write_admitted(
        self, payload: dict[str, Any], obj: str, fragment: str
    ) -> tuple[int, dict]:
        deadline = time.monotonic() + float(
            payload.get("deadline", self.deadline)
        )
        attempts = 0
        tracker: RequestTracker | None = None
        while True:
            attempts += 1
            done = threading.Event()
            try:
                tracker = self.db.call_on_runtime(
                    lambda: self.db.submit_update(
                        self.db.agent_of(fragment).name,
                        _write_body(payload, obj),
                        writes=[obj],
                        meta={"via": "http"},
                        on_done=lambda _t: done.set(),
                    )
                )
            except InitiationError as exc:
                self._m.inc("http.updates_rejected")
                return 409, {"error": str(exc), "attempts": attempts}
            if not done.wait(timeout=max(0.0, deadline - time.monotonic())):
                self._m.inc("http.updates_timeout")
                return 504, {
                    "txn": tracker.spec.txn_id,
                    "status": tracker.status.value,
                    "attempts": attempts,
                    "error": "deadline passed while request pending",
                }
            if tracker.succeeded:
                self._m.inc("http.updates_committed")
                return 200, {
                    "txn": tracker.spec.txn_id,
                    "status": tracker.status.value,
                    "object": obj,
                    "fragment": fragment,
                    "node": self.db.agent_of(fragment).home_node,
                    "attempts": attempts,
                }
            transient = any(
                marker in tracker.reason for marker in TRANSIENT_REASONS
            )
            if not transient or time.monotonic() >= deadline:
                code = 409 if not transient else 504
                self._m.inc(
                    "http.updates_rejected"
                    if code == 409
                    else "http.updates_timeout"
                )
                return code, {
                    "txn": tracker.spec.txn_id,
                    "status": tracker.status.value,
                    "reason": tracker.reason,
                    "attempts": attempts,
                }
            # Transient outage (failover in flight): queue and retry.
            self._m.inc("http.updates_retried")
            time.sleep(self.retry_interval)

    # -- read path -------------------------------------------------------

    def submit_read(self, payload: dict[str, Any]) -> tuple[int, dict]:
        """Read one object, locally or via a quorum vote.

        With ``at`` naming a node that does not replicate the owning
        fragment, the declared read routes through the quorum-read
        service — a version vote over the replica set — before the
        body runs; otherwise it is served from the local replica.
        """
        obj = payload.get("object")
        if not isinstance(obj, str):
            return 400, {"error": "missing or non-string 'object'"}
        fragment = self.db.catalog.fragment_of(obj, strict=False)
        if fragment is None:
            return 404, {"error": f"no fragment owns object {obj!r}"}
        at = payload.get("at")
        if at is not None and at not in self.db.nodes:
            return 404, {"error": f"unknown node {at!r}"}

        done = threading.Event()
        out: dict[str, Any] = {}

        def body(_ctx):
            out["value"] = yield Read(obj)

        try:
            tracker = self.db.call_on_runtime(
                lambda: self.db.submit_readonly(
                    self.db.agent_of(fragment).name,
                    body,
                    at=at,
                    reads=[obj],
                    on_done=lambda _t: done.set(),
                )
            )
        except (InitiationError, DesignError) as exc:
            return 409, {"error": str(exc)}
        if not done.wait(timeout=self.deadline):
            return 504, {
                "txn": tracker.spec.txn_id,
                "status": tracker.status.value,
                "error": "deadline passed while read pending",
            }
        if not tracker.succeeded:
            return 409, {
                "txn": tracker.spec.txn_id,
                "status": tracker.status.value,
                "reason": tracker.reason,
            }
        self._m.inc("http.reads_served")
        return 200, {
            "txn": tracker.spec.txn_id,
            "status": tracker.status.value,
            "object": obj,
            "fragment": fragment,
            "node": tracker.node,
            "value": out.get("value"),
        }

    # -- introspection ---------------------------------------------------

    def fragments_payload(self) -> dict[str, Any]:
        """Catalog snapshot: routing truth the clients never need."""
        db = self.db
        fragments = {}
        for name in db.catalog.names:
            agent = db.agent_of(name)
            fragments[name] = {
                "agent": agent.name,
                "home": agent.home_node,
                "replicas": list(db.replica_set(name)),
                "objects": sorted(db.catalog.get(name).objects),
            }
        return {
            "fragments": fragments,
            "nodes": {
                name: {"down": node.down} for name, node in db.nodes.items()
            },
        }

    def updates_payload(self, limit: int = 100) -> dict[str, Any]:
        """The most recent request trackers, newest last."""
        trackers = list(self.db.trackers)[-limit:]
        return {
            "count": len(self.db.trackers),
            "updates": [
                {
                    "txn": t.spec.txn_id,
                    "agent": t.spec.agent,
                    "update": t.spec.update,
                    "node": t.node,
                    "status": t.status.value,
                    "reason": t.reason,
                    "submit_time": t.submit_time,
                    "finish_time": t.finish_time,
                }
                for t in trackers
            ],
        }

    def dashboard_data(self) -> dict[str, Any]:
        events = [e.as_dict() for e in self.db.tracer.events()]
        return build_dashboard_data(events)

    def dashboard_html(self) -> str:
        return render_html(
            self.dashboard_data(), title="repro serve", live=True
        )


def _write_body(payload: dict[str, Any], obj: str):
    """Build the transaction body for one client write.

    ``value`` installs; ``delta`` is the read-modify-write increment
    (the generator convention: bodies run *inside* the scheduler, so
    the read is lock-covered and the sum is serializable).
    """
    if "value" in payload:
        value = payload["value"]

        def body(_ctx):
            yield Write(obj, value)

    else:
        delta = payload["delta"]

        def body(_ctx):
            current = yield Read(obj)
            yield Write(obj, (current or 0) + delta)

    return body


class _FrontDoorHandler(BaseHTTPRequestHandler):
    """Request plumbing; all logic lives on :class:`FrontDoor`."""

    frontdoor: FrontDoor  # set by the subclass FrontDoor.start() builds
    protocol_version = "HTTP/1.1"

    # -- helpers ---------------------------------------------------------

    def _send_json(self, code: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, default=str).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, html: str) -> None:
        body = html.encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_payload(self) -> dict[str, Any] | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def log_message(self, *args: Any) -> None:  # quiet by default
        pass

    # -- verbs -----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server convention)
        door = self.frontdoor
        door._m.inc("http.requests")
        payload = self._read_payload()
        if payload is None:
            self._send_json(400, {"error": "body must be a JSON object"})
            return
        if self.path == "/updates":
            code, body = door.submit_write(payload)
        elif self.path == "/reads":
            code, body = door.submit_read(payload)
        else:
            code, body = 404, {"error": f"no such endpoint {self.path!r}"}
        self._send_json(code, body)

    def do_GET(self) -> None:  # noqa: N802
        door = self.frontdoor
        door._m.inc("http.requests")
        if self.path == "/healthz":
            self._send_json(200, {"ok": True, "nodes": len(door.db.nodes)})
        elif self.path == "/metrics":
            self._send_json(200, door.db.metrics.snapshot())
        elif self.path == "/fragments":
            self._send_json(200, door.fragments_payload())
        elif self.path == "/updates":
            self._send_json(200, door.updates_payload())
        elif self.path == "/data.json":
            self._send_json(200, door.dashboard_data())
        elif self.path == "/":
            self._send_html(door.dashboard_html())
        elif self.path == "/events":
            self._serve_events()
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    def _serve_events(self) -> None:
        """SSE stream pinging whenever the tracer records new events.

        Mirrors the file-watching dashboard's contract (``data: grew``)
        but watches the live tracer's ``emitted`` counter instead of a
        file size, so the served page reloads as the system runs.
        """
        door = self.frontdoor
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        last = door.db.tracer.emitted
        pings = 0
        try:
            while door.sse_max_pings is None or pings < door.sse_max_pings:
                time.sleep(door.sse_poll_interval)
                now = door.db.tracer.emitted
                if now != last:
                    last = now
                    self.wfile.write(b"data: grew\n\n")
                    self.wfile.flush()
                    pings += 1
        except (BrokenPipeError, ConnectionError, OSError):
            pass  # client went away
