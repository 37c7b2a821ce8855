"""Stdlib-only HTTP API over :class:`~repro.service.workers.DetectionService`.

``repro serve`` binds a :class:`ServiceServer` (a
``http.server.ThreadingHTTPServer``, one thread per request, so ``/healthz``
and ``/metrics`` answer while detection jobs are in flight) exposing:

=======  =======================  ==========================================
method   path                     semantics
=======  =======================  ==========================================
POST     ``/graph``               submit a full detection job; body is JSON
                                  ``{"edges": [[u, v], [u, v, w], ...]}``
                                  (plus optional ``num_vertices`` and job /
                                  detect options) or a plain-text edge list;
                                  202 with ``{"job_id": ...}``
POST     ``/edges``               submit an edge-batch warm-start update;
                                  JSON ``{"add": [[u, v(, w)], ...],
                                  "remove": [[u, v], ...]}``; 202
GET      ``/jobs/<id>``           job status / result / error; with
                                  ``?wait=<seconds>`` the request long-polls:
                                  it blocks on the queue's terminal condition
                                  variable until the job reaches a terminal
                                  state or the wait expires (capped at
                                  ``MAX_LONGPOLL_WAIT``), then returns the
                                  job either way
DELETE   ``/jobs/<id>``           cancel (pending or running)
GET      ``/membership``          community assignment; ``?vertex=`` for one
                                  vertex, ``?version=`` for point-in-time
GET      ``/versions``            retained snapshot metadata
GET      ``/diff?from=A&to=B``    community churn between two versions
GET      ``/healthz``             liveness + queue/worker/store gauges
GET      ``/metrics``             Prometheus text (job counters + gauges +
                                  per-endpoint request-duration histograms)
POST     ``/shutdown``            drain and stop the server
=======  =======================  ==========================================

Backpressure: when the job queue is full, POSTs return **503** with a
``Retry-After`` header instead of blocking the request thread or silently
dropping the job -- the submitter decides whether to retry.

Client input never reaches the generic 500 handler: every value parsed from
a query string, header or body that is malformed yields **400**, a body
longer than :data:`MAX_BODY_BYTES` yields **413** (unread, with the
connection closed), and vertex ids, vertex counts and rank counts are capped
(:data:`MAX_VERTICES`, :data:`MAX_RANKS`) before anything is allocated.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import get_args
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..observability.exporters import LatencyHistogram, prometheus_histograms
from ..parallel.driver import Algorithm
from .jobs import QueueClosedError, QueueFullError
from .workers import DetectionService

__all__ = [
    "ServiceServer",
    "run_server",
    "MAX_LONGPOLL_WAIT",
    "MAX_BODY_BYTES",
    "MAX_VERTICES",
    "MAX_RANKS",
]

#: Upper bound on ``GET /jobs/<id>?wait=`` -- each long-poll parks one
#: request thread, so waits are bounded and clients re-issue to keep waiting.
MAX_LONGPOLL_WAIT = 30.0
#: Largest request body read (64 MiB, a few million JSON edges); larger
#: bodies are refused with 413 before a byte of them is read.
MAX_BODY_BYTES = 64 << 20
#: Vertex ids and ``num_vertices`` must stay below this: per-vertex arrays
#: are allocated from them, so an unchecked id would size an allocation.
MAX_VERTICES = 1 << 24
#: Largest ``num_ranks`` a job may ask for (per-rank state is allocated).
MAX_RANKS = 64
#: The ``algorithm`` values ``POST /graph`` accepts.
_ALGORITHMS = get_args(Algorithm)


class _BadRequest(ValueError):
    """Client error -> ``status`` (400) with the message in the JSON body.

    ``close`` drops the connection after the reply: the request's body
    framing is unknown or its body was left unread.
    """

    status = 400
    close = False


class _BadLength(_BadRequest):
    """Unparseable ``Content-Length``: 400, and the stream cannot be reused."""

    close = True


class _PayloadTooLarge(_BadRequest):
    """Body above :data:`MAX_BODY_BYTES` -> 413, left unread."""

    status = 413
    close = True


def _int(value, what: str, *, lo: int | None = None, hi: int | None = None) -> int:
    """``int(value)`` within ``[lo, hi)``, or a 400 naming ``what``."""
    if isinstance(value, bool):
        raise _BadRequest(f"{what} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadRequest(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and out < lo:
        raise _BadRequest(f"{what} must be >= {lo}, got {out}")
    if hi is not None and out >= hi:
        raise _BadRequest(f"{what} must be < {hi}, got {out}")
    return out


def _number(value, what: str) -> float:
    """A finite ``float(value)``, or a 400 naming ``what``."""
    if isinstance(value, bool):
        raise _BadRequest(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadRequest(f"{what} must be a number, got {value!r}") from None
    if not np.isfinite(out):
        raise _BadRequest(f"{what} must be finite, got {value!r}")
    return out


def _parse_edge_rows(rows, what: str):
    """``[[u, v], [u, v, w], ...]`` -> (src, dst, weight|None) arrays."""
    if not isinstance(rows, (list, tuple)):
        raise _BadRequest(f"{what} must be an array of [u, v(, w)] rows")
    src, dst, wt = [], [], []
    weighted = False
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) not in (2, 3):
            raise _BadRequest(
                f"{what}[{i}]: expected [u, v] or [u, v, w], got {row!r}"
            )
        src.append(_int(row[0], f"{what}[{i}][0]", lo=0, hi=MAX_VERTICES))
        dst.append(_int(row[1], f"{what}[{i}][1]", lo=0, hi=MAX_VERTICES))
        if len(row) == 3:
            weighted = True
            wt.append(_number(row[2], f"{what}[{i}][2]"))
        else:
            wt.append(1.0)
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wt, dtype=np.float64) if weighted else None,
    )


def _graph_from_body(body: bytes, content_type: str):
    from ..graph import Graph

    if "json" in content_type:
        try:
            doc = json.loads(body or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict) or "edges" not in doc:
            raise _BadRequest('JSON graph body needs an "edges" array')
        rows, what = doc["edges"], "edges"
        num_vertices = doc.get("num_vertices")
        if num_vertices is not None:
            num_vertices = _int(
                num_vertices, "num_vertices", lo=0, hi=MAX_VERTICES + 1
            )
    else:
        # The plain-text edge-list format `repro detect` reads: `u v [w]`
        # lines, blank lines and `#` comments skipped.
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _BadRequest(f"cannot parse edge-list body: {exc}") from exc
        rows = [
            line.split() for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
        doc, what, num_vertices = {}, "edge-list line", None
    src, dst, wt = _parse_edge_rows(rows, what)
    try:
        graph = Graph.from_edges(src, dst, wt, num_vertices=num_vertices)
    except ValueError as exc:
        raise _BadRequest(str(exc)) from exc
    return graph, doc


def _batch_from_body(body: bytes):
    from ..parallel import EdgeBatch

    try:
        doc = json.loads(body or b"{}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _BadRequest(f"invalid JSON body: {exc}") from exc
    if not isinstance(doc, dict) or ("add" not in doc and "remove" not in doc):
        raise _BadRequest('edge-batch body needs "add" and/or "remove" arrays')
    add_src, add_dst, add_wt = _parse_edge_rows(doc.get("add", []), "add")
    rem_src, rem_dst, _ = _parse_edge_rows(doc.get("remove", []), "remove")
    try:
        batch = EdgeBatch(
            add_src=add_src, add_dst=add_dst,
            add_weight=add_wt if add_wt is not None else np.ones(add_src.size),
            remove_src=rem_src, remove_dst=rem_dst,
        )
    except ValueError as exc:
        raise _BadRequest(str(exc)) from exc
    return batch, doc


def _job_options(doc: dict) -> dict:
    """Queue-level knobs (priority/timeout/retries) and the rank count."""
    opts: dict = {}
    if "priority" in doc:
        opts["priority"] = _int(doc["priority"], "priority")
    if "timeout_s" in doc:
        opts["timeout"] = _number(doc["timeout_s"], "timeout_s")
        if opts["timeout"] <= 0:
            raise _BadRequest("timeout_s must be positive")
    if "max_retries" in doc:
        opts["max_retries"] = _int(doc["max_retries"], "max_retries", lo=0)
    if "num_ranks" in doc:
        opts["num_ranks"] = _int(
            doc["num_ranks"], "num_ranks", lo=1, hi=MAX_RANKS + 1
        )
    return opts


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceServer"  # set by ThreadingHTTPServer machinery
    protocol_version = "HTTP/1.1"

    # ---------------------------------------------------------------- #
    # Plumbing
    # ---------------------------------------------------------------- #

    @property
    def service(self) -> DetectionService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send(self, status: int, payload, *, headers: dict | None = None) -> None:
        if self.close_connection:
            headers = {**(headers or {}), "Connection": "close"}
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            ctype = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadLength(
                f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        if length > MAX_BODY_BYTES:
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length) if length else b""

    def _bad_request(self, exc: _BadRequest) -> None:
        if exc.close:
            self.close_connection = True
        self._send(exc.status, {"error": str(exc)})

    def _query(self) -> dict[str, str]:
        qs = parse_qs(urlparse(self.path).query)
        return {k: v[-1] for k, v in qs.items()}

    @property
    def _route(self) -> str:
        return urlparse(self.path).path.rstrip("/") or "/"

    @property
    def _endpoint(self) -> str:
        """Normalized route for the duration histograms (ids collapsed)."""
        route = self._route
        if route.startswith("/jobs/"):
            route = "/jobs/:id"
        return route

    # ---------------------------------------------------------------- #
    # Dispatch
    # ---------------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        t0 = time.perf_counter()
        try:
            self._dispatch_get()
        except _BadRequest as exc:
            self._bad_request(exc)
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self.server.observe_request("GET", self._endpoint,
                                        time.perf_counter() - t0)

    def do_POST(self) -> None:  # noqa: N802
        t0 = time.perf_counter()
        try:
            self._dispatch_post()
        except _BadRequest as exc:
            self._bad_request(exc)
        except QueueFullError as exc:
            self.service.tracer.add_counter("service_jobs_rejected", 1)
            self._send(503, {"error": str(exc)}, headers={"Retry-After": "1"})
        except QueueClosedError as exc:
            self._send(503, {"error": str(exc)})
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            self.server.observe_request("POST", self._endpoint,
                                        time.perf_counter() - t0)

    def do_DELETE(self) -> None:  # noqa: N802
        t0 = time.perf_counter()
        try:
            route = self._route
            if route.startswith("/jobs/"):
                job_id = route[len("/jobs/"):]
                effective = self.service.cancel(job_id)
                job = self.service.job(job_id)
                self._send(200, {"job_id": job_id, "cancelled": effective,
                                 "state": job.state})
                return
            self._send(404, {"error": f"no route DELETE {route}"})
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
        finally:
            self.server.observe_request("DELETE", self._endpoint,
                                        time.perf_counter() - t0)

    def _method_not_allowed(self) -> None:
        """A method the API does not route: 405, not http.server's 501."""
        self._send(
            405, {"error": f"method {self.command} not allowed"},
            headers={"Allow": "GET, POST, DELETE"},
        )

    do_HEAD = do_PUT = do_PATCH = do_OPTIONS = _method_not_allowed

    # ---------------------------------------------------------------- #
    # GET routes
    # ---------------------------------------------------------------- #

    def _dispatch_get(self) -> None:
        route = self._route
        if route == "/healthz":
            self._send(200, self.service.health())
        elif route == "/metrics":
            self._send(
                200,
                self.service.metrics_text() + self.server.request_metrics_text(),
            )
        elif route == "/versions":
            self._send(200, {"versions": self.service.store.versions()})
        elif route == "/membership":
            self._get_membership()
        elif route == "/diff":
            self._get_diff()
        elif route.startswith("/jobs/"):
            self._get_job(route[len("/jobs/"):])
        else:
            self._send(404, {"error": f"no route GET {route}"})

    def _get_job(self, job_id: str) -> None:
        q = self._query()
        if "wait" in q:
            wait = _number(q["wait"], "wait")
            if wait < 0:
                raise _BadRequest("wait must be >= 0")
            job = self.service.queue.wait_terminal(
                job_id, min(wait, MAX_LONGPOLL_WAIT)
            )
        else:
            job = self.service.job(job_id)
        self._send(200, job.as_dict())

    def _get_membership(self) -> None:
        q = self._query()
        version = _int(q["version"], "version") if "version" in q else None
        snap = self.service.snapshot(version)
        if "vertex" in q:
            vertex = _int(q["vertex"], "vertex")
            community = self.service.membership(vertex, version)
            self._send(200, {
                "version": snap.version, "vertex": vertex,
                "community": community, "modularity": snap.modularity,
            })
        else:
            self._send(200, {
                "version": snap.version,
                "modularity": snap.modularity,
                "num_communities": snap.num_communities,
                "membership": snap.membership.tolist(),
            })

    def _get_diff(self) -> None:
        q = self._query()
        if "from" not in q or "to" not in q:
            raise _BadRequest("diff needs ?from=VERSION&to=VERSION")
        diff = self.service.diff(_int(q["from"], "from"), _int(q["to"], "to"))
        payload = diff.meta()
        payload["moved_vertices"] = diff.moved_vertices.tolist()
        payload["added_vertices"] = diff.added_vertices.tolist()
        self._send(200, payload)

    # ---------------------------------------------------------------- #
    # POST routes
    # ---------------------------------------------------------------- #

    def _dispatch_post(self) -> None:
        route = self._route
        if route == "/graph":
            graph, doc = _graph_from_body(
                self._body(), self.headers.get("Content-Type", "application/json")
            )
            detect_opts = {k: doc[k] for k in ("algorithm",) if k in doc}
            if detect_opts.get("algorithm", "parallel") not in _ALGORITHMS:
                raise _BadRequest(
                    f"algorithm must be one of {list(_ALGORITHMS)}, "
                    f"got {doc['algorithm']!r}"
                )
            if "seed" in doc:
                detect_opts["seed"] = _int(doc["seed"], "seed")
            job = self.service.submit_graph(
                graph, **_job_options(doc), **detect_opts
            )
            self._send(202, {"job_id": job.job_id, "state": job.state,
                             "num_vertices": graph.num_vertices,
                             "num_edges": graph.num_edges})
        elif route == "/edges":
            batch, doc = _batch_from_body(self._body())
            base = doc.get("base_version")
            job = self.service.submit_edge_batch(
                batch,
                base_version=None if base is None else _int(base, "base_version"),
                **_job_options(doc),
            )
            self._send(202, {"job_id": job.job_id, "state": job.state,
                             "num_additions": batch.num_additions,
                             "num_removals": batch.num_removals})
        elif route == "/shutdown":
            self._send(202, {"status": "shutting down"})
            threading.Thread(
                target=self.server.stop, daemon=True  # type: ignore[attr-defined]
            ).start()
        else:
            self._send(404, {"error": f"no route POST {route}"})


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`DetectionService`.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports the
    actual one.  :meth:`serve_background` runs the accept loop in a daemon
    thread; :meth:`stop` shuts the loop down and closes the service.
    """

    daemon_threads = True

    def __init__(
        self,
        service: DetectionService,
        host: str = "127.0.0.1",
        port: int = 8737,
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._stopped = threading.Event()
        #: Per-(method, endpoint) request-duration histograms for /metrics.
        self._request_stats: dict[str, LatencyHistogram] = {}
        self._request_stats_lock = threading.Lock()
        super().__init__((host, port), _Handler)

    def observe_request(self, method: str, endpoint: str, seconds: float) -> None:
        """Record one request's duration into the per-endpoint histograms."""
        key = f"{method} {endpoint}"
        hist = self._request_stats.get(key)
        if hist is None:
            with self._request_stats_lock:
                hist = self._request_stats.setdefault(key, LatencyHistogram())
        hist.observe(seconds)

    def request_metrics_text(self) -> str:
        """Prometheus text for the request-duration histograms."""
        with self._request_stats_lock:
            stats = dict(self._request_stats)
        return prometheus_histograms(
            stats,
            name="service_request_duration_seconds",
            label="endpoint",
            help_text="HTTP request duration by method and endpoint",
        )

    @property
    def address(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop accepting requests, then close the service (idempotent).

        The listening socket closes last, so a client refused a connection
        already finds the service shutting down.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.shutdown()
        self.service.close()
        self.server_close()


def run_server(server: ServiceServer) -> None:
    """Foreground accept loop with clean Ctrl-C shutdown (the CLI path)."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.stop()
