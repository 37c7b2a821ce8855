"""No client input reaches the 500 handler or sizes an allocation.

Table-driven over the inputs that used to escape as 500s (or park a handler
thread, or queue a job bound to fail): malformed query values, malformed
body fields, unknown algorithms, unparseable or negative ``Content-Length``,
oversized bodies, oversized vertex or rank counts, and methods the API does
not route (501 from ``http.server``).  Every one must come back as a 4xx
promptly.
"""

import http.client
import json
from urllib.parse import urlparse

import pytest

from repro.graph import planted_partition
from repro.service import DetectionService, ServiceServer
from repro.service.server import MAX_BODY_BYTES, MAX_RANKS, MAX_VERTICES


@pytest.fixture(scope="module")
def edges():
    graph, _ = planted_partition(4, 10, 0.5, 0.05, seed=2)
    src, dst, _ = graph.edge_arrays()
    return [[int(u), int(v)] for u, v in zip(src, dst)]


@pytest.fixture(scope="module")
def server(edges):
    """A server holding one snapshot, so reads get past the store lookup."""
    svc = DetectionService(num_workers=1, queue_capacity=64, seed=0)
    srv = ServiceServer(svc, port=0)
    srv.serve_background()
    status, doc = _call(srv, "POST", "/graph", _json({"edges": edges}))
    assert status == 202
    status, done = _call(srv, "GET", f"/jobs/{doc['job_id']}?wait=30")
    assert done["state"] == "done"
    yield srv
    srv.stop()


def _json(doc) -> tuple[bytes, dict]:
    return json.dumps(doc).encode(), {"Content-Type": "application/json"}


def _call(srv, method, path, body_headers=(b"", {}), headers=None):
    """One request on a fresh connection; ``headers`` are sent verbatim."""
    body, base_headers = body_headers
    url = urlparse(srv.address)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        conn.putrequest(method, path)
        sent = {**base_headers, **(headers or {})}
        if "Content-Length" not in sent:
            sent["Content-Length"] = str(len(body))
        for key, value in sent.items():
            conn.putheader(key, value)
        conn.endheaders(body or None)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None
    finally:
        conn.close()


READS = [
    "/membership?vertex=abc",
    "/membership?version=x",
    "/membership?vertex=1.5",
    "/diff?from=a&to=b",
    "/diff?from=1&to=",
    "/jobs/job-none?wait=soon",
    "/jobs/job-none?wait=nan",
]


@pytest.mark.parametrize("path", READS)
def test_malformed_query_values_are_400(server, path):
    status, doc = _call(server, "GET", path)
    assert status == 400, doc
    assert "error" in doc


BODIES = [
    ("/edges", {"add": [[0, "x"]]}),
    ("/edges", {"add": [[0, 1, "heavy"]]}),
    ("/edges", {"add": [[0, 1]], "base_version": "x"}),
    ("/edges", {"add": [[0, 1]], "num_ranks": "four"}),
    ("/edges", {"add": [[0, 1]], "num_ranks": MAX_RANKS + 1}),
    ("/edges", {"add": "0 1"}),
    ("/edges", {"add": [[0, MAX_VERTICES]]}),
    ("/graph", {"edges": [[0, 1]], "priority": "high"}),
    ("/graph", {"edges": [[0, 1]], "timeout_s": "soon"}),
    ("/graph", {"edges": [[0, 1]], "timeout_s": -1}),
    ("/graph", {"edges": [[0, 1]], "max_retries": -1}),
    ("/graph", {"edges": [[0, 1]], "seed": "lucky"}),
    ("/graph", {"edges": [[0, 1]], "num_ranks": 0}),
    ("/graph", {"edges": [[0, 1]], "num_vertices": "many"}),
    ("/graph", {"edges": [[0, 1]], "num_vertices": MAX_VERTICES + 1}),
    ("/graph", {"edges": [[0, 1]], "num_vertices": 1}),
    ("/graph", {"edges": [[0, 10**12]]}),
    ("/graph", {"edges": [[-1, 2]]}),
    ("/graph", {"edges": [[0, True]]}),
    ("/graph", {"edges": 7}),
    ("/graph", {"edges": [[0, 1]], "algorithm": "bogus"}),
    ("/graph", {"edges": [[0, 1]], "algorithm": 5}),
    ("/graph", {"edges": [[0, 1]], "algorithm": ["x"]}),
    ("/graph", {"edges": [[0, 1]], "algorithm": "lpa"}),
]


@pytest.mark.parametrize(
    "route,doc", BODIES, ids=[f"{r}:{json.dumps(d)[:40]}" for r, d in BODIES]
)
def test_malformed_body_fields_are_400(server, route, doc):
    status, reply = _call(server, "POST", route, _json(doc))
    assert status == 400, reply
    assert "error" in reply


@pytest.mark.parametrize(
    "body",
    [b"0 x\n", b"0 1 heavy\n", b"0 1 2 3\n", b"0 99999999999\n", b"\xff\xfe"],
)
def test_malformed_edge_list_bodies_are_400(server, body):
    status, reply = _call(
        server, "POST", "/graph", (body, {"Content-Type": "text/plain"})
    )
    assert status == 400, reply


def test_edge_list_body_still_parses(server):
    status, reply = _call(
        server, "POST", "/graph",
        (b"# triangle\n0 1\n\n1 2 2.5\n2 0\n", {"Content-Type": "text/plain"}),
    )
    assert status == 202, reply
    assert reply["num_vertices"] == 3 and reply["num_edges"] == 3


@pytest.mark.parametrize("length", ["abc", "-1", "1e3", ""])
def test_bad_content_length_is_400_without_reading(server, length):
    # -1 used to reach rfile.read(-1), parking the handler thread until the
    # client hung up; the 5 s client timeout turns that into a failure.
    status, reply = _call(
        server, "POST", "/edges", (b"", {"Content-Type": "application/json"}),
        headers={"Content-Length": length},
    )
    assert status == 400, reply


def test_oversized_body_is_413_without_reading(server):
    status, reply = _call(
        server, "POST", "/graph", (b"", {"Content-Type": "application/json"}),
        headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
    )
    assert status == 413, reply
    assert str(MAX_BODY_BYTES) in reply["error"]


@pytest.mark.parametrize("method", ["PUT", "PATCH", "HEAD", "OPTIONS"])
def test_unrouted_methods_are_405(server, method):
    # http.server answers a method without a do_<METHOD> handler with 501.
    status, reply = _call(server, method, "/graph", _json({"edges": [[0, 1]]}))
    assert status == 405, reply
    if method != "HEAD":
        assert "error" in reply


def test_server_still_healthy_after_bad_input(server):
    status, health = _call(server, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
