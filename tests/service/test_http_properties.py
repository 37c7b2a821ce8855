"""Property test: no HTTP input yields a 5xx.

Hypothesis sends random methods, routes (all but ``/shutdown``, with random
suffixes), query strings, bodies and ``Content-Type`` headers to one server
holding a snapshot.  Every reply must be below 500, except a full queue's
503 with ``Retry-After``.  A 5 s client timeout and tiny ``wait=`` values
make a hanging handler fail too.
"""

import http.client
import json
from urllib.parse import quote, urlencode, urlparse

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.graph import planted_partition
from repro.service import DetectionService, ServiceServer

ROUTES = ["/", "/graph", "/edges", "/jobs", "/jobs/", "/membership",
          "/versions", "/diff", "/healthz", "/metrics"]
METHODS = ["GET", "POST", "DELETE", "PUT", "PATCH", "HEAD", "OPTIONS"]

# Small ids keep accepted jobs tiny; the huge values probe range checks.
ints = st.integers(-3, 40) | st.sampled_from([2**63, -(10**30)])
scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
edges = st.lists(st.lists(st.integers(0, 40), min_size=2, max_size=2),
                 min_size=1, max_size=8)
OPTIONS = {
    "num_vertices": st.integers(41, 60),
    "algorithm": st.sampled_from(["parallel", "sequential", "naive", "lpa"]),
    "seed": st.integers(0, 99), "priority": st.integers(0, 20),
    "timeout_s": st.floats(0.01, 30.0), "max_retries": st.integers(0, 2),
    "num_ranks": st.integers(1, 8), "base_version": st.integers(0, 3),
}
# A job document is valid, or any of its fields may be any JSON scalar.
job_docs = st.one_of(*(
    st.fixed_dictionaries({key: edges}, optional=OPTIONS)
    | st.fixed_dictionaries(
        {key: edges | st.lists(scalars, max_size=3) | scalars},
        optional={name: value | scalars for name, value in OPTIONS.items()},
    )
    for key in ("edges", "add")
))
json_docs = scalars | st.lists(scalars, max_size=3) | st.dictionaries(
    st.text(max_size=4), scalars | st.lists(scalars, max_size=3), max_size=3
)
bodies = (
    st.one_of(job_docs, json_docs).map(lambda doc: json.dumps(doc).encode())
    | st.binary(max_size=40)
    | st.text(alphabet="0127 -x.#\n", max_size=30).map(str.encode)
)
requests = st.one_of(
    st.tuples(st.just("POST"), st.sampled_from(["/graph", "/edges"]), bodies),
    st.tuples(st.sampled_from(METHODS), st.sampled_from(ROUTES), bodies),
)
queries = st.lists(
    st.tuples(st.just("wait"), st.sampled_from(["0", "0.05", "-1", "x", "nan"]))
    | st.tuples(
        st.sampled_from(["vertex", "version", "from", "to", "x"]),
        st.sampled_from(["0", "1", "-1", "1.5", "abc", "", "inf", "9" * 20]),
    ),
    max_size=3,
)
suffixes = st.text(alphabet="abcjo019-_./%", max_size=10).map(
    lambda s: quote(s, safe="/-_.")
)
content_types = st.sampled_from([
    "application/json", "application/json; charset=utf-8", "text/plain",
    "application/x-www-form-urlencoded", "",
])


def _request(srv, method, path, body=b"", content_type="application/json"):
    url = urlparse(srv.address)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        headers = {"Content-Type": content_type} if content_type else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    """A server holding one snapshot, plus the job ids it handed out."""
    graph, _ = planted_partition(4, 10, 0.5, 0.05, seed=2)
    src, dst, _ = graph.edge_arrays()
    body = json.dumps({"edges": [[int(u), int(v)] for u, v in zip(src, dst)]})
    srv = ServiceServer(
        DetectionService(num_workers=1, queue_capacity=4, seed=0), port=0
    )
    srv.serve_background()
    job_id = json.loads(_request(srv, "POST", "/graph", body.encode())[2])["job_id"]
    _status, _headers, reply = _request(srv, "GET", f"/jobs/{job_id}?wait=30")
    assert json.loads(reply)["state"] == "done"
    yield srv, [job_id]
    srv.stop()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(request=requests, query=queries,
       content_type=st.just("application/json") | content_types,
       data=st.data())
def test_no_input_yields_5xx(server, request, query, content_type, data):
    srv, job_ids = server
    method, route, body = request
    ids = st.sampled_from(job_ids) if route == "/jobs/" else st.just("")
    path = route + data.draw(ids | suffixes)
    if query:
        path += "?" + urlencode(query)
    status, headers, reply = _request(srv, method, path, body, content_type)
    event(f"{method} {route} -> {status}")
    assert status < 500 or (status == 503 and "Retry-After" in headers), (
        method, path, body[:80], content_type, status, reply[:200],
    )
    if status == 202:
        job_ids.append(json.loads(reply)["job_id"])
