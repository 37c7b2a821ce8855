"""The ``serve-mixed`` workload: ``repro serve`` under mixed HTTP traffic.

The server runs with its shipped defaults (2 workers, 4 ranks, simulated
execution, rotating trace sink) and ``--graph`` preloaded with an LFR base
graph.  One client process drives it with 2 threads over 2 persistent
HTTP/1.1 connections.  A run launches the server three times; the first
two only time set-up.  The third runs three phases:

1. open loop at ``RATE`` requests/s: every tenth request a ``POST /edges``
   batch, the rest vertex lookups, version diffs and a few full-membership
   and health reads;
2. read saturation: both connections issue vertex lookups back to back;
3. update saturation: each connection posts a batch, long-polls its job and
   posts the next.

Open-loop requests are timed from the moment they were due, less the
driver's own lag: a wait for the connection, which the server causes, counts;
the driver's own lateness in sending does not.

Latency of a phase-1 update runs from that time to the job's
``finished_at`` stamp, read back from ``/jobs/<id>`` after the phase on the
same host clock, so no connection is parked on a long poll during it.  A
phase-3 update is timed by its client, from sending the batch to the
long-poll reply that carries its result: that is ``wall_s``.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    BENCH_DIR,
    Q_TOLERANCE,
    SERVE_GRAPH,
    WORK,
    Run,
    ensure_input,
    fingerprint,
    load_reference,
    program_env,
    tail_quantile,
    use_program,
    vm_hwm_kib,
)
from spans import SpanRecorder

RATE = 20.0
#: Requests in every block of 50 phase-1 slots.  The edge batches sit at
#: fixed slots (every tenth request), so updates arrive evenly instead of in
#: seed-dependent bursts; the seed shuffles the reads between them.
BLOCK = {"edges": 5, "vertex": 35, "diff": 6, "full": 2, "healthz": 2}
BLOCK_SLOTS = sum(BLOCK.values())
BATCH_EDGES = 40
INTRA_SHARE = 0.8
#: Share of ``--seconds`` given to phases 1-3 of the measured launch.
PHASE_SHARES = (0.5, 0.1, 0.4)
#: Launches per run; ``setup_s`` is their median.
LAUNCHES = 3
#: The run is invalid when the driver's own lag (send time minus the later
#: of due time and connection free) has a p99 above this: a fifth of the
#: 100 ms between two requests on one connection.  The lag itself is taken
#: out of every open-loop latency.
LATE_LIMIT_MS = 20.0
HTTP_TIMEOUT_S = 60.0
READ_KINDS = ("vertex", "diff", "full", "healthz")
ENDPOINTS = {"membership": "GET /membership", "diff": "GET /diff",
             "edges": "POST /edges", "healthz": "GET /healthz"}


def serve_input():
    return ensure_input("serve-mixed", *SERVE_GRAPH)


# --------------------------------------------------------------------- #
# Traffic plan (a pure function of the seed)
# --------------------------------------------------------------------- #


class Plan:
    """The seeded requests of one run: schedules, lookups and edge batches."""

    def __init__(self, seed: int, seconds: float) -> None:
        use_program()
        from repro.generators import generate_lfr

        _kind, params, graph_seed = SERVE_GRAPH
        lfr = generate_lfr(seed=graph_seed, **params)
        self.num_vertices = lfr.graph.num_vertices
        labels = lfr.ground_truth
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(labels.max() + 2))
        self._members = [order[bounds[c]:bounds[c + 1]]
                         for c in range(labels.max() + 1)]
        self._labels = labels
        self.rng = np.random.default_rng([seed, 12])
        self.t1, self.t2, self.t3 = (s * seconds for s in PHASE_SHARES)
        self.phase1 = self.schedule(self.t1)
        self.lookups = self.rng.integers(self.num_vertices, size=100_000).tolist()
        self.batches = [self.batch() for _ in range(1000)]

    def schedule(self, seconds: float) -> list[tuple]:
        """Open-loop ``(due offset, kind, argument)`` list at ``RATE``."""
        reads = [k for k, count in BLOCK.items() if k != "edges"
                 for _ in range(count)]
        stride = BLOCK_SLOTS // BLOCK["edges"]
        out = []
        for i in range(int(RATE * seconds)):
            slot = i % BLOCK_SLOTS
            if slot == 0:
                order = iter(self.rng.permutation(reads).tolist())
            if slot % stride == stride // 2:
                out.append((i / RATE, "edges", self.batch()))
                continue
            kind = next(order)
            out.append((i / RATE, kind, int(self.rng.integers(self.num_vertices))))
        return out

    def batch(self) -> list[list[int]]:
        """~40 new edges, ``INTRA_SHARE`` of them inside planted communities."""
        edges = []
        while len(edges) < BATCH_EDGES:
            u = int(self.rng.integers(self.num_vertices))
            if self.rng.random() < INTRA_SHARE:
                members = self._members[self._labels[u]]
                v = int(members[self.rng.integers(members.size)])
            else:
                v = int(self.rng.integers(self.num_vertices))
            if u != v:
                edges.append([u, v])
        return edges


# --------------------------------------------------------------------- #
# HTTP
# --------------------------------------------------------------------- #


class Conn:
    """One persistent HTTP/1.1 connection; errors become status 0."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body=None) -> tuple[int, dict]:
        headers = {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
            self._conn.request(method, path, body=payload, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, {"error": f"{type(exc).__name__}: {exc}"}
        if resp.headers.get_content_type() == "application/json":
            return resp.status, json.loads(data)
        return resp.status, {"text": data.decode()}

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, graph_path, tag: str, spans_path=None,
                 extra_args=()) -> None:
        trace_dir = WORK / "serve" / tag
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        serve_args = ["--port", "0", "--graph", str(graph_path),
                      "--trace-dir", str(trace_dir / "traces"), *extra_args]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   str(spans_path), *serve_args]
        self.launched = time.monotonic()
        self._log = open(trace_dir / "stderr.log", "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, env=program_env(),
                                     text=True)
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        self.port = 0
        self.detect_job = ""
        deadline = time.monotonic() + 60
        try:
            while not self.port:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
                if line is None:
                    raise RuntimeError(f"repro serve exited {self.proc.wait()}")
                if m := re.search(r" as (\S+)$", line):
                    self.detect_job = m.group(1)
                if m := re.search(r"serving on http://[\d.]+:(\d+)", line):
                    self.port = int(m.group(1))
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` shows the first snapshot."""
        conn = Conn(self.port)
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                status, doc = conn.request("GET", "/healthz")
                if status == 200 and doc.get("latest_version") is not None:
                    return time.monotonic() - self.launched
                time.sleep(0.01)
        finally:
            conn.close()
        raise RuntimeError("no snapshot within 120 s of launch")

    def stop(self) -> None:
        """Ask the server to shut down; kill it if it has not within 30 s."""
        if self.proc.poll() is None and self.port:
            conn = Conn(self.port)
            conn.request("POST", "/shutdown")
            conn.close()
        try:
            self.proc.wait(timeout=30 if self.port else 0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


# --------------------------------------------------------------------- #
# One measured session
# --------------------------------------------------------------------- #


class Session:
    """Phases 1-3 against one server, plus the output checks."""

    def __init__(self, server: Server, plan: Plan, run) -> None:
        self.server = server
        self.plan = plan
        self.run = run
        self.conns = [Conn(server.port), Conn(server.port)]
        self.latest = 1
        self.lock = threading.Lock()
        self.p1: list[dict] = []
        self.jobs: dict[str, dict] = {}  # job id -> {"batch", "start_wall", ...}
        self.queue_depths: list[int] = []
        self.p2_latencies: list[float] = []
        self.p3_round_trips: list[float] = []
        self.hist = {}

    def op_failed(self, why: str) -> None:
        with self.lock:
            self.run.fail(why)

    def attempt(self) -> None:
        with self.lock:
            self.run.attempted += 1

    # ----------------------------------------------------------------- #

    def request_for(self, kind: str, arg):
        if kind == "edges":
            return "POST", "/edges", {"add": arg}
        if kind == "vertex":
            return "GET", f"/membership?vertex={arg}", None
        if kind == "diff":
            to = self.latest
            return "GET", f"/diff?from={max(1, to - 1)}&to={to}", None
        if kind == "full":
            return "GET", "/membership", None
        return "GET", "/healthz", None

    def note_reply(self, kind: str, doc: dict) -> None:
        version = doc.get("version") or doc.get("latest_version")
        if kind in ("vertex", "full", "healthz") and version:
            with self.lock:
                self.latest = max(self.latest, int(version))
        if kind == "healthz" and "queue_pending" in doc:
            self.queue_depths.append(int(doc["queue_pending"]))

    def open_loop(self, schedule) -> list[dict]:
        """Send ``schedule`` on time; one record per request."""
        start = time.monotonic() + 0.05
        wall0 = time.time() - time.monotonic()
        records: list[dict] = []

        def worker(k: int) -> None:
            conn = self.conns[k]
            free = start
            for due_offset, kind, arg in schedule[k::2]:
                due = start + due_offset
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                sent = time.monotonic()
                method, path, body = self.request_for(kind, arg)
                status, doc = conn.request(method, path, body)
                done = time.monotonic()
                self.attempt()
                lag = sent - max(due, free)
                rec = {"kind": kind, "due": due, "sent": sent, "done": done,
                       "lag": lag, "status": status}
                free = done
                if kind == "edges" and status == 202:
                    self.jobs[doc["job_id"]] = {
                        "batch": arg, "start_wall": due + lag + wall0,
                        "phase": 1}
                elif status != 200:
                    self.op_failed(f"{method} {path} -> {status} {doc}")
                else:
                    self.note_reply(kind, doc)
                records.append(rec)

        self._threads(worker)
        return records

    def phase1(self) -> None:
        self.p1 = self.open_loop(self.plan.phase1)
        self.p1_window = (min(r["due"] for r in self.p1),
                          max(r["done"] for r in self.p1))

    def wait_job(self, conn: Conn, job_id: str) -> None:
        """Long-poll a job to its end; keep its stamps, fail it unless done."""
        job = self.jobs[job_id]
        while True:
            status, doc = conn.request("GET", f"/jobs/{job_id}?wait=30")
            if status != 200 or doc["state"] not in ("pending", "running"):
                break
        if status != 200:
            self.op_failed(f"GET /jobs/{job_id} -> {status} {doc}")
            job["state"] = "unknown"
            return
        job.update(state=doc["state"], created=doc["created_at"],
                   started=doc["started_at"], finished=doc["finished_at"],
                   version=(doc["result"] or {}).get("version"),
                   base=(doc["result"] or {}).get("base_version"))
        if doc["state"] != "done":
            self.op_failed(f"job {job_id} ended {doc['state']}: {doc['error']}")

    def collect_jobs(self) -> None:
        """Wait for the phase-1 jobs, which the open loop did not poll."""
        for job_id, job in self.jobs.items():
            if "state" not in job:
                self.wait_job(self.conns[0], job_id)

    def phase2(self) -> None:
        start = time.monotonic()
        deadline = start + self.plan.t2
        counts = [0, 0]
        last = [start, start]

        def worker(k: int) -> None:
            conn = self.conns[k]
            i = k
            while time.monotonic() < deadline:
                vertex = self.plan.lookups[i % len(self.plan.lookups)]
                i += 2
                t0 = time.monotonic()
                status, doc = conn.request("GET", f"/membership?vertex={vertex}")
                done = time.monotonic()
                self.attempt()
                if status != 200:
                    self.op_failed(f"GET /membership -> {status} {doc}")
                    continue
                counts[k] += 1
                last[k] = done
                self.p2_latencies.append(done - t0)

        self._threads(worker)
        self.read_rate = rate(sum(counts), max(last) - start)

    def phase3(self) -> None:
        start = time.monotonic()
        deadline = start + self.plan.t3
        counts = [0, 0]
        last = [start, start]

        def worker(k: int) -> None:
            conn = self.conns[k]
            i = k
            while time.monotonic() < deadline:
                batch = self.plan.batches[i % len(self.plan.batches)]
                i += 2
                self.attempt()
                t0 = time.monotonic()
                status, doc = conn.request("POST", "/edges", {"add": batch})
                if status != 202:
                    self.op_failed(f"POST /edges -> {status} {doc}")
                    continue
                job_id = doc["job_id"]
                self.jobs[job_id] = {"batch": batch, "phase": 3}
                self.wait_job(conn, job_id)
                if self.jobs[job_id]["state"] == "done":
                    counts[k] += 1
                    last[k] = time.monotonic()
                    with self.lock:
                        self.p3_round_trips.append(last[k] - t0)

        self._threads(worker)
        self.update_rate = rate(sum(counts), max(last) - start)

    def _threads(self, worker) -> None:
        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def scrape(self) -> dict[str, list[tuple[float, int]]]:
        status, doc = self.conns[0].request("GET", "/metrics")
        out: dict[str, list[tuple[float, int]]] = {}
        pattern = re.compile(
            r'^repro_service_request_duration_seconds_bucket'
            r'\{endpoint="([^"]+)",le="([^"]+)"\} (\d+)$')
        for line in doc.get("text", "").splitlines():
            if m := pattern.match(line):
                out.setdefault(m.group(1), []).append(
                    (float(m.group(2)), int(m.group(3))))
        return out

    # ----------------------------------------------------------------- #

    def measure(self) -> None:
        self.hist["p1_before"] = self.scrape()
        self.phase1()
        self.hist["p1_after"] = self.scrape()
        self.collect_jobs()
        self.p1_snapshot = self.snapshot()
        # Peak memory and Q are read after phase 1, whose work is fixed:
        # phase 3 runs as many jobs as the server is fast enough to finish.
        self.server_rss_mb = vm_hwm_kib(self.server.proc.pid) / 1024.0
        self.hist["p2_before"] = self.scrape()
        self.phase2()
        self.hist["p2_after"] = self.scrape()
        self.phase3()
        self.window = (self.p1_window[0], time.monotonic())
        self.final = self.snapshot()
        self.close()

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def snapshot(self) -> dict:
        """Latest snapshot: version, Q, fingerprint and its batch order."""
        status, doc = self.conns[0].request("GET", "/membership")
        if status != 200:
            self.op_failed(f"GET /membership -> {status} {doc}")
            return {}
        done = sorted((j["version"], jid) for jid, j in self.jobs.items()
                      if j.get("state") == "done" and j.get("version"))
        return {"version": doc["version"], "modularity": doc["modularity"],
                "membership": doc["membership"],
                "fingerprint": fingerprint(doc["membership"]),
                "order": [jid for _, jid in done]}

    def check_final(self, graph_path) -> None:
        """Final Q equals Q of the base graph replayed in version order."""
        use_program()
        from repro.graph import read_edge_list
        from repro.metrics import modularity_from_labels
        from repro.parallel import EdgeBatch, apply_edge_batch

        self.attempt()
        final = self.final
        done = [self.jobs[jid] for jid in final.get("order", [])]
        versions = [j["version"] for j in done]
        if not final or versions != list(range(2, 2 + len(done))) or any(
                j["base"] != j["version"] - 1 for j in done):
            self.op_failed(f"update versions do not chain: {versions}")
            return
        if final["version"] != (versions[-1] if versions else 1):
            self.op_failed(f"latest version {final['version']} is not the last "
                           f"update's {versions[-1:]}")
            return
        graph = read_edge_list(graph_path)
        for job in done:
            edges = np.asarray(job["batch"], dtype=np.int64)
            graph = apply_edge_batch(graph, EdgeBatch(
                add_src=edges[:, 0], add_dst=edges[:, 1]))
        q = modularity_from_labels(graph, np.asarray(final["membership"]))
        if abs(q - final["modularity"]) > Q_TOLERANCE:
            self.op_failed(f"final snapshot Q {final['modularity']!r} != "
                           f"{q!r} recomputed on the replayed graph")

    # ----------------------------------------------------------------- #

    def updates(self) -> list[dict]:
        return [j for j in self.jobs.values()
                if j["phase"] == 1 and j.get("state") == "done"]

    def update_latencies_ms(self) -> list[float]:
        return [1000.0 * (j["finished"] - j["start_wall"]) for j in self.updates()]


def read_latencies_ms(records: list[dict]) -> list[float]:
    """Due time to response, less the driver's own lag in sending."""
    return [1000.0 * (r["done"] - r["due"] - r["lag"]) for r in records
            if r["kind"] in READ_KINDS and r["status"] == 200]


def late_p99_ms(records: list[dict]) -> tuple[float, float]:
    return tail_quantile([1000.0 * r["lag"] for r in records], 0.99)


# --------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------- #


def launch(graph_path, tag: str, spans_path=None) -> tuple[Server, float, dict]:
    """Start a server; returns it, its setup time and its first detect job."""
    server = Server(graph_path, tag, spans_path)
    try:
        setup = server.wait_ready()
        conn = Conn(server.port)
        status, job = conn.request("GET", f"/jobs/{server.detect_job}")
        status2, first = conn.request("GET", "/membership?version=1")
        conn.close()
        if status != 200 or status2 != 200 or job["state"] != "done":
            raise RuntimeError(f"first detect job: {status} {job}")
        job["fingerprint"] = fingerprint(first["membership"])
    except BaseException:
        server.stop()
        raise
    return server, setup, job


def session(graph_path, plan: Plan, run, tag: str, spans_path=None):
    server, setup, job = launch(graph_path, tag, spans_path)
    s = Session(server, plan, run)
    try:
        s.measure()
    finally:
        server.stop()
    s.setup, s.first_job = setup, job
    s.check_final(graph_path)
    return s


def run_serve(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    graph_path, digest = serve_input()
    if digest != load_reference()["inputs"]["serve-mixed"]:
        run.fail(f"input hash {digest[:16]} differs from the recorded one")
        run.attempted = 1
        return run
    plan = Plan(seed, seconds)
    # The driver's two threads hand the interpreter lock to each other far
    # more often than the 5 ms default, so a thread whose request is due
    # is not kept waiting behind the other's response parsing.
    sys.setswitchinterval(0.0005)
    try:
        if trace:
            serve_layers(run, graph_path, plan)
        else:
            serve_end_to_end(run, graph_path, plan)
    except (RuntimeError, OSError, KeyError, queue.Empty) as exc:
        run.fail(f"serve-mixed aborted: {type(exc).__name__}: {exc}")
        run.attempted = max(run.attempted, 1)
    return run


def serve_end_to_end(run, graph_path, plan: Plan) -> None:
    setups = []
    for i in range(LAUNCHES - 1):
        server, setup, _job = launch(graph_path, f"setup{i}")
        server.stop()
        setups.append(setup)
    s = session(graph_path, plan, run, "measured")
    setups.append(s.setup)
    check_driver(run, s.p1)

    run.put("setup_s", np.median(setups), len(setups))
    run.put("peak_rss_mb", s.server_rss_mb)
    run.put("modularity", s.p1_snapshot["modularity"])
    run.put("wall_s", np.median(s.p3_round_trips), len(s.p3_round_trips))


def put_quantiles(run, stem: str, values: list[float], qs) -> None:
    for q in qs:
        value, used = tail_quantile(values, q)
        note = "" if used == q else f"p{100 * used:.1f}: too few samples for p{100 * q:g}"
        run.put(f"{stem}_p{100 * q:g}_ms", value, len(values), note)


def check_driver(run, records: list[dict]) -> None:
    run.attempted += 1
    late, _ = late_p99_ms(records)
    if late > LATE_LIMIT_MS:
        run.fail(f"driver fell behind: own lag p99 {late:.2f} ms > "
                 f"{LATE_LIMIT_MS} ms, run invalid")


def serve_layers(run, graph_path, plan: Plan) -> None:
    plain = session(graph_path, plan, run, "plain")
    spans_path = WORK / "serve" / "spans.json"
    traced = session(graph_path, plan, run, "traced", spans_path)
    with open(spans_path) as fh:
        record = json.load(fh)
    os.remove(spans_path)
    check_driver(run, traced.p1)

    if traced.first_job["fingerprint"] != plain.first_job["fingerprint"]:
        run.fail("traced server's first snapshot differs from the untraced one")
    a, b = plain.p1_snapshot, traced.p1_snapshot
    same_order = [plain.jobs[j]["batch"] for j in a["order"]] == [
        traced.jobs[j]["batch"] for j in b["order"]]
    if same_order and a["fingerprint"] != b["fingerprint"]:
        run.fail("traced server's phase-1 snapshot differs from the untraced one")
    n_ups = len(traced.updates())
    run.put("trace.overhead",
            np.median(traced.update_latencies_ms())
            / np.median(plain.update_latencies_ms()),
            n_ups, "" if same_order else "phase-1 update order differed")

    spans = [tuple(s) for s in record["spans"]]
    during = SpanRecorder.within(spans, *traced.window)
    own = SpanRecorder.self_times(during)
    calls = SpanRecorder.calls(during)
    measured = [jid for jid, j in traced.jobs.items() if j.get("state") == "done"]
    jobs = max(len(measured), 1)

    def per_job(name: str) -> float:
        return own[name] / jobs

    for stem in ("parallel.build_states", "parallel.state_propagation",
                 "parallel.find_best", "parallel.modularity",
                 "parallel.reconstruct", "kernels.coalesce", "runtime.exchange",
                 "runtime.publish", "metrics.modularity",
                 "service.apply_edge_batch", "observability.sink_write"):
        run.put(stem + "_s", per_job(stem), jobs, "seconds per update job")
    run_s = sum(j["finished"] - j["started"] for jid, j in traced.jobs.items()
                if jid in measured and "finished" in j)
    workers = {s[5] for s in during if s[0].startswith("parallel.")}
    job_roots = sum(s[2] - s[1] for s in during if s[3] is None and s[5] in workers)
    if run_s:
        run.put("parallel.control_s", (run_s - job_roots) / jobs, jobs,
                "seconds per update job")
    run.put("service.store_s", own["service.store"]
            / max(calls["service.store"], 1),
            calls["service.store"], "seconds per store call")
    run.put("kernels.coalesce_calls", calls["kernels.coalesce"], jobs)
    for name in ("kernels.coalesce_items", "kernels.coalesce_bytes"):
        run.put(name, record["counts"].get(name, 0.0), jobs)
    run.put("observability.events_written",
            calls["observability.sink_write"] / jobs, jobs, "per update job")
    run.put("runtime.shm_bytes_moved", 0.0, jobs, "simulated execution")
    run.put("runtime.parent_s", 0.0, jobs, "simulated execution")
    run.put("graph.read_edge_list_s", sum(
        s[4] for s in spans if s[0] == "graph.read_edge_list"), 1,
        "the server's own load at launch")

    counts = {k: 0.0 for k in ("levels", "iterations", "movers", "scanned",
                               "supersteps", "records", "bytes", "messages")}
    for jid in measured:
        for k, v in record["job_counts"].get(jid, {}).items():
            counts[k] += v
    for key, name in (("levels", "parallel.levels"),
                      ("iterations", "parallel.iterations"),
                      ("movers", "parallel.movers"),
                      ("bytes", "runtime.bytes_sent"),
                      ("records", "runtime.records_sent"),
                      ("messages", "runtime.messages_sent"),
                      ("supersteps", "runtime.supersteps")):
        run.put(name, counts[key] / jobs, jobs, "per update job")
    run.put("parallel.move_ratio", counts["movers"] / max(counts["scanned"], 1), jobs)

    ups = traced.updates()
    waits = [1000.0 * (j["started"] - j["created"]) for j in ups]
    runs = [1000.0 * (j["finished"] - j["started"]) for j in ups]
    for stem, values in (("service.queue_wait_ms", waits), ("service.run_ms", runs)):
        for q in (0.5, 0.9):
            value, used = tail_quantile(values, q)
            run.put(f"{stem}.p{100 * q:g}", value, len(values),
                    "" if used == q else f"p{100 * used:.1f}")
    admits = [1000.0 * (r["done"] - r["sent"]) for r in traced.p1
              if r["kind"] == "edges" and r["status"] == 202]
    run.put("service.admit_ms.p50", np.median(admits), len(admits))

    p1 = hist_delta(traced.hist["p1_before"], traced.hist["p1_after"])
    for short, endpoint in ENDPOINTS.items():
        buckets = p1.get(endpoint, [])
        for q in (0.5, 0.99):
            value, used, n = hist_quantile(buckets, q)
            run.put(f"service.handler_ms.{short}.p{100 * q:g}", value, n,
                    "" if used == q else f"p{100 * used:.1f}")
    p2 = hist_delta(traced.hist["p2_before"], traced.hist["p2_after"])
    client = [1000.0 * x for x in traced.p2_latencies]
    for q in (0.5, 0.99):
        handler, _used, _n = hist_quantile(p2.get(ENDPOINTS["membership"], []), q)
        value, used = tail_quantile(client, q)
        run.put(f"service.outside_handler_ms.p{100 * q:g}", value - handler,
                len(client), "" if used == q else f"p{100 * used:.1f}")
    run.put("service.queue_depth_max", max(traced.queue_depths, default=0),
            len(traced.queue_depths))
    # What a client sees, from the untraced server.
    put_quantiles(run, "serve.update", plain.update_latencies_ms(), (0.5, 0.9))
    put_quantiles(run, "serve.read", read_latencies_ms(plain.p1), (0.5, 0.99))
    run.put("serve.max_read_rps", plain.read_rate, len(plain.p2_latencies))
    run.put("serve.max_update_rps", plain.update_rate, len(plain.p3_round_trips))
    late, used = late_p99_ms(traced.p1)
    run.put("driver.late_p99_ms", late, len(traced.p1),
            "" if used == 0.99 else f"p{100 * used:.1f}")


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def hist_delta(before: dict, after: dict) -> dict:
    out = {}
    for endpoint, buckets in after.items():
        prior = dict(before.get(endpoint, []))
        out[endpoint] = [(le, c - prior.get(le, 0)) for le, c in buckets]
    return out


def hist_quantile(buckets: list[tuple[float, int]], q: float):
    """Prometheus-style quantile (ms) from cumulative buckets, tail rule."""
    finite = sorted((le, c) for le, c in buckets if le != float("inf"))
    total = max((c for _le, c in buckets), default=0)
    if not total:
        return 0.0, q, 0
    used = max(0.5, min(q, 1.0 - 10.0 / total))
    rank = used * total
    lower, below = 0.0, 0
    for le, cum in finite:
        if cum >= rank:
            share = (rank - below) / max(cum - below, 1)
            return 1000.0 * (lower + (le - lower) * share), used, total
        lower, below = le, cum
    return 1000.0 * lower, used, total
