"""Workload ``http-serving``: online users over HTTP.

A ``csrplus serve`` process (2 workers, default caches) serves a 4-shard
store of the WT stand-in (Chung-Lu, n=40,000, m=84,000, rank 32).  One
client process drives it on one connection: 10 rounds a second, each a
Zipf-skewed 4-seed column request followed by a top-10 request, one
request in flight at a time.  Column answers are dominated by wire,
IPC, HTTP and cache (1.7 MB of base64 JSON each); top-k answers are not.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import checks
from harness import (
    COL_SEEDS, ROUND_RATE, TOPK, Tracer, delta, histogram_mean, median, parse_prometheus,
    request_rounds, tail,
)
from layers import SetupLayers, kernel_metrics

DATASET = ("WT", "bench")
RANK = 32
SHARDS = 4
WORKERS = 2
#: Rounds of the load loop re-run straight on the store by a traced run.
PROBE_ROUNDS = 64
#: Server starts per run; ``setup_s`` is their median.
SETUPS = 3
#: Answers kept per op type and compared against the in-process store.
CHECKED = 12
READY_TIMEOUT_S = 60.0


class _Server:
    """One ``python -m repro serve`` process over a built store."""

    def __init__(self, store: str, log_path: str):
        self._log_path = log_path
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shards", store,
             "--port", "0", "--workers", str(WORKERS)],
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.url = self._wait_ready()
        host, port = self.url.rsplit("/", 1)[-1].split(":")
        self.host, self.port = host, int(port)

    def _wait_ready(self) -> str:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            with open(self._log_path) as handle:
                for line in handle:
                    if line.startswith("{") and '"ready"' in line:
                        return json.loads(line)["url"]
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        with open(self._log_path) as handle:
            raise RuntimeError(f"server did not become ready:\n{handle.read()[-2000:]}")

    def _get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, float]:
        return parse_prometheus(self._get("/metrics").decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets (``VmHWM``) of the server and its
        workers.  Pages of the shard store that several of them map are
        counted once per process."""
        pids = [self.process.pid] + json.loads(self._get("/healthz"))["worker_pids"]
        total_kib = 0
        for pid in pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()


def _post(conn: http.client.HTTPConnection, path: str, body: dict) -> Tuple[int, bytes]:
    conn.request("POST", path, body=json.dumps(body).encode("utf-8"),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _request(conn, kind: str, seeds, tracer: Tracer, request_id: str):
    """Send one request; returns ``(ok, bytes, round trip s, decode s, batch)``."""
    from repro.serving.frontend.protocol import decode_batch_result

    with tracer.span(f"client.{kind}", request_id=request_id):
        with tracer.span("frontend.server.round_trip", request_id=request_id):
            sent = time.perf_counter()
            if kind == "col":
                status, data = _post(conn, "/v1/query", {"requests": [list(seeds)]})
            else:
                status, data = _post(conn, "/v1/topk", {"seeds": list(seeds), "k": TOPK})
            received = time.perf_counter()
        with tracer.span("frontend.protocol.decode", request_id=request_id):
            batch = decode_batch_result(json.loads(data.decode("utf-8"))) if status == 200 else None
        decoded = time.perf_counter()
    ok = batch is not None and all(outcome.ok for outcome in batch.outcomes)
    return ok, len(data), received - sent, decoded - received, batch


class _Log:
    """Per-op-type outcomes of the load loop."""

    def __init__(self):
        #: milliseconds per column (column requests) or per seed (top-k)
        self.latency: Dict[str, List[float]] = {"col": [], "topk": []}
        self.attempted = {"col": 0, "topk": 0}
        self.failed = {"col": 0, "topk": 0}
        self.round_trip: List[float] = []
        self.decode_col: List[float] = []
        self.bytes_col: List[int] = []
        self.kept: Dict[str, list] = {"col": [], "topk": []}


def _paced_loop(server: _Server, rounds, tracer: Tracer, log: _Log) -> None:
    """One round (a column request, then a top-k request) every
    ``1 / ROUND_RATE`` s on one connection, one request in flight."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    start = time.perf_counter()
    try:
        for i, (col_seeds, topk_seed) in enumerate(rounds):
            pause = start + i / ROUND_RATE - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            for kind, seeds in (("col", col_seeds), ("topk", (topk_seed,))):
                log.attempted[kind] += 1
                try:
                    ok, size, trip, decode, batch = _request(conn, kind, seeds, tracer, f"{kind}-{i}")
                except (OSError, http.client.HTTPException, ValueError):
                    ok = False
                    conn.close()
                    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
                if not ok:
                    log.failed[kind] += 1
                    continue
                log.latency[kind].append(1e3 * (trip + decode) / len(seeds))
                log.round_trip.append(trip)
                if kind == "col":
                    log.decode_col.append(decode)
                    log.bytes_col.append(size)
                if len(log.kept[kind]) < CHECKED:
                    log.kept[kind].append((seeds, batch))
    finally:
        conn.close()


def run(seed: int, seconds: float, tracer: Tracer, work_dir: str) -> Dict[str, object]:
    from repro.datasets.registry import load_dataset
    from repro.serving.frontend.protocol import encode_batch_result
    from repro.sharding import ShardedIndex, build_sharded_store

    graph = load_dataset(*DATASET)
    failures: List[str] = []
    setup_layers = SetupLayers(tracer)

    # ---------------------------------------------------------- set-up
    setup_times = []
    server: Optional[_Server] = None
    store = ""
    try:
        for attempt in range(SETUPS):
            if server is not None:
                server.stop()
            store = os.path.join(work_dir, f"store-{attempt}")
            with tracer.span("setup.serve", attempt=attempt) as outer:
                started = time.perf_counter()
                with setup_layers.build():
                    build_sharded_store(graph, store, num_shards=SHARDS, rank=RANK)
                with tracer.span("frontend.server.start"):
                    server = _Server(store, os.path.join(work_dir, f"serve-{attempt}.log"))
                setup_times.append(time.perf_counter() - started)
            setup_layers.end(outer, graph)

        rounds = request_rounds(np.random.default_rng([seed, 1]), graph.num_nodes, seconds)
        log = _Log()
        scrape0 = server.metrics()
        with tracer.span("load.paced_loop"):
            _paced_loop(server, rounds, tracer, log)
        scrape1 = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    # ---------------------------------------------------------- checks
    sharded = ShardedIndex(store)
    try:
        with tracer.span("check.http_vs_sharded"):
            for seeds, batch in log.kept["col"]:
                failures += checks.check_identical(
                    batch.outcomes[0].result, sharded.query_columns(list(seeds)),
                    f"HTTP columns of seeds {list(seeds)}")
            for seeds, batch in log.kept["topk"]:
                result = batch.outcomes[0].result
                column = sharded.query_columns(list(seeds))[:, 0]
                failures += checks.check_topk(
                    result.nodes, result.scores, column, seeds[0], TOPK)
        metrics = {}
        if tracer.enabled:
            used = rounds[:PROBE_ROUNDS]
            metrics.update(setup_layers.metrics())
            metrics.update(kernel_metrics(
                sharded, [col for col, _ in used], [topk for _, topk in used], TOPK, tracer))
            metrics.update(_layer_metrics(log, scrape0, scrape1, encode_batch_result, tracer))
    finally:
        sharded.close()

    col_rung, col_tail = tail(log.latency["col"])
    topk_rung, topk_tail = tail(log.latency["topk"])
    report = [
        "requests: " + ", ".join(
            f"{kind} attempted {log.attempted[kind]} failed {log.failed[kind]}"
            for kind in log.attempted),
        f"col ms per column p50 {median(log.latency['col']):.2f}, p{col_rung:g} {col_tail:.2f} "
        f"({len(log.latency['col'])} requests); topk ms p50 {median(log.latency['topk']):.2f}, "
        f"p{topk_rung:g} {topk_tail:.2f} ({len(log.latency['topk'])} requests)",
    ]
    metrics.update({
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "column_ms": (median(log.latency["col"]), "ms"),
        "topk_ms": (median(log.latency["topk"]), "ms"),
    })
    figures = {
        "col_tail_ms": (col_tail, "ms"),
        "topk_tail_ms": (topk_tail, "ms"),
    }
    return {"attempted": sum(log.attempted.values()), "failed": sum(log.failed.values()),
            "failures": failures, "metrics": metrics, "figures": figures, "report": report}


def _layer_metrics(log: _Log, before, after, encode_batch_result, tracer):
    """The transport and serving layers of this workload, from the load
    loop (printed by a traced run; the other workloads have no such layers)."""
    encode = []
    for _, batch in log.kept["col"]:
        with tracer.span("frontend.protocol.encode"):
            started = time.perf_counter()
            json.dumps(encode_batch_result(batch, [0]))
            encode.append(time.perf_counter() - started)
    http_s = histogram_mean(before, after, "csrplus_frontend_http_request_seconds")
    hits = delta(before, after, "csrplus_serve_cache_hits_total")
    misses = delta(before, after, "csrplus_serve_cache_misses_total")
    topk_hits = delta(before, after, "csrplus_topk_cache_hits_total")
    topk_misses = delta(before, after, "csrplus_topk_cache_misses_total")
    batches = delta(before, after, "csrplus_frontend_coalesced_batches_total")
    merged = delta(before, after, "csrplus_frontend_coalesced_requests_total")
    return {
        "frontend.protocol.encode_ms_per_column": (1e3 * float(np.mean(encode)) / COL_SEEDS, "ms"),
        "frontend.protocol.decode_ms_per_column": (1e3 * float(np.mean(log.decode_col)) / COL_SEEDS, "ms"),
        "frontend.protocol.bytes_per_column": (float(np.mean(log.bytes_col)) / COL_SEEDS, "bytes"),
        "frontend.worker.task_ms": (1e3 * histogram_mean(before, after, "csrplus_worker_task_seconds"), "ms"),
        "serving.service.batch_ms": (1e3 * histogram_mean(before, after, "csrplus_serve_batch_seconds"), "ms"),
        "frontend.server.http_ms": (1e3 * http_s, "ms"),
        "frontend.unaccounted_ms": (1e3 * (float(np.mean(log.round_trip)) - http_s), "ms"),
        "serving.cache.column_hit_ratio": (hits / max(1.0, hits + misses), "ratio"),
        "serving.cache.topk_hit_ratio": (topk_hits / max(1.0, topk_hits + topk_misses), "ratio"),
        "frontend.server.requests_per_batch": (merged / max(1.0, batches), "count"),
    }
