"""Workload ``live-updates``: writes between reads, in process.

An 8-shard ``LiveIndexChain`` over the WT stand-in (n=40,000, rank 32)
backs a ``CoSimRankService`` with default caches.  One thread follows
a fixed schedule: 10 read rounds a second, each a Zipf-skewed 4-seed
column request followed by a top-10 request, and an 8-edge batch through
``update_edges`` every 1.67 s, so reads meet the caches that shard
repair, ``publish_index`` and the cache-advance paths leave behind.
No wire or IPC is involved.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

import checks
from harness import (
    COL_SEEDS, ROUND_RATE, TOPK, Tracer, median, parse_prometheus, peak_rss_mb, request_rounds,
    tail,
)
from layers import SetupLayers, kernel_metrics

DATASET = ("WT", "bench")
RANK = 32
SHARDS = 8
#: Edges per update batch, and the period between batches:
#: ``examples/dynamic_updates.py`` mutates once per 30 requests, which
#: at 18 requests/s is once per 1.67 s.
EDGE_BATCH = 8
UPDATE_PERIOD_S = 30 / 18
#: Chains built per run; ``setup_s`` is their median.
SETUPS = 3
#: Hot and random seeds re-read after the last update and compared
#: against a store built from scratch on the final graph.
CHECKED_HOT = 24
CHECKED_RANDOM = 8
#: Rounds of the read loop re-run straight on the final index by a traced run.
PROBE_ROUNDS = 64


def _edge_batches(seed: int, num_nodes: int, count: int) -> List[List[tuple]]:
    rng = np.random.default_rng([seed, 3])
    batches = []
    for _ in range(count):
        batch = []
        while len(batch) < EDGE_BATCH:
            src, dst = (int(x) for x in rng.integers(0, num_nodes, 2))
            if src != dst and (src, dst) not in batch:
                batch.append((src, dst))
        batches.append(batch)
    return batches


def _edge_set(sources, targets, num_nodes: int) -> np.ndarray:
    """Sorted distinct edges, each encoded as ``source * n + target``."""
    return np.unique(np.asarray(sources, dtype=np.int64) * num_nodes
                     + np.asarray(targets, dtype=np.int64))


def check_final_state(chain, service, start_graph, batches, seeds, store_path) -> List[str]:
    """After the last update the chain holds the start graph plus every
    batch, and answers bit-identically to a store built from scratch on
    that graph.

    The final graph comes from the benchmark's own inputs (the start
    graph and ``batches``), not from the chain, so an edge batch the
    chain lost or misapplied shows as a different edge set and as
    different columns.
    """
    from repro.sharding import ShardedIndex, build_sharded_store

    n = start_graph.num_nodes
    added = [edge for batch in batches for edge in batch]
    final = start_graph.with_edges_added(added)
    want = _edge_set(
        np.concatenate([start_graph.edge_sources, [src for src, _ in added]]),
        np.concatenate([start_graph.edge_targets, [dst for _, dst in added]]), n)
    failures: List[str] = []
    for what, graph in (("reference graph", final), ("chain graph", chain.graph)):
        have = _edge_set(graph.edge_sources, graph.edge_targets, n)
        if not np.array_equal(have, want):
            failures.append(
                f"{what}: {have.size} edges, {np.setxor1d(have, want).size} differ "
                f"from the start graph plus {len(batches)} batches ({want.size} edges)")
    build_sharded_store(final, store_path, num_shards=SHARDS, rank=RANK)
    fresh = ShardedIndex(store_path)
    try:
        for chunk in range(0, len(seeds), COL_SEEDS):
            part = list(seeds[chunk:chunk + COL_SEEDS])
            expected = fresh.query_columns(part)
            failures += checks.check_identical(
                service.serve_batch([part])[0], expected, f"served columns {part} after updates")
            failures += checks.check_identical(
                chain.index.query_columns(part), expected, f"chain columns {part} after updates")
            for j, result in enumerate(service.serve_topk(part, TOPK)):
                failures += checks.check_topk(
                    result.nodes, result.scores, expected[:, j], part[j], TOPK)
    finally:
        fresh.close()
    return failures


def _all_spans(records, name):
    for record in records:
        if record["name"] == name:
            yield record
        yield from _all_spans(record["children"], name)


def run(seed: int, seconds: float, tracer: Tracer, work_dir: str) -> Dict[str, object]:
    import repro.obs as obs
    from repro.datasets.registry import load_dataset
    from repro.serving import CoSimRankService
    from repro.serving.live import LiveIndexChain

    graph = load_dataset(*DATASET)
    n = graph.num_nodes
    failures: List[str] = []
    setup_layers = SetupLayers(tracer)

    # ---------------------------------------------------------- set-up
    setup_times = []
    chain = service = None
    for attempt in range(SETUPS):
        if service is not None:
            service.close()
            chain.index.close()
        with tracer.span("setup.live_chain", attempt=attempt) as outer:
            started = time.perf_counter()
            with setup_layers.build():
                chain = LiveIndexChain(
                    graph, rank=RANK, store_root=os.path.join(work_dir, f"live-{attempt}"),
                    num_shards=SHARDS, max_workers=1)
            service = CoSimRankService(chain.index, max_workers=1)
            chain.attach(service)
            setup_times.append(time.perf_counter() - started)
        setup_layers.end(outer, graph)

    rounds = request_rounds(np.random.default_rng([seed, 1]), n, seconds)
    updates = max(1, int(seconds / UPDATE_PERIOD_S - 1e-9))
    batches = _edge_batches(seed, n, updates)
    obs.get_tracer().reset()

    #: milliseconds per column (column requests) or per seed (top-k)
    latency: Dict[str, List[float]] = {"col": [], "topk": []}
    attempted = {"col": 0, "topk": 0, "update": 0}
    failed = {"col": 0, "topk": 0, "update": 0}
    update_times: List[float] = []
    links = []
    # one thread, one time-ordered schedule: read rounds every
    # 1 / ROUND_RATE s and an edge batch every UPDATE_PERIOD_S s; an event
    # falls due when the one before it has ended, at the earliest
    events = sorted([(i / ROUND_RATE, "read", i) for i in range(len(rounds))]
                    + [((j + 1) * UPDATE_PERIOD_S, "update", j) for j in range(len(batches))])
    start = time.perf_counter()
    for due, what, i in events:
        pause = start + due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        if what == "update":
            attempted["update"] += 1
            with tracer.span("serving.live.update_edges", request_id=f"update-{i}"):
                began = time.perf_counter()
                try:
                    links.append(chain.update_edges(added=batches[i]))
                except Exception as exc:  # counted, reported, and the run goes on
                    failed["update"] += 1
                    failures.append(f"update {i} raised {type(exc).__name__}: {exc}")
                    continue
                update_times.append(time.perf_counter() - began)
            continue
        col_seeds, topk_seed = rounds[i]
        for kind, seeds in (("col", list(col_seeds)), ("topk", [topk_seed])):
            attempted[kind] += 1
            with tracer.span(f"serving.service.{kind}", request_id=f"{kind}-{i}"):
                began = time.perf_counter()
                if kind == "col":
                    batch = service.serve_batch_detailed([seeds])
                else:
                    batch = service.serve_topk_detailed(seeds, TOPK)
                elapsed = time.perf_counter() - began
            if all(outcome.ok for outcome in batch.outcomes):
                latency[kind].append(1e3 * elapsed / len(seeds))
            else:
                failed[kind] += 1
    rss = peak_rss_mb()

    # ---------------------------------------------------------- checks
    with tracer.span("check.live_vs_scratch"):
        hot = [s for col, _ in rounds for s in col]
        picked = list(dict.fromkeys(hot))[:CHECKED_HOT]
        picked += [int(s) for s in np.random.default_rng([seed, 4]).choice(n, CHECKED_RANDOM, replace=False)]
        failures += check_final_state(
            chain, service, graph, batches, picked, os.path.join(work_dir, "scratch-build"))

    report = [
        f"requests: col attempted {attempted['col']} failed {failed['col']}, "
        f"topk attempted {attempted['topk']} failed {failed['topk']}, "
        f"updates attempted {attempted['update']} failed {failed['update']}",
        f"update_edges every {UPDATE_PERIOD_S:.2f} s: "
        f"{', '.join(f'{t:.3f}' for t in update_times)} s",
    ]
    col_rung, col_tail = tail(latency["col"])
    topk_rung, topk_tail = tail(latency["topk"])
    report.append(
        f"col ms per column p50 {median(latency['col']):.2f}, p{col_rung:g} {col_tail:.2f} "
        f"({len(latency['col'])} requests); topk ms p50 {median(latency['topk']):.2f}, "
        f"p{topk_rung:g} {topk_tail:.2f} ({len(latency['topk'])} requests)")
    metrics = {}
    if tracer.enabled:
        used = rounds[:PROBE_ROUNDS]
        metrics.update(setup_layers.metrics())
        metrics.update(_layer_metrics(service, links))
        metrics.update(kernel_metrics(
            chain.index, [col for col, _ in used], [topk for _, topk in used], TOPK, tracer))
    metrics.update({
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "column_ms": (median(latency["col"]), "ms"),
        "topk_ms": (median(latency["topk"]), "ms"),
    })
    figures = {
        "col_tail_ms": (col_tail, "ms"),
        "topk_tail_ms": (topk_tail, "ms"),
        "update_s": (median(update_times), "s"),
    }
    service.close()
    chain.index.close()
    return {"attempted": sum(attempted.values()), "failed": sum(failed.values()),
            "failures": failures, "metrics": metrics, "figures": figures,
            "report": report}


def _layer_metrics(service, links):
    """The update and serving layers of this workload (printed by a
    traced run; the other workloads have no such layers)."""
    import repro.obs as obs

    rebuilds = []
    records = [root.as_dict() for root in obs.get_tracer().roots()]
    for record in _all_spans(records, "dynamic.rebuild"):
        rebuilds.append(record["wall_seconds"])
    scrape = parse_prometheus(service.registry.render_prometheus())
    swaps = max(1, len(links))
    swap_count = scrape.get("csrplus_update_swap_seconds_count", 0.0)
    hits = scrape.get("csrplus_serve_cache_hits_total", 0.0)
    misses = scrape.get("csrplus_serve_cache_misses_total", 0.0)
    topk_hits = scrape.get("csrplus_topk_cache_hits_total", 0.0)
    topk_misses = scrape.get("csrplus_topk_cache_misses_total", 0.0)
    return {
        "sharding.builder.repair_s": (median(rebuilds) if rebuilds else float("nan"), "s"),
        "sharding.builder.repaired_shard_ratio": (
            float(np.mean([len(link.repaired_shards) / SHARDS for link in links])), "ratio"),
        "sharding.builder.full_rebuild_ratio": (
            float(np.mean([link.full_rebuild for link in links])), "ratio"),
        "serving.service.publish_s": (
            scrape.get("csrplus_update_swap_seconds_sum", float("nan")) / max(1.0, swap_count), "s"),
        "serving.cache.patched_per_swap": (
            scrape.get("csrplus_serve_cache_patched_total", 0.0) / swaps, "count"),
        "serving.cache.invalidated_per_swap": (
            scrape.get("csrplus_serve_cache_invalidated_total", 0.0) / swaps, "count"),
        "serving.cache.retained_per_swap": (
            scrape.get("csrplus_serve_cache_retained_total", 0.0) / swaps, "count"),
        "serving.cache.column_hit_ratio": (hits / max(1.0, hits + misses), "ratio"),
        "serving.cache.topk_hit_ratio": (topk_hits / max(1.0, topk_hits + topk_misses), "ratio"),
        "serving.service.topk_candidates_per_miss": (
            scrape.get("csrplus_topk_candidates_scored_total", 0.0) / max(1.0, topk_misses), "count"),
    }
