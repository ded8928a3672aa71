"""Workload ``batch-multisource``: the paper's own use, in process.

The WB stand-in (R-MAT, n=262,144, m=1.13M) is prepared at rank 32,
then answers multi-source query sets over a spread of ``|Q|`` with the
exact and the batched kernel, plus top-10 per seed.  No cache, IPC or
wire is involved, so ``graphs``, ``linalg``, ``core.index`` and
``core.topk`` do almost all of the work.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np
from scipy import sparse

import checks
from harness import Tracer, median, peak_rss_mb
from layers import SetupLayers, ledger_peak_mb

DATASET = ("WB", "bench")
RANK = 32
TOPK = 10
#: Query-set sizes, answered in this order within one cycle.
LEVELS = (1, 4, 16, 64, 256)
#: Prepares per run; ``setup_s`` is their median.
SETUPS = 2
#: Share of ``--seconds`` given to each phase.  Every phase answers
#: at least one whole cycle over ``LEVELS``.  The batched phase then
#: runs whole cycles only (GEMM speed depends on ``|Q|``, so a partial
#: cycle would shift the mix); the exact and top-k phases, whose cost
#: per seed does not depend on ``|Q|``, stop at the first set past
#: their share.
SHARES = {"exact": 0.35, "batched": 0.3, "topk": 0.35}
#: The cycle-0 set of this size is kept whole and cross-checked by
#: every phase (oracle columns, batched tolerance, top-k order).
KEPT_LEVEL = 16
ORACLE_SEEDS = 4


def _query_sets(seed: int, stream: int, cycle: int, strata: List[np.ndarray]) -> List[np.ndarray]:
    """The query sets of one cycle: cycle 0 is shared by every phase,
    later cycles draw from the phase's own stream.

    Seeds are drawn stratified: each set takes its share of nodes with
    no in-links (``strata[0]``, 62% of WB) with stochastic rounding, the
    rest from the other nodes.  Such a seed's column is ``e_q``, and
    top-k scans every row for it, so a plain draw made the cost of a
    256-seed top-k set swing 2.1-3.4 s with how many the draw hit.
    """
    rng = np.random.default_rng([seed, 0 if cycle == 0 else stream, cycle])
    sourceless, others = strata
    share = sourceless.size / (sourceless.size + others.size)
    sets = []
    for level in LEVELS:
        take = int(level * share + rng.random())
        picked = np.concatenate([
            rng.choice(sourceless, size=take, replace=False),
            rng.choice(others, size=level - take, replace=False),
        ])
        sets.append(np.sort(picked).astype(np.int64))
    return sets


def _normalized_adjacency(graph):
    """``Q[x, y] = 1 / indeg(y)`` for each edge ``x -> y``, built here from
    the adjacency (not through ``repro.graphs.transition``)."""
    adjacency = graph.adjacency().astype(np.float64)
    colsum = np.asarray(adjacency.sum(axis=0)).ravel()
    inv = np.divide(1.0, colsum, out=np.zeros_like(colsum), where=colsum > 0)
    return (adjacency @ sparse.diags(inv)).tocsr()


def run(seed: int, seconds: float, tracer: Tracer, work_dir: str) -> Dict[str, object]:
    import repro.obs as obs
    from repro.core.index import CSRPlusIndex, batched_query_atol
    from repro.core.topk import top_k_blockwise
    from repro.datasets.registry import load_dataset

    graph = load_dataset(*DATASET)
    n = graph.num_nodes
    in_degree = np.bincount(graph.edge_targets, minlength=n)
    strata = [np.flatnonzero(in_degree == 0), np.flatnonzero(in_degree > 0)]
    failures: List[str] = []
    setup_layers = SetupLayers(tracer)

    # ---------------------------------------------------------- set-up
    setup_times = []
    index = None
    for attempt in range(SETUPS):
        index = None
        gc.collect()
        with tracer.span("setup.prepare", attempt=attempt) as outer:
            started = time.perf_counter()
            with setup_layers.build():
                index = CSRPlusIndex(graph, rank=RANK).prepare()
            setup_times.append(time.perf_counter() - started)
        setup_layers.end(outer, graph)
    u_factor, sigma, _, _ = index.factors
    atol = batched_query_atol(RANK, index.dtype)

    attempted = {"exact": 0, "batched": 0, "topk": 0}  # query sets per phase
    totals = {"exact": [0, 0.0], "batched": [0, 0.0], "topk": [0, 0.0]}
    exact_ms: List[float] = []  # ms per column of each exact query set
    batched_times: Dict[int, List[float]] = {level: [] for level in LEVELS}
    topk_candidates = 0
    topk_blocks = [0, 0]  # scanned, skipped
    kept_block = None
    kept_seeds = None

    def exact_reference(seed_id: int) -> np.ndarray:
        return index.query_columns([seed_id], mode="exact")[:, 0]

    # ---------------------------------------------------------- phases
    for stream, phase in enumerate(("exact", "batched", "topk"), start=1):
        budget = SHARES[phase] * seconds
        phase_started = time.perf_counter()
        cycle = 0
        while cycle == 0 or time.perf_counter() - phase_started < budget:
            for seeds in _query_sets(seed, stream, cycle, strata):
                if (cycle > 0 and phase != "batched"
                        and time.perf_counter() - phase_started >= budget):
                    break
                attempted[phase] += 1
                keep = cycle == 0 and seeds.size == KEPT_LEVEL
                if phase == "topk":
                    with tracer.span("core.topk.top_k_blockwise", seeds=int(seeds.size)):
                        started = time.perf_counter()
                        results = top_k_blockwise(index, seeds, TOPK)
                        elapsed = time.perf_counter() - started
                    for result in results:
                        topk_candidates += result.candidates_scored
                        topk_blocks[0] += result.blocks_scanned
                        topk_blocks[1] += result.blocks_skipped
                    if keep:
                        for j, seed_id in enumerate(seeds):
                            failures += checks.check_topk(
                                results[j].nodes, results[j].scores,
                                kept_block[:, j], int(seed_id), TOPK)
                    else:
                        failures += checks.check_topk(
                            results[0].nodes, results[0].scores,
                            exact_reference(int(seeds[0])), int(seeds[0]), TOPK)
                    del results
                else:
                    with tracer.span(f"core.index.{phase}", seeds=int(seeds.size)):
                        started = time.perf_counter()
                        block = index.query_columns(seeds, mode=phase)
                        elapsed = time.perf_counter() - started
                    if phase == "exact":
                        failures += checks.check_symmetric_block(block, seeds, atol)
                        if keep:
                            kept_block, kept_seeds = block.copy(order="F"), seeds
                    elif keep:
                        failures += checks.check_close(
                            block, kept_block, atol, "batched vs exact block")
                    else:
                        failures += checks.check_close(
                            block[:, 0], exact_reference(int(seeds[0])), atol,
                            f"batched column of seed {int(seeds[0])}")
                    del block
                totals[phase][0] += int(seeds.size)
                totals[phase][1] += elapsed
                if phase == "exact":
                    exact_ms.append(1e3 * elapsed / seeds.size)
                elif phase == "batched":
                    batched_times[int(seeds.size)].append(elapsed)
            cycle += 1

    # ---------------------------------------------------------- oracle
    with tracer.span("check.oracle"):
        q_matrix = _normalized_adjacency(graph)
        left = checks.left_factor(q_matrix, u_factor, sigma)
        failures += checks.check_singular_pairs(q_matrix, left, u_factor, sigma)
        # seeds with in-links: a sourceless seed's column is just e_q
        oracle_cols = [j for j, s in enumerate(kept_seeds) if in_degree[s] > 0][:ORACLE_SEEDS]
        reference = checks.power_series_columns(
            left, sigma, u_factor, [int(kept_seeds[j]) for j in oracle_cols], index.damping,
            checks.series_terms(index.damping))
        failures += checks.check_close(
            kept_block[:, oracle_cols], reference,
            checks.oracle_atol(RANK),
            "exact columns vs rank-r power series")

    metrics = {}
    if tracer.enabled:
        scanned, skipped = topk_blocks
        metrics.update(setup_layers.metrics())
        metrics.update({
            "core.memory.peak_mb": (ledger_peak_mb(), "MB"),
            "core.index.exact_ms_per_column": (
                1e3 * _span_total(tracer, "core.index.exact") / totals["exact"][0], "ms"),
            "core.index.batched_ms_per_column": (
                1e3 * _span_total(tracer, "core.index.batched") / totals["batched"][0], "ms"),
            "core.topk.ms_per_seed": (
                1e3 * _span_total(tracer, "core.topk.top_k_blockwise") / totals["topk"][0], "ms"),
            "core.topk.candidates_per_seed": (topk_candidates / totals["topk"][0], "count"),
            "core.topk.blocks_skipped_ratio": (skipped / max(1, scanned + skipped), "ratio"),
        })
    metrics.update({
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        # the median over query sets, so that a burst of host contention
        # during one set does not move it
        "column_ms": (median(exact_ms), "ms"),
        "topk_ms": (1e3 * totals["topk"][1] / totals["topk"][0], "ms"),
    })
    figures = {
        # medians per |Q| over cycles, summed over one cycle's sizes
        "batched_columns_per_s": (
            sum(LEVELS) / sum(median(batched_times[level]) for level in LEVELS), "columns/s"),
    }
    report = [
        "query sets: " + ", ".join(
            f"{phase} attempted {attempted[phase]} ({totals[phase][0]} seeds) failed 0"
            for phase in attempted),
        "prepare: " + ", ".join(f"{t:.2f}" for t in setup_times) + " s",
    ]
    return {
        "attempted": sum(attempted.values()),
        "failed": 0,
        "failures": failures,
        "metrics": metrics,
        "figures": figures,
        "report": report,
    }


def _span_total(tracer: Tracer, name: str) -> float:
    return sum(span.duration for span in tracer.named(name))
