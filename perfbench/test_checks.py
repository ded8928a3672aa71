"""Each correctness check of the benchmark rejects a wrong answer.

    python3 -m pytest perfbench/test_checks.py

Small graphs, real program output: a correct answer passes every
check, and one entry moved by 10x the check's tolerance, two swapped
top-k entries, a column from a stale live version, or a live chain
that skipped an edge batch fails it.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from repro.core.index import CSRPlusIndex, batched_query_atol  # noqa: E402
from repro.core.topk import top_k_blockwise  # noqa: E402
from repro.graphs.generators import chung_lu  # noqa: E402
from repro.graphs.transition import transition_matrix  # noqa: E402

RANK = 8
SEEDS = [3, 17, 42, 99]


@pytest.fixture(scope="module")
def graph():
    return chung_lu(400, 1200, exponent=2.2, seed=7)


@pytest.fixture(scope="module")
def index(graph):
    return CSRPlusIndex(graph, rank=RANK).prepare()


@pytest.fixture(scope="module")
def exact(index):
    return index.query_columns(SEEDS, mode="exact")


def _moved(array: np.ndarray, row: int, col: int, by: float) -> np.ndarray:
    wrong = np.array(array, copy=True, order="F")
    wrong[row, col] += by
    return wrong


def test_power_series_oracle(graph, index, exact):
    u_factor, sigma, _, _ = index.factors
    q_matrix = transition_matrix(graph)
    left = checks.left_factor(q_matrix, u_factor, sigma)
    assert checks.check_singular_pairs(q_matrix, left, u_factor, sigma) == []
    reference = checks.power_series_columns(
        left, sigma, u_factor, SEEDS, index.damping, checks.series_terms(index.damping))
    atol = checks.oracle_atol(RANK)
    assert checks.check_close(exact, reference, atol, "oracle") == []
    assert checks.check_close(_moved(exact, 5, 1, 10 * atol), reference, atol, "oracle")


def test_singular_pairs_reject_wrong_factors(graph, index):
    u_factor, sigma, _, _ = index.factors
    q_matrix = transition_matrix(graph)
    left = checks.left_factor(q_matrix, u_factor, sigma)
    wrong_sigma = sigma.copy()
    wrong_sigma[0] *= 1.0 + 10 * checks.SVD_PAIR_RTOL
    assert checks.check_singular_pairs(q_matrix, left, u_factor, wrong_sigma)


def test_batched_tolerance(index, exact):
    atol = batched_query_atol(RANK, index.dtype)
    batched = index.query_columns(SEEDS, mode="batched")
    assert checks.check_close(batched, exact, atol, "batched") == []
    assert checks.check_close(_moved(batched, 0, 2, 10 * atol), exact, atol, "batched")


def test_symmetry_and_diagonal(index, exact):
    atol = batched_query_atol(RANK, index.dtype)
    assert checks.check_symmetric_block(exact, SEEDS, atol) == []
    # S[SEEDS[1], SEEDS[0]] moved: the sampled block is no longer symmetric
    assert checks.check_symmetric_block(_moved(exact, SEEDS[1], 0, 10 * atol), SEEDS, atol)
    # S[SEEDS[2], SEEDS[2]] pushed below 1
    below = _moved(exact, SEEDS[2], 2, 1.0 - exact[SEEDS[2], 2] - 10 * atol)
    assert checks.check_symmetric_block(below, SEEDS, atol)


def test_topk_order(index, exact):
    results = top_k_blockwise(index, SEEDS, 10)
    for j, result in enumerate(results):
        assert checks.check_topk(result.nodes, result.scores, exact[:, j], SEEDS[j], 10) == []
    # the seed with the widest score range, so swapped scores differ
    j = max(range(len(SEEDS)), key=lambda i: float(np.ptp(results[i].scores)))
    best = results[j]
    nodes = best.nodes.copy()
    nodes[[2, 3]] = nodes[[3, 2]]
    assert checks.check_topk(nodes, best.scores, exact[:, j], SEEDS[j], 10)
    scores = best.scores.copy()
    scores[[0, -1]] = scores[[-1, 0]]
    assert checks.check_topk(best.nodes, scores, exact[:, j], SEEDS[j], 10)


def test_stale_version_is_not_identical(graph, tmp_path):
    from repro.serving.live import LiveIndexChain
    from repro.sharding import ShardedIndex, build_sharded_store

    chain = LiveIndexChain(graph, rank=RANK, store_root=str(tmp_path / "live"), num_shards=2)
    stale = chain.index.query_columns(SEEDS)
    chain.update_edges(added=[(SEEDS[0], SEEDS[1]), (SEEDS[2], SEEDS[3]), (5, SEEDS[0])])
    build_sharded_store(chain.graph, str(tmp_path / "scratch"), num_shards=2, rank=RANK)
    fresh = ShardedIndex(str(tmp_path / "scratch"))
    try:
        expected = fresh.query_columns(SEEDS)
        assert checks.check_identical(chain.index.query_columns(SEEDS), expected, "live") == []
        assert checks.check_identical(stale, expected, "stale")
    finally:
        fresh.close()
        chain.index.close()


def test_live_final_state_rejects_a_skipped_batch(graph, tmp_path):
    import wl_live
    from repro.serving import CoSimRankService
    from repro.serving.live import LiveIndexChain

    batches = [[(SEEDS[0], SEEDS[1]), (7, 8)], [(SEEDS[2], SEEDS[3]), (5, SEEDS[0])]]
    present = set(zip(graph.edge_sources.tolist(), graph.edge_targets.tolist()))
    assert not present & {edge for batch in batches for edge in batch}
    chain = LiveIndexChain(graph, rank=wl_live.RANK, store_root=str(tmp_path / "live"),
                           num_shards=wl_live.SHARDS)
    service = CoSimRankService(chain.index, max_workers=1)
    chain.attach(service)
    try:
        chain.update_edges(added=batches[0])
        skipped = wl_live.check_final_state(
            chain, service, graph, batches, SEEDS, str(tmp_path / "skipped"))
        assert any("chain graph" in failure for failure in skipped)
        assert any("columns" in failure for failure in skipped)
        chain.update_edges(added=batches[1])
        assert wl_live.check_final_state(
            chain, service, graph, batches, SEEDS, str(tmp_path / "whole")) == []
    finally:
        service.close()
        chain.index.close()


def test_tail_needs_ten_samples_beyond():
    import harness

    assert harness.tail(list(range(100)))[0] == 90.0
    assert harness.tail(list(range(39)))[0] == 50.0
    assert harness.tail(list(range(1000)))[0] == 99.0
