"""Correctness checks, each computed apart from the program under test.

Every check returns a list of human-readable failures (empty = pass),
so a workload can report all of them at once.  None compares against a
stored copy of earlier output: references are either recomputed here
from first principles or are properties the method must have.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

#: Relative residual allowed on the singular-pair identity
#: ``Q^T L = R diag(sigma)`` (ARPACK converges to ~machine precision).
SVD_PAIR_RTOL = 1e-8


def left_factor(q_matrix, right: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Left singular vectors recovered from the right ones: ``Q R / sigma``."""
    return np.asarray(q_matrix @ right) / sigma[np.newaxis, :]


def check_singular_pairs(
    q_matrix, left: np.ndarray, right: np.ndarray, sigma: np.ndarray
) -> List[str]:
    """``(left, sigma, right)`` are singular triplets of ``Q``.

    ``Q R = L diag(sigma)`` holds by construction of ``left``; this
    checks the other half, ``Q^T L = R diag(sigma)``, and that ``L`` is
    orthonormal — which together make ``L diag(sigma) R^T`` a genuine
    rank-r piece of the SVD of ``Q``.
    """
    failures: List[str] = []
    residual = np.asarray(q_matrix.T @ left) - right * sigma[np.newaxis, :]
    scale = float(np.abs(sigma).max()) or 1.0
    worst = float(np.abs(residual).max()) / scale
    if not worst <= SVD_PAIR_RTOL:
        failures.append(f"Q^T L != R sigma: relative residual {worst:.3e}")
    gram = left.T @ left
    off = float(np.abs(gram - np.eye(gram.shape[0])).max())
    if not off <= SVD_PAIR_RTOL * gram.shape[0]:
        failures.append(f"left factor not orthonormal: max |L^T L - I| {off:.3e}")
    return failures


#: Largest tail ``c^K / (1 - c)`` the oracle's truncated series may drop.
SERIES_TAIL = 1e-15


def series_terms(damping: float) -> int:
    """Terms ``K`` after which the series tail ``c^K / (1 - c)`` is below ``SERIES_TAIL``."""
    return int(math.ceil(math.log(SERIES_TAIL * (1.0 - damping)) / math.log(damping)))


def oracle_atol(rank: int) -> float:
    """Allowed gap between a CSR+ column and the power-series oracle.

    Both evaluate the same rank-r series in different summation orders,
    so they may differ by the repo's published two-order rounding bound
    ``64 * r * eps`` (``batched_query_atol``) plus the dropped tail.
    """
    return 64.0 * max(1, int(rank)) * float(np.finfo(np.float64).eps) + SERIES_TAIL


def power_series_columns(
    left: np.ndarray,
    sigma: np.ndarray,
    right: np.ndarray,
    seeds: Sequence[int],
    damping: float,
    terms: int,
) -> np.ndarray:
    """``sum_{k=0}^{K} c^k (Q_r^T)^k Q_r^k e_q`` for each seed, ``Q_r = L diag(sigma) R^T``.

    Evaluated term by term with Horner's rule (``u_K = x_K``,
    ``u_j = x_j + c Q_r^T u_{j+1}``, ``x_j = Q_r^j e_q``), keeping every
    vector in the basis ``{e_q} + span(L) + span(R)``: ``x_j = L a_j``
    and ``u_j = L a_j + R b_j`` for ``j >= 1``.  No Stein equation is
    solved and no ``Z`` is assembled.
    """
    gram_ll = left.T @ left
    gram_lr = left.T @ right
    out = np.empty((left.shape[0], len(seeds)), dtype=np.float64, order="F")
    for j, seed in enumerate(seeds):
        coeffs = [None, sigma * right[int(seed), :]]  # a_1 (x_1 = L a_1)
        for _ in range(2, terms + 1):
            # x_{j+1} = Q_r x_j = L (sigma * (R^T L a_j))
            coeffs.append(sigma * (gram_lr.T @ coeffs[-1]))
        b_next = np.zeros_like(sigma)  # b_K = 0, u_K = L a_K
        for step in range(terms - 1, 0, -1):
            # u_step = x_step + c Q_r^T u_{step+1}
            b_next = damping * sigma * (gram_ll @ coeffs[step + 1] + gram_lr @ b_next)
        # u_0 = e_q + c Q_r^T u_1
        gamma = damping * sigma * (gram_ll @ coeffs[1] + gram_lr @ b_next)
        column = right @ gamma
        column[int(seed)] += 1.0
        out[:, j] = column
    return out


def check_close(
    actual: np.ndarray, expected: np.ndarray, atol: float, what: str
) -> List[str]:
    """Every entry within ``atol`` (NaN fails)."""
    failures: List[str] = []
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != {expected.shape}"]
    diff = np.abs(np.asarray(actual, dtype=np.float64) - expected)
    worst = float(diff.max()) if diff.size else 0.0
    if not worst <= atol:
        failures.append(f"{what}: max |diff| {worst:.3e} > {atol:.3e}")
    return failures


def check_symmetric_block(
    block: np.ndarray, seeds: Sequence[int], atol: float
) -> List[str]:
    """``S[Q, Q]`` from an ``n x |Q|`` exact block: symmetric, diagonal >= 1."""
    failures: List[str] = []
    seeds = np.asarray(seeds, dtype=np.int64)
    square = np.asarray(block[seeds, :], dtype=np.float64)
    asym = float(np.abs(square - square.T).max()) if square.size else 0.0
    if not asym <= atol:
        failures.append(f"S not symmetric on sampled pairs: {asym:.3e} > {atol:.3e}")
    diag = np.diag(square)
    if diag.size and not float(diag.min()) >= 1.0 - atol:
        failures.append(f"diag(S) < 1: min {float(diag.min())!r}")
    return failures


def expected_topk(column: np.ndarray, seed: int, k: int):
    """Nodes and scores of the top-``k`` of a column, the seed itself
    left out, in ``(-score, id)`` order."""
    ids = np.arange(column.size, dtype=np.int64)
    keep = ids != int(seed)
    ids, column = ids[keep], column[keep]
    order = np.lexsort((ids, -column))[:k]
    return ids[order], column[order]


def check_topk(
    nodes: np.ndarray,
    scores: np.ndarray,
    column: np.ndarray,
    seed: int,
    k: int,
) -> List[str]:
    """A top-k answer equals the ``(-score, id)`` order of the exact column,
    node for node and bit for bit."""
    want_nodes, want_scores = expected_topk(column, seed, k)
    if not np.array_equal(np.asarray(nodes), want_nodes):
        return [f"top-{k} of seed {seed}: nodes differ from the exact column's order"]
    if not np.array_equal(np.asarray(scores), want_scores):
        return [f"top-{k} of seed {seed}: scores differ from the exact column"]
    return []


def check_identical(actual: np.ndarray, expected: np.ndarray, what: str) -> List[str]:
    """Bit-identical arrays (same shape, dtype and bytes)."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.dtype != expected.dtype or actual.shape != expected.shape:
        return [f"{what}: {actual.dtype}{actual.shape} vs {expected.dtype}{expected.shape}"]
    if not np.array_equal(actual, expected):
        differing = int(np.count_nonzero(actual != expected))
        return [f"{what}: {differing} entries differ"]
    return []
