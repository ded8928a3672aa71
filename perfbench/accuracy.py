"""Reference figure: rank-r CSR+ columns against true CoSimRank (CSR-RLS).

    python3 perfbench/accuracy.py

Rank-32 CSR+ on the WB stand-in (the batch-multisource graph), 8 seeds.

CSR-RLS (``repro.baselines.rls``, the linearization of Kusumoto, Maehara
and Kawarabayashi) computes a full-rank single-source column with
``2K`` sparse products; ``K`` is chosen so the dropped tail
``c^K / (1 - c)`` is below 1e-12.  The figure is recorded in README.md
as a reference, not checked by the benchmark: it measures the rank-r
truncation the method makes on purpose, not a fault.
"""

from __future__ import annotations

import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


DATASET = ("WB", "bench")
RANK = 32
SEEDS = 8
SEED = 1


def main() -> int:
    import numpy as np

    from repro.baselines.rls import CSRRLSEngine
    from repro.core.index import CSRPlusIndex
    from repro.datasets.registry import load_dataset
    from repro.metrics.accuracy import avg_diff, max_diff

    graph = load_dataset(*DATASET)
    seeds = np.random.default_rng([SEED, 5]).choice(graph.num_nodes, SEEDS, replace=False)
    started = time.perf_counter()
    index = CSRPlusIndex(graph, rank=RANK).prepare()
    estimate = index.query_columns(seeds)
    damping = index.damping
    iterations = int(math.ceil(math.log(1e-12 * (1.0 - damping)) / math.log(damping)))
    reference = CSRRLSEngine(graph, damping=damping, iterations=iterations).prepare().query(seeds)
    print(
        f"{'/'.join(DATASET)} n={graph.num_nodes} m={graph.num_edges} "
        f"rank={RANK} seeds={SEEDS} RLS K={iterations}: "
        f"AvgDiff {avg_diff(estimate, reference):.3e}, "
        f"max |diff| {max_diff(estimate, reference):.3e} "
        f"({time.perf_counter() - started:.1f} s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
