"""The per-layer metrics every workload reports, each on its own index.

Every workload prepares an index in process (a monolithic CSR+ index, a
sharded store, or a live chain) and answers column and top-k requests
from it, so the set-up layers and the query kernels exist in all three.
A traced run times each set-up's index build and ``transition_matrix``,
and re-runs a sample of the workload's own requests straight against
its index; that gives the same metric names, in the same units,
everywhere.  The layers only one workload has (the SVD/Stein/assemble
stages of a monolithic prepare, wire, IPC, HTTP, cache, shard repair)
are printed by that workload's traced run instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence

import numpy as np

from harness import Tracer, median, parse_prometheus

#: name -> unit of the per-layer metrics, in ``BENCHMARK.json``'s order.
PER_LAYER = {
    "graphs.transition_s": "s",
    "index.build_s": "s",
    "core.memory.peak_mb": "MB",
    "core.index.exact_ms_per_column": "ms",
    "core.index.batched_ms_per_column": "ms",
    "core.topk.ms_per_seed": "ms",
    "core.topk.candidates_per_seed": "count",
}

#: Stages of a monolithic ``prepare`` (the sharded builders run their
#: own SVD and emit no such spans), reported where they exist.
_PREPARE_STAGES = {"prepare.svd": "linalg.svd_s", "prepare.stein": "linalg.stein_s",
                   "prepare.assemble": "core.index.assemble_s"}


class SetupLayers:
    """Layer times of every set-up of a run.

    Wrap the program's index build (``CSRPlusIndex.prepare``,
    ``build_sharded_store`` or the ``LiveIndexChain`` constructor) in
    :meth:`build`, and call :meth:`end` after the set-up.  ``end`` grafts
    the program's ``prepare.*`` spans, where there are any, and times
    ``transition_matrix`` on the workload's graph; a disabled tracer
    makes it a no-op.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.times: Dict[str, List[float]] = {"graphs.transition_s": [], "index.build_s": []}
        self._epoch = 0.0

    @contextmanager
    def build(self) -> Iterator[None]:
        if self.tracer.enabled:
            import repro.obs as obs

            obs.get_tracer().reset()
            self._epoch = time.perf_counter()
        started = time.perf_counter()
        with self.tracer.span("index.build"):
            yield
        self.times["index.build_s"].append(time.perf_counter() - started)

    def end(self, outer, graph) -> None:
        if not self.tracer.enabled:
            return
        import repro.obs as obs
        from repro.graphs.transition import transition_matrix

        records = [root.as_dict() for root in obs.get_tracer().roots()]
        for record in _named(records, "prepare"):
            for child in record["children"]:
                start = self._epoch + child["start_seconds"]
                self.tracer.add(child["name"], start, start + child["wall_seconds"], parent=outer)
                if child["name"] in _PREPARE_STAGES:
                    self.times.setdefault(_PREPARE_STAGES[child["name"]], []).append(
                        child["wall_seconds"])
        with self.tracer.span("graphs.transition") as span:
            transition_matrix(graph)
        self.times["graphs.transition_s"].append(span.duration)

    def metrics(self) -> Dict[str, tuple]:
        return {name: (median(values), "s") for name, values in self.times.items()}


def _named(records, name):
    for record in records:
        if record["name"] == name:
            yield record
        yield from _named(record["children"], name)


def ledger_peak_mb() -> float:
    """The largest peak of the program's memory ledgers in this process
    (``CSR+`` for a monolithic prepare, ``shard-build`` for a store)."""
    import repro.obs as obs

    gauges = parse_prometheus(obs.get_registry().render_prometheus())
    peaks = [value for key, value in gauges.items()
             if key.startswith("csrplus_memory_peak_bytes{")]
    return max(peaks) / 1e6 if peaks else float("nan")


def kernel_metrics(index, column_sets: Sequence[Sequence[int]], topk_seeds: Sequence[int],
                   k: int, tracer: Tracer) -> Dict[str, tuple]:
    """Exact, batched and top-k kernels timed straight on ``index`` over
    the workload's own requests, plus the program's memory ledger."""
    from repro.core.topk import top_k_blockwise

    spent = {"exact": 0.0, "batched": 0.0}
    columns = 0
    for seeds in column_sets:
        for mode in spent:
            with tracer.span(f"core.index.{mode}", seeds=len(seeds)) as span:
                index.query_columns(list(seeds), mode=mode)
            spent[mode] += span.duration
        columns += len(seeds)
    with tracer.span("core.topk.top_k_blockwise", seeds=len(topk_seeds)) as span:
        results = top_k_blockwise(index, np.asarray(topk_seeds, dtype=np.int64), k)
    return {
        "core.memory.peak_mb": (ledger_peak_mb(), "MB"),
        "core.index.exact_ms_per_column": (1e3 * spent["exact"] / columns, "ms"),
        "core.index.batched_ms_per_column": (1e3 * spent["batched"] / columns, "ms"),
        "core.topk.ms_per_seed": (1e3 * span.duration / len(topk_seeds), "ms"),
        "core.topk.candidates_per_seed": (
            float(np.mean([result.candidates_scored for result in results])), "count"),
    }
