"""Shared machinery of the benchmark: spans, statistics, request rounds.

Only :func:`request_rounds` imports the program under test (its Zipf
popularity); the workload modules do the rest.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Percentile ladder for tail latencies: the reported tail is the
#: highest rung that still has at least ``TAIL_MIN_BEYOND`` samples
#: beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

# ----------------------------------------------------------------------
# traffic of the two serving workloads (http-serving, live-updates)
# ----------------------------------------------------------------------
#: Seeds per column request and the skew of seed popularity: the
#: defaults of ``repro.serving.loadgen.LoadProfile``.
COL_SEEDS = 4
ZIPF_SKEW = 1.1
TOPK = 10
#: Rounds per second in both serving workloads.  Rounds are paced, so
#: every run makes the same requests (in a closed loop the cache fill,
#: and so the peak RSS and the hit ratios, followed how fast the host
#: ran), and each request is timed from its own start, not from when it
#: fell due, so a stall is not charged again to the requests behind it.
ROUND_RATE = 10.0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer, recorded by the benchmark itself."""

    span_id: int
    name: str
    start: float
    parent: Optional[int]
    request_id: Optional[str] = None
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder; a disabled tracer records nothing.

    Spans nest per thread (the innermost open span is the parent), or
    take an explicit parent.  They stay in memory until :meth:`write`.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(
        self,
        name: str,
        request_id: Optional[str] = None,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            span_id, name, time.perf_counter(),
            parent.span_id if parent is not None else None,
            request_id, attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, start: float, end: float, parent: Optional[Span] = None) -> None:
        """Record a span measured elsewhere (a scraped program span)."""
        if not self.enabled:
            return
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(Span(
                span_id, name, start,
                parent.span_id if parent is not None else None, end=end,
            ))

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (count, total s, self s)``.

        Self time is a span's duration minus the part of its interval
        that its child spans cover (overlapping children counted once).
        """
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        table: Dict[str, List[float]] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo = max(child.start, cursor, span.start)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += span.duration - covered
        return {name: (int(c), t, s) for name, (c, t, s) in table.items()}

    def write(self, path: str) -> None:
        """Dump every span as JSON: name, start, end, parent, request id."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "spans": [
                {
                    "id": span.span_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request_id": span.request_id,
                    **({"attrs": span.attrs} if span.attrs else {}),
                }
                for span in sorted(self.spans, key=lambda s: (s.start, s.span_id))
            ]
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)

    def render_table(self) -> str:
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        lines = [f"{'span':<34} {'count':>7} {'total s':>10} {'self s':>10}"]
        for name, (count, total, self_s) in rows:
            lines.append(f"{name:<34} {count:>7} {total:>10.4f} {self_s:>10.4f}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(rung, value)`` of the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it (the median when none has)."""
    count = len(values)
    best = 50.0
    for rung in TAIL_LADDER:
        if count * (100.0 - rung) / 100.0 >= TAIL_MIN_BEYOND:
            best = rung
    return best, percentile(values, best)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# request rounds
# ----------------------------------------------------------------------
def draw_seeds(
    rng: np.random.Generator, popularity: np.ndarray, count: int
) -> Tuple[int, ...]:
    """``count`` distinct seeds drawn with probabilities ``popularity``."""
    picked = rng.choice(popularity.size, size=count, replace=False, p=popularity)
    return tuple(int(node) for node in picked)


def request_rounds(rng: np.random.Generator, num_nodes: int, seconds: float):
    """The ``seconds * ROUND_RATE`` rounds of a run, each one
    ``COL_SEEDS``-seed column request and one top-k seed, drawn
    Zipf-skewed over a seeded permutation of the nodes (the program's
    ``repro.serving.loadgen.zipf_probabilities``)."""
    from repro.serving.loadgen import zipf_probabilities

    popularity = zipf_probabilities(num_nodes, ZIPF_SKEW, rng)
    return [(draw_seeds(rng, popularity, COL_SEEDS), draw_seeds(rng, popularity, 1)[0])
            for _ in range(int(seconds * ROUND_RATE))]


# ----------------------------------------------------------------------
# Prometheus text scraping
# ----------------------------------------------------------------------
def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` -> value, summing series that differ only in the
    ``worker`` label (per-worker snapshots merged by name)."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            key, raw = line.rsplit(" ", 1)
            value = float(raw)
        except ValueError:
            continue
        name = key.split("{", 1)[0]
        labels = key[len(name):]
        if labels:
            kept = [
                part for part in labels.strip("{}").split(",")
                if part and not part.startswith("worker=")
            ]
            key = name + ("{" + ",".join(kept) + "}" if kept else "")
        values[key] = values.get(key, 0.0) + value
    return values


def histogram_mean(before: Dict[str, float], after: Dict[str, float], name: str) -> float:
    """Mean of a Prometheus histogram's observations between two scrapes."""
    total = after.get(name + "_sum", 0.0) - before.get(name + "_sum", 0.0)
    count = after.get(name + "_count", 0.0) - before.get(name + "_count", 0.0)
    return total / count if count > 0 else float("nan")


def delta(before: Dict[str, float], after: Dict[str, float], name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)
