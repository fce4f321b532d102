"""Lightweight counters, timers, and histograms shared across the stack.

The embedder instruments its translation layers (Figure 6 measures the MPI
datatype translation latency by instrumenting the Send path); the metrics
registry is where those instrumented samples are collected without the
callers having to know who consumes them.

Sample series keep *exact* count/sum/min/max/mean/stddev/geometric-mean
via running accumulators (Welford's M2 for variance, running log-sums for
the geometric mean) while storing only a bounded reservoir of raw samples
(Vitter's Algorithm R with a per-series fixed-seed RNG, so campaign
fingerprints stay deterministic).  Percentiles (p50/p95/p99) come from the
reservoir: exact until ``reservoir_size`` samples, a uniform-sample
estimate beyond.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

RESERVOIR_SIZE = 1024


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


class SampleSeries:
    """Accumulates scalar samples and exposes summary statistics.

    Memory is bounded: exact moments are maintained incrementally and only
    ``reservoir_size`` raw samples are retained for percentile estimation,
    so arbitrarily long campaigns cannot grow a series without bound.
    """

    __slots__ = ("reservoir_size", "_count", "_total", "_min", "_max",
                 "_mean", "_m2", "_log_sum", "_log_count", "_reservoir", "_rng")

    def __init__(self, reservoir_size: int = RESERVOIR_SIZE):
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be >= 1, got {reservoir_size}")
        self.reservoir_size = reservoir_size
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0
        self._log_sum = 0.0
        self._log_count = 0
        self._reservoir: List[float] = []
        # Fixed seed: reservoir contents (and hence percentile estimates and
        # campaign fingerprints) are a pure function of the sample stream.
        self._rng = random.Random(0x5EED)

    def add(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value > 0:
            self._log_sum += math.log(value)
            self._log_count += 1
        self._reservoir_insert(value)

    def _reservoir_insert(self, value: float) -> None:
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    # ------------------------------------------------------------- statistics

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return self._total

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 if empty)."""
        return self._mean if self._count else 0.0

    @property
    def minimum(self) -> float:
        """Smallest sample (0.0 if empty)."""
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample (0.0 if empty)."""
        return self._max if self._count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation (0.0 with fewer than two samples)."""
        if self._count < 2:
            return 0.0
        return math.sqrt(max(self._m2, 0.0) / self._count)

    @property
    def values(self) -> List[float]:
        """The retained reservoir samples (all samples while under the cap)."""
        return list(self._reservoir)

    def geometric_mean(self) -> float:
        """Geometric mean of strictly positive samples (0.0 if none)."""
        if not self._log_count:
            return 0.0
        return math.exp(self._log_sum / self._log_count)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile from the reservoir (0.0 if empty)."""
        return _percentile(sorted(self._reservoir), q)

    def summary(self) -> Dict[str, float]:
        """Dictionary summary used in harness reports."""
        ordered = sorted(self._reservoir)
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "stddev": self.stddev,
            "p50": _percentile(ordered, 50.0),
            "p95": _percentile(ordered, 95.0),
            "p99": _percentile(ordered, 99.0),
        }

    # ---------------------------------------------------------------- merging

    def merge(self, other: "SampleSeries") -> None:
        """Fold another series into this one; exact stats stay exact."""
        self.merge_state(other._count, other._total, other._min, other._max,
                         other._mean, other._m2, other._log_sum,
                         other._log_count, other._reservoir)

    def merge_state(self, count: int, total: float, minimum: float,
                    maximum: float, mean: float, m2: float, log_sum: float,
                    log_count: int, reservoir: Iterable[float]) -> None:
        """Combine running accumulators (Chan et al. parallel variance) and
        fold the other side's reservoir through this series' sampler."""
        if count <= 0:
            return
        if self._count == 0:
            self._count = int(count)
            self._total = float(total)
            self._min = float(minimum)
            self._max = float(maximum)
            self._mean = float(mean)
            self._m2 = float(m2)
            self._log_sum = float(log_sum)
            self._log_count = int(log_count)
            for value in reservoir:
                self._reservoir_insert(float(value))
            return
        delta = float(mean) - self._mean
        combined = self._count + int(count)
        self._m2 = self._m2 + float(m2) + delta * delta * self._count * int(count) / combined
        self._mean = (self._total + float(total)) / combined
        self._count = combined
        self._total += float(total)
        self._min = min(self._min, float(minimum))
        self._max = max(self._max, float(maximum))
        self._log_sum += float(log_sum)
        self._log_count += int(log_count)
        for value in reservoir:
            self._reservoir_insert(float(value))

    # -------------------------------------------------------------- snapshots

    def state(self) -> Dict[str, object]:
        """Plain-data accumulator state (the per-series snapshot payload)."""
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "mean": self._mean,
            "m2": self._m2,
            "log_sum": self._log_sum,
            "log_count": self._log_count,
            "reservoir": list(self._reservoir),
        }

    def merge_snapshot_state(self, state) -> None:
        """Fold a snapshot payload: the bounded dict form from :meth:`state`,
        or the pre-reservoir list-of-values form (still accepted so snapshots
        written by older runs keep loading)."""
        if isinstance(state, dict):
            self.merge_state(
                int(state.get("count", 0)),
                float(state.get("total", 0.0)),
                float(state.get("min", math.inf)),
                float(state.get("max", -math.inf)),
                float(state.get("mean", 0.0)),
                float(state.get("m2", 0.0)),
                float(state.get("log_sum", 0.0)),
                int(state.get("log_count", 0)),
                state.get("reservoir", ()),
            )
        else:
            for value in state:
                self.add(float(value))


class Histogram:
    """Counts of discrete labels (interpreter handler hits, event kinds).

    Unlike :class:`SampleSeries` there is no numeric aggregation -- a
    histogram is a named multiset, merged by adding counts.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def observe(self, label: str, count: int = 1) -> None:
        """Add ``count`` observations of ``label``."""
        self._counts[str(label)] += int(count)

    def count(self, label: str) -> int:
        return self._counts.get(str(label), 0)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def counts(self) -> Dict[str, int]:
        """Labels with counts, most frequent first (ties alphabetical)."""
        return {label: self._counts[label]
                for label in sorted(self._counts, key=lambda k: (-self._counts[k], k))}

    def merge(self, other: "Histogram") -> None:
        for label, count in other._counts.items():
            self._counts[label] += count

    def state(self) -> Dict[str, int]:
        return dict(self._counts)

    def merge_snapshot_state(self, state: Dict[str, int]) -> None:
        for label, count in state.items():
            self._counts[str(label)] += int(count)


class MetricsRegistry:
    """Named counters, sample series, and histograms.

    Counters are plain integers; series are :class:`SampleSeries`;
    histograms are :class:`Histogram`.  Keys are free-form dotted strings,
    e.g. ``"embedder.translation.MPI_INT"``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        self._series: Dict[str, SampleSeries] = defaultdict(SampleSeries)
        self._histograms: Dict[str, Histogram] = defaultdict(Histogram)
        #: (collective, algorithm) -> its three counter names, built once.
        self._collective_keys: Dict[Tuple[str, str], Tuple[str, str, str]] = {}

    # --------------------------------------------------------------- counters

    def increment(self, name: str, amount: int = 1) -> int:
        """Increase counter ``name`` by ``amount`` and return the new value."""
        self._counters[name] += amount
        return self._counters[name]

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counters)

    # ------------------------------------------------------------- collectives

    COLLECTIVE_PREFIX = "mpi.coll."

    def record_collective(self, collective: str, algorithm: str, nbytes: int) -> None:
        """Count one rank's collective invocation: calls, bytes, algorithm.

        The host MPI runtime calls this once *per rank* per collective with
        the algorithm the decision layer picked, so counts aggregated across
        a job are rank-calls (a p-rank bcast records p calls), matching how
        per-rank MPI profiling interfaces count.
        """
        keys = self._collective_keys.get((collective, algorithm))
        if keys is None:
            prefix = f"{self.COLLECTIVE_PREFIX}{collective}"
            keys = self._collective_keys[(collective, algorithm)] = (
                f"{prefix}.calls", f"{prefix}.bytes", f"{prefix}.algo.{algorithm}")
        calls, nbytes_key, algo = keys
        counters = self._counters
        counters[calls] += 1
        counters[nbytes_key] += max(int(nbytes), 0)
        counters[algo] += 1

    def collective_summary(self) -> Dict[str, Dict[str, object]]:
        """Aggregate the per-collective counters back into structured rows.

        Returns ``{collective: {"calls": int, "bytes": int,
        "algorithms": {name: calls}}}`` sorted by collective name.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, value in self._counters.items():
            if not name.startswith(self.COLLECTIVE_PREFIX):
                continue
            collective, _, metric = name[len(self.COLLECTIVE_PREFIX):].partition(".")
            entry = out.setdefault(collective, {"calls": 0, "bytes": 0, "algorithms": {}})
            if metric == "calls":
                entry["calls"] = value
            elif metric == "bytes":
                entry["bytes"] = value
            elif metric.startswith("algo."):
                entry["algorithms"][metric[len("algo."):]] = value  # type: ignore[index]
        return {name: out[name] for name in sorted(out)}

    # ------------------------------------------- non-blocking collective overlap

    NBC_PREFIX = "mpi.nbc."

    def record_nbc_overlap(self, collective: str, overlap: float) -> None:
        """Record one communication/computation overlap sample for one
        non-blocking collective (IMB-NBC's headline metric).

        ``overlap`` is the fraction (0..1) of the collective's pure
        communication time hidden behind the compute phase between the
        ``I<collective>`` post and its wait.
        """
        self.record(f"{self.NBC_PREFIX}{collective}.overlap", min(max(overlap, 0.0), 1.0))

    def nbc_overlap_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-collective overlap statistics, keyed by collective name."""
        suffix = ".overlap"
        out: Dict[str, Dict[str, float]] = {}
        for name in self.series_names(self.NBC_PREFIX):
            if not name.endswith(suffix):
                continue
            collective = name[len(self.NBC_PREFIX):-len(suffix)]
            out[collective] = self._series[name].summary()
        return out

    # ------------------------------------------------------ compilation cache

    CACHE_PREFIX = "wasm.cache."

    #: Prefix of the per-module miss counters: ``wasm.cache.miss.<key>``.
    CACHE_MISS_PREFIX = f"{CACHE_PREFIX}miss."

    def record_cache_event(self, tier: Optional[str], key: Optional[str] = None) -> None:
        """Count one AoT-cache lookup (the embedder calls this per compile).

        ``tier`` is what the lookup returned: the layer that served a hit
        (``"memory"`` or ``"fs"``), or ``None`` on a miss.  A miss also
        counts ``key``, the module it compiled, when one is given.
        """
        if tier is None:
            self.increment(f"{self.CACHE_PREFIX}miss")
            if key is not None:
                self.increment(f"{self.CACHE_MISS_PREFIX}{key}")
        else:
            self.increment(f"{self.CACHE_PREFIX}hit")
            self.increment(f"{self.CACHE_PREFIX}hit.{tier}")

    def cache_summary(self) -> Dict[str, float]:
        """Aggregate the AoT compilation-cache counters.

        Returns ``{"hits", "misses", "hit_rate", "hits_memory", "hits_fs"}``;
        the rate is 0.0 when no lookups were recorded.
        """
        hits = self.counter(f"{self.CACHE_PREFIX}hit")
        misses = self.counter(f"{self.CACHE_PREFIX}miss")
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
            "hits_memory": self.counter(f"{self.CACHE_PREFIX}hit.memory"),
            "hits_fs": self.counter(f"{self.CACHE_PREFIX}hit.fs"),
        }

    # ----------------------------------------------------------------- series

    def record(self, name: str, value: float) -> None:
        """Append ``value`` to series ``name``."""
        self._series[name].add(value)

    def series(self, name: str) -> SampleSeries:
        """Series ``name`` (created empty on first access)."""
        return self._series[name]

    def series_names(self, prefix: str = "") -> List[str]:
        """Names of all series, optionally filtered by prefix."""
        return sorted(k for k in self._series if k.startswith(prefix))

    # ------------------------------------------------------------- histograms

    def observe(self, name: str, label: str, count: int = 1) -> None:
        """Add ``count`` observations of ``label`` to histogram ``name``."""
        self._histograms[name].observe(label, count)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name`` (created empty on first access)."""
        return self._histograms[name]

    def histogram_names(self, prefix: str = "") -> List[str]:
        """Names of all histograms, optionally filtered by prefix."""
        return sorted(k for k in self._histograms if k.startswith(prefix))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters, series, and histograms into
        this one."""
        for name, value in other._counters.items():
            self._counters[name] += value
        for name, series in other._series.items():
            self._series[name].merge(series)
        for name, histogram in other._histograms.items():
            self._histograms[name].merge(histogram)

    # -------------------------------------------------------------- snapshots

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data snapshot that survives pickling across process boundaries.

        The campaign runner ships each job's metrics back from its worker
        process as this structure and folds them into the aggregate registry
        with :meth:`merge_snapshot`.  Series ship their bounded accumulator
        state, not the raw sample list, so the snapshot size is capped.
        """
        snap: Dict[str, Dict[str, object]] = {
            "counters": dict(self._counters),
            "series": {name: s.state() for name, s in self._series.items()},
        }
        if self._histograms:
            snap["histograms"] = {name: h.state() for name, h in self._histograms.items()}
        return snap

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` produced (possibly elsewhere) into this one."""
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] += int(value)
        for name, state in snapshot.get("series", {}).items():
            self._series[name].merge_snapshot_state(state)
        for name, counts in snapshot.get("histograms", {}).items():
            self._histograms[name].merge_snapshot_state(counts)

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Dict[str, object]]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot`."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def reset(self) -> None:
        """Drop all counters, series, and histograms."""
        self._counters.clear()
        self._series.clear()
        self._histograms.clear()

    def report(self, prefix: str = "") -> Dict[str, Dict[str, float]]:
        """Summaries of every series matching ``prefix``."""
        return {name: self._series[name].summary() for name in self.series_names(prefix)}


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of an iterable of strictly positive values."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
