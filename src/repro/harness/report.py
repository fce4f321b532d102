"""Plain-text and CSV rendering of experiment results.

Every experiment in :mod:`repro.harness.experiments` returns a dictionary of
rows or series; these helpers turn them into aligned text tables (what the
benchmark harness prints) and CSV files (what a plotting script would
consume), so the repository needs no plotting dependency.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def series_to_csv(series: Mapping[object, Mapping[str, object]], x_name: str = "x") -> str:
    """Render a {x: {column: value}} mapping as CSV text."""
    columns: List[str] = []
    for row in series.values():
        for key in row:
            if key not in columns:
                columns.append(key)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([x_name, *columns])
    for x, row in series.items():
        writer.writerow([x, *[row.get(c, "") for c in columns]])
    return out.getvalue()


def format_collective_report(metrics, title: str = "MPI collectives") -> str:
    """Render the per-collective counters of a :class:`MetricsRegistry`.

    One row per collective: rank-call count (each rank's participation counts
    once, so a p-rank bcast shows p calls), payload bytes through each rank's
    buffers summed over ranks, and the algorithms the decision layer chose
    (with per-algorithm rank-call counts).  Returns an empty string when the
    job ran no collectives.
    """
    summary = metrics.collective_summary()
    if not summary:
        return ""
    rows = []
    for collective, entry in summary.items():
        algorithms = " ".join(
            f"{name}:{count}" for name, count in sorted(entry["algorithms"].items())
        )
        rows.append([collective, entry["calls"], entry["bytes"], algorithms])
    return format_table(["collective", "calls", "bytes", "algorithms"], rows, title=title)


def format_cache_report(metrics, title: str = "AoT compilation cache") -> str:
    """Render the embedder's compilation-cache counters.

    One row summarising hits (split by the tier that served them: the
    session's in-memory tier vs the shared on-disk cache), misses and the
    hit rate across every rank's compile step (ranks after the first hit
    the shared artifact, §3.3).  Returns an empty string when no cache
    lookups were recorded.
    """
    summary = metrics.cache_summary()
    if not summary["hits"] and not summary["misses"]:
        return ""
    rows = [[summary["hits"], summary.get("hits_memory", 0),
             summary.get("hits_fs", 0), summary["misses"],
             f"{summary['hit_rate']:.1%}"]]
    return format_table(["hits", "mem", "fs", "misses", "hit rate"], rows, title=title)


def format_campaign_report(result, title: str = "") -> str:
    """Render a :class:`repro.harness.campaign.CampaignResult` as text.

    One row per job (status, wall time, virtual makespan, per-job AoT-cache
    lookups) followed by the campaign totals: job/failure counts, wall-clock,
    and the sum of the jobs' cache counters -- the line that shows each
    distinct guest module was compiled exactly once across the worker pool.
    """
    rows = []
    for outcome in result.outcomes:
        cache = outcome.cache_events()
        rows.append([
            outcome.job_id,
            outcome.status,
            f"{outcome.wall_seconds:.3f}",
            f"{outcome.makespan * 1e6:.1f}" if outcome.makespan is not None else "-",
            f"{cache['hits']}/{cache['misses']}" if (cache["hits"] or cache["misses"]) else "-",
        ])
    table = format_table(
        ["job", "status", "wall (s)", "makespan (us)", "cache h/m"],
        rows,
        title=title or f"campaign {result.name!r} ({result.workers} worker(s))",
    )
    stats = result.cache_stats
    lines = [
        table,
        f"jobs: {len(result.outcomes)} total, {len(result.errors)} failed; "
        f"wall-clock {result.wall_seconds:.3f}s",
        f"shared AoT cache: {stats.get('hits', 0)} hits, {stats.get('misses', 0)} misses, "
        f"{stats.get('compiles', 0)} compiles "
        f"({len(set(result.compiled_modules))} distinct modules)",
    ]
    return "\n".join(lines)


def rows_to_csv(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render header + rows as CSV text."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    return out.getvalue()


def geometric_mean_ratio(numerators: Mapping, denominators: Mapping) -> float:
    """Geometric mean of pointwise ratios over the shared keys."""
    import math

    keys = [k for k in numerators if k in denominators and denominators[k] > 0 and numerators[k] > 0]
    if not keys:
        return 0.0
    return math.exp(sum(math.log(numerators[k] / denominators[k]) for k in keys) / len(keys))
