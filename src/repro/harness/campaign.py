"""Parallel experiment campaign runner.

The paper's evaluation is a large matrix of (benchmark x backend x rank-count
x machine) jobs, every one of them independent.  This module turns a
declarative *scenario matrix* into a job list and executes it either serially
in-process (the default, fully deterministic path) or on a
:mod:`multiprocessing` worker pool with per-job process isolation:

* every job gets a deterministic seed derived from the campaign seed and the
  job id, so the serial and parallel paths produce identical results,
* a failed job yields a structured error record (type, message, traceback)
  instead of killing the campaign,
* every worker process owns **one warm** :class:`repro.api.Session` for the
  whole campaign, so an N-repeat sweep compiles each distinct module once per
  worker even with the on-disk cache disabled (``"cache_dir": false`` in the
  spec) -- and the session's in-memory tier skips the disk round-trip on
  repeat jobs when the disk cache *is* enabled,
* all workers additionally share one on-disk AoT compilation cache
  (:class:`repro.wasm.compilers.cache.FileSystemCache`), whose per-key locks
  and atomic publishes guarantee each distinct guest module is compiled
  exactly once across the pool,
* per-job metrics ship back as plain snapshots and are folded into one
  aggregate :class:`~repro.sim.metrics.MetricsRegistry`, and the whole
  campaign serialises to a machine-readable ``campaign.json``.

Spec format (a mapping; JSON and -- when PyYAML is installed -- YAML files
are accepted by :meth:`CampaignSpec.from_file`)::

    {
      "name": "fig5-class-sweep",
      "seed": 7,
      "benchmarks": [                       # matrix entries; scalars or lists
        {"benchmark": ["allreduce", "alltoall"],
         "mode": ["wasm", "native"],
         "backend": "cranelift",
         "nranks": [2, 4],
         "machine": "graviton2",
         "algorithms": {"allreduce": "ring"},
         "repeats": 2}
      ],
      "experiments": [                      # figure/table drivers
        {"experiment": "figure5"},
        {"experiment": "figure6", "params": {"functional": false}}
      ]
    }

Every list-valued field of a ``benchmarks`` entry is swept as one matrix
axis; ``repeats`` replicates each expanded point with distinct seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.registry import BACKENDS, MODES
from repro.obs import trace as _trace
from repro.sim.metrics import MetricsRegistry

#: Keys understood in a ``benchmarks`` matrix entry.
_BENCHMARK_KEYS = {"benchmark", "mode", "backend", "nranks", "machine", "algorithms", "repeats"}
#: Keys understood in an ``experiments`` entry.
_EXPERIMENT_KEYS = {"experiment", "params", "repeats"}

#: Metric prefixes excluded from the determinism fingerprint: which worker
#: wins the compile race (and therefore records the miss) is scheduling-
#: dependent, while every other metric is fixed by the simulation.
_FINGERPRINT_EXCLUDE = (MetricsRegistry.CACHE_PREFIX, "wasm.compile_seconds")

#: Result keys carrying host wall-clock measurements (table1's compile times
#: and kernel throughput); stripped from fingerprints for the same reason.
_WALL_CLOCK_KEYS = frozenset({"compile_ms", "kernel_mflops", "compile_seconds"})


def _strip_wall_clock(obj: object) -> object:
    """Recursively drop wall-clock-measured fields from a driver result."""
    if isinstance(obj, Mapping):
        return {k: _strip_wall_clock(v) for k, v in obj.items() if k not in _WALL_CLOCK_KEYS}
    if isinstance(obj, (list, tuple)):
        return [_strip_wall_clock(v) for v in obj]
    return obj


# ------------------------------------------------------------------ job specs


@dataclass(frozen=True)
class JobSpec:
    """One fully-expanded campaign job (immutable, picklable)."""

    kind: str                                 # "benchmark" or "experiment"
    name: str                                 # benchmark or experiment name
    mode: str = "wasm"                        # benchmark jobs: wasm | native
    backend: str = "cranelift"                # benchmark jobs, wasm mode
    nranks: int = 2
    machine: str = "graviton2"
    algorithms: Tuple[Tuple[str, str], ...] = ()   # forced collective algos
    params: Tuple[Tuple[str, object], ...] = ()    # experiment driver kwargs
    repeat: int = 0

    @property
    def job_id(self) -> str:
        """Stable human-readable identifier (also the seed-derivation input)."""
        if self.kind == "experiment":
            parts = [self.name]
            if self.params:
                parts.append(",".join(f"{k}={v}" for k, v in self.params))
        else:
            parts = [self.name, self.mode]
            if self.mode == "wasm":
                parts.append(self.backend)
            parts.append(f"np{self.nranks}")
            parts.append(self.machine)
            if self.algorithms:
                parts.append(",".join(f"{c}:{a}" for c, a in self.algorithms))
        return "/".join(parts) + f"#r{self.repeat}"

    def seed(self, campaign_seed: int) -> int:
        """Deterministic per-job seed: identical in serial and parallel runs."""
        h = hashlib.blake2b(digest_size=8)
        h.update(str(campaign_seed).encode("ascii"))
        h.update(b"\x00")
        h.update(self.job_id.encode("utf-8"))
        return int.from_bytes(h.digest(), "big")

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form used in ``campaign.json``."""
        out: Dict[str, object] = {"kind": self.kind, "name": self.name, "repeat": self.repeat}
        if self.kind == "benchmark":
            out.update(mode=self.mode, nranks=self.nranks, machine=self.machine)
            if self.mode == "wasm":
                out["backend"] = self.backend
            if self.algorithms:
                out["algorithms"] = dict(self.algorithms)
        elif self.params:
            out["params"] = dict(self.params)
        return out


@dataclass
class JobOutcome:
    """Result (or structured failure record) of one campaign job."""

    job_id: str
    spec: JobSpec
    seed: int
    status: str = "ok"                        # "ok" or "error"
    wall_seconds: float = 0.0
    makespan: Optional[float] = None          # benchmark jobs: virtual seconds
    exit_codes: List[int] = field(default_factory=list)
    return_values: List[object] = field(default_factory=list)
    result: object = None                     # experiment jobs: driver output
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    error: Optional[Dict[str, str]] = None    # {"type", "message", "traceback"}
    #: Recorder snapshot when the job ran with tracing on.  Deliberately
    #: excluded from :meth:`fingerprint` (spans carry wall-clock readings)
    #: and from :meth:`to_dict` (the merged campaign timeline is exported
    #: separately; per-job raw events would bloat ``campaign.json``).
    trace: Optional[dict] = None
    #: Fingerprint recorded in the journal at completion time.  Restored
    #: outcomes honor it verbatim: recomputing from JSON-round-tripped fields
    #: would not survive repr-encoded values, and the journal's digest *is*
    #: the original run's.
    stored_fingerprint: Optional[str] = None
    #: True when this outcome was restored from a resume journal instead of
    #: executed (``campaign --resume`` re-runs only unfinished jobs).
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def cache_events(self) -> Dict[str, int]:
        """This job's AoT-cache lookups, read back from its metrics snapshot."""
        counters = self.metrics.get("counters", {})
        prefix = MetricsRegistry.CACHE_PREFIX
        return {
            "hits": int(counters.get(f"{prefix}hit", 0)),
            "misses": int(counters.get(f"{prefix}miss", 0)),
        }

    def missed_modules(self) -> List[str]:
        """Keys of the modules this job's lookups missed (and so compiled)."""
        prefix = MetricsRegistry.CACHE_MISS_PREFIX
        return [name[len(prefix):] for name in self.metrics.get("counters", {})
                if name.startswith(prefix)]

    def fingerprint(self) -> str:
        """Digest of everything deterministic about this job's outcome.

        Serial and parallel executions of the same campaign must agree on
        every fingerprint; cache hit/miss counters and host wall-clock
        measurements (compile times, table1's kernel throughput) are
        excluded because they depend on scheduling and host load, not on
        the simulation.
        """
        if self.stored_fingerprint is not None:
            return self.stored_fingerprint
        counters = {
            k: v for k, v in self.metrics.get("counters", {}).items()
            if not k.startswith(_FINGERPRINT_EXCLUDE)
        }
        series = {
            k: v for k, v in self.metrics.get("series", {}).items()
            if not k.startswith(_FINGERPRINT_EXCLUDE)
        }
        payload = json.dumps(
            {
                "job_id": self.job_id,
                "status": self.status,
                "makespan": self.makespan,
                "exit_codes": self.exit_codes,
                "return_values": self.return_values,
                "result": _strip_wall_clock(self.result),
                "counters": counters,
                "series": series,
                "error_type": (self.error or {}).get("type"),
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form used in ``campaign.json``."""
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "makespan": self.makespan,
            "exit_codes": self.exit_codes,
            "return_values": self.return_values,
            "result": self.result,
            "cache": self.cache_events(),
            "metrics_counters": self.metrics.get("counters", {}),
            "error": self.error,
            "fingerprint": self.fingerprint(),
            "resumed": self.resumed,
        }


# ------------------------------------------------------------------ the spec


def _as_tuple(value: object) -> Tuple[object, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _algorithm_variants(value: object) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
    """Normalise the ``algorithms`` field into sweepable variants.

    A mapping is one variant; a list of mappings is one variant per entry
    (so overrides can be swept as a matrix axis, like the algosweep driver).
    """
    if value is None:
        return ((),)
    if isinstance(value, Mapping):
        return (tuple(sorted(value.items())),)
    if isinstance(value, (list, tuple)):
        variants = []
        for entry in value:
            if not isinstance(entry, Mapping):
                raise ValueError(f"algorithms list entries must be mappings, got {entry!r}")
            variants.append(tuple(sorted(entry.items())))
        return tuple(variants) or ((),)
    raise ValueError(f"algorithms must be a mapping or list of mappings, got {value!r}")


@dataclass
class CampaignSpec:
    """Declarative scenario matrix; :meth:`expand` yields the job list.

    ``cache_dir`` may be a directory path (shared on-disk AoT cache),
    ``None`` (fall back to the resolved configuration's ``cache_dir`` -- i.e.
    ``$REPRO_CACHE_DIR`` -- or a private temp dir), or
    ``False`` (JSON ``false``: no on-disk cache at all -- jobs then rely on
    each worker's warm in-memory session store).
    """

    name: str = "campaign"
    seed: int = 0
    cache_dir: Union[str, bool, None] = None
    trace: bool = False
    benchmarks: List[Mapping[str, object]] = field(default_factory=list)
    experiments: List[Mapping[str, object]] = field(default_factory=list)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "CampaignSpec":
        known = {"name", "seed", "cache_dir", "trace", "benchmarks", "experiments"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown campaign spec keys {sorted(unknown)}; known: {sorted(known)}")
        return cls(
            name=str(mapping.get("name", "campaign")),
            seed=int(mapping.get("seed", 0)),
            cache_dir=mapping.get("cache_dir"),
            trace=bool(mapping.get("trace", False)),
            benchmarks=list(mapping.get("benchmarks", [])),
            experiments=list(mapping.get("experiments", [])),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a JSON file (or YAML, when PyYAML is available)."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix in (".yaml", ".yml"):
            try:
                import yaml  # type: ignore[import-untyped]
            except ImportError as exc:  # pragma: no cover - environment-dependent
                raise RuntimeError(
                    f"{path} is YAML but PyYAML is not installed; use a JSON spec instead"
                ) from exc
            return cls.from_mapping(yaml.safe_load(text))
        return cls.from_mapping(json.loads(text))

    def to_mapping(self) -> Dict[str, object]:
        """Plain-data form (accepted back by :meth:`from_mapping`).

        A resumable campaign persists this into its journal directory, so
        ``campaign --resume <dir>`` needs no spec argument.
        """
        return {
            "name": self.name,
            "seed": self.seed,
            "cache_dir": self.cache_dir,
            "trace": self.trace,
            "benchmarks": list(self.benchmarks),
            "experiments": list(self.experiments),
        }

    def expand(self) -> List[JobSpec]:
        """Expand the matrix into the concrete, validated job list."""
        from repro.benchmarks_suite import registry
        from repro.harness.experiments import EXPERIMENT_DRIVERS

        jobs: List[JobSpec] = []
        for entry in self.benchmarks:
            unknown = set(entry) - _BENCHMARK_KEYS
            if unknown:
                raise ValueError(
                    f"unknown benchmark matrix keys {sorted(unknown)}; known: {sorted(_BENCHMARK_KEYS)}"
                )
            if "benchmark" not in entry:
                raise ValueError(f"benchmark matrix entry missing 'benchmark': {entry!r}")
            repeats = int(entry.get("repeats", 1))
            if repeats < 1:
                raise ValueError(f"repeats must be >= 1, got {repeats}")
            axes = itertools.product(
                _as_tuple(entry["benchmark"]),
                _as_tuple(entry.get("mode", "wasm")),
                _as_tuple(entry.get("backend", "cranelift")),
                _as_tuple(entry.get("nranks", 2)),
                _as_tuple(entry.get("machine", "graviton2")),
                _algorithm_variants(entry.get("algorithms")),
                range(repeats),
            )
            seen_ids = {job.job_id for job in jobs}
            for benchmark, mode, backend, nranks, machine, algorithms, repeat in axes:
                if benchmark not in registry.names():
                    raise ValueError(f"unknown benchmark {benchmark!r}; known: {registry.names()}")
                if mode not in MODES:
                    raise ValueError(f"unknown mode {mode!r}; known: {MODES.names()}")
                if backend not in BACKENDS:
                    raise ValueError(f"unknown backend {backend!r}; known: {BACKENDS.names()}")
                job = JobSpec(
                    kind="benchmark",
                    name=str(benchmark),
                    mode=str(mode),
                    backend=str(backend),
                    nranks=int(nranks),
                    machine=str(machine),
                    algorithms=algorithms,
                    repeat=repeat,
                )
                # Axes irrelevant to a job collapse out of its id (native
                # jobs ignore the backend axis, for instance); keep exactly
                # one job per distinct id so nothing runs twice.
                if job.job_id in seen_ids:
                    continue
                seen_ids.add(job.job_id)
                jobs.append(job)
        for entry in self.experiments:
            unknown = set(entry) - _EXPERIMENT_KEYS
            if unknown:
                raise ValueError(
                    f"unknown experiment keys {sorted(unknown)}; known: {sorted(_EXPERIMENT_KEYS)}"
                )
            if "experiment" not in entry:
                raise ValueError(f"experiment entry missing 'experiment': {entry!r}")
            name = str(entry["experiment"])
            if name not in EXPERIMENT_DRIVERS:
                raise ValueError(
                    f"unknown experiment {name!r}; known: {sorted(EXPERIMENT_DRIVERS)}"
                )
            params = entry.get("params", {})
            if not isinstance(params, Mapping):
                raise ValueError(f"experiment params must be a mapping, got {params!r}")
            for repeat in range(int(entry.get("repeats", 1))):
                jobs.append(
                    JobSpec(
                        kind="experiment",
                        name=name,
                        params=tuple(sorted(params.items())),
                        repeat=repeat,
                    )
                )
        if not jobs:
            raise ValueError("campaign spec expands to zero jobs")
        return jobs


def spec_for_experiments(names: Sequence[str], seed: int = 0) -> CampaignSpec:
    """Spec wrapping a plain list of figure/table drivers (the CLI 'run' path)."""
    return CampaignSpec(
        name="experiments",
        seed=seed,
        experiments=[{"experiment": name} for name in names],
    )


# ------------------------------------------------------------- job execution

#: Warm per-process session used by pool workers (set by the pool
#: initializer in each worker *after* the fork, so no compiled state leaks in
#: from the parent and every campaign starts its workers cold).
_WORKER_SESSION = None


def _init_worker_session(cache_dir: Union[str, bool]) -> None:
    """Pool initializer: give this worker process one warm session with the
    campaign's shared cache directory pinned on it."""
    from repro.api.session import Session

    global _WORKER_SESSION
    _WORKER_SESSION = Session(cache_dir=cache_dir or None)


@contextmanager
def _serial_session(session, cache_dir: Union[str, bool]) -> Iterator:
    """The serial path's warm session with the campaign's cache directory
    pinned on it: ``session`` (restored afterwards) or a fresh one."""
    from repro.api.session import Session

    if session is None:
        with Session(cache_dir=cache_dir or None) as fresh:
            yield fresh
        return
    configured = session.config
    session.config = configured.replaced(cache_dir=cache_dir or None)
    try:
        yield session
    finally:
        session.config = configured


def _cache_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    return {name: value for name, value in counters.items()
            if name.startswith(MetricsRegistry.CACHE_PREFIX)}


def run_job(
    spec: JobSpec,
    campaign_seed: int = 0,
    session=None,
    trace: bool = False,
    journal_dir: Union[str, None] = None,
) -> JobOutcome:
    """Execute one campaign job; never raises for job-level failures.

    This is the worker-pool entry point (top-level and picklable).  The seed
    is applied before the job body so repeated executions -- serial or on any
    worker -- are bit-identical.  Jobs run on a warm
    :class:`repro.api.Session` -- ``session`` if given, else this process's
    worker session, else the ambient one -- which is also installed as the
    *ambient* session for the job's duration, so every compile inside the job
    (including ones buried in experiment drivers) goes through that session's
    artifact store and cache directory.  The campaign's shared (or disabled)
    on-disk cache reaches the job through that session's configuration, never
    through the process environment.  ``trace=True`` records the job on a
    fresh :mod:`repro.obs.trace` recorder and attaches the snapshot to the
    outcome (the campaign runner merges the snapshots into one timeline).

    Every AoT-cache lookup the job makes -- an experiment driver's on the
    ambient session and a failed job's too -- is counted once in the
    outcome's ``wasm.cache.*`` counters.  ``journal_dir`` gets the job's
    ``started`` event first (one ``O_APPEND`` write, safe across processes),
    so a job whose worker is killed mid-run stays unfinished and re-runs on
    resume.
    """
    import numpy as np

    from repro.api.session import current_session, use_session

    if journal_dir is not None:
        from repro.fault.journal import Journal

        Journal(journal_dir).record("started", spec.job_id)
    seed = spec.seed(campaign_seed)
    outcome = JobOutcome(job_id=spec.job_id, spec=spec, seed=seed)
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)
    if session is None:
        session = _WORKER_SESSION or current_session()
    before = _cache_counters(session.metrics.counters())
    lookups: Dict[str, int] = {}
    start = time.perf_counter()
    try:
        with use_session(session):
            if trace:
                with _trace.tracing() as recorder:
                    _dispatch_job(spec, outcome, session)
                outcome.trace = recorder.snapshot()
            else:
                _dispatch_job(spec, outcome, session)
    except BaseException as exc:  # noqa: BLE001 - failures become records
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        outcome.status = "error"
        outcome.error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        # A failed run's metrics never reached the session; its lookups
        # ride on the error.
        lookups = _cache_counters(getattr(exc, "metrics_snapshot", {}).get("counters", {}))
    finally:
        outcome.wall_seconds = time.perf_counter() - start
    for name, value in _cache_counters(session.metrics.counters()).items():
        if value != before.get(name, 0):
            lookups[name] = lookups.get(name, 0) + value - before.get(name, 0)
    if lookups:
        # A benchmark job's own counters already hold its ranks' lookups,
        # which the session merged: these overwrite them with equal values.
        outcome.metrics.setdefault("counters", {}).update(lookups)
    return outcome


def _dispatch_job(spec: JobSpec, outcome: JobOutcome, session) -> None:
    if spec.kind == "benchmark":
        _run_benchmark_job(spec, outcome, session)
    elif spec.kind == "experiment":
        _run_experiment_job(spec, outcome)
    else:
        raise ValueError(f"unknown job kind {spec.kind!r}")


def _run_benchmark_job(spec: JobSpec, outcome: JobOutcome, session) -> None:
    job = session.run(
        spec.name,
        spec.nranks,
        mode=spec.mode,
        machine=spec.machine,
        backend=spec.backend,
        algorithms=dict(spec.algorithms),
    )
    outcome.makespan = job.makespan
    outcome.exit_codes = job.exit_codes()
    outcome.return_values = job.return_values()
    outcome.metrics = job.metrics.snapshot()


def _run_experiment_job(spec: JobSpec, outcome: JobOutcome) -> None:
    from repro.api.registry import EXPERIMENTS

    driver = EXPERIMENTS.get(spec.name)
    outcome.result = driver(**dict(spec.params))
    outcome.exit_codes = [0]


def _unfinished_outcome(spec: JobSpec, campaign_seed: int, status: str,
                        error_type: str, message: str) -> JobOutcome:
    """Structured record for a job that produced no outcome of its own: the
    interrupt cut it short (or it never started), or its worker died."""
    return JobOutcome(
        job_id=spec.job_id, spec=spec, seed=spec.seed(campaign_seed), status=status,
        error={"type": error_type, "message": message, "traceback": ""},
    )


def _journal_terminal(journal, outcome: JobOutcome) -> None:
    """Record a job's terminal event with everything a resume needs."""
    journal.record(
        "done" if outcome.status == "ok" else "error",
        outcome.job_id,
        status=outcome.status,
        wall_seconds=outcome.wall_seconds,
        makespan=outcome.makespan,
        exit_codes=outcome.exit_codes,
        return_values=outcome.return_values,
        result=outcome.result,
        metrics=outcome.metrics,
        error=outcome.error,
        fingerprint=outcome.fingerprint(),
    )


def _outcome_from_record(job: JobSpec, campaign_seed: int, record: Mapping[str, object]) -> JobOutcome:
    """Reconstruct a finished job's outcome from its journal record."""
    return JobOutcome(
        job_id=job.job_id,
        spec=job,
        seed=job.seed(campaign_seed),
        status=str(record.get("status", "ok")),
        wall_seconds=float(record.get("wall_seconds") or 0.0),
        makespan=record.get("makespan"),
        exit_codes=list(record.get("exit_codes") or []),
        return_values=list(record.get("return_values") or []),
        result=record.get("result"),
        metrics=dict(record.get("metrics") or {}),
        error=record.get("error"),
        stored_fingerprint=record.get("fingerprint"),
        resumed=True,
    )


# ---------------------------------------------------------------- the runner


@dataclass
class CampaignResult:
    """All outcomes of one campaign plus the aggregate views."""

    name: str
    workers: int
    outcomes: List[JobOutcome]
    wall_seconds: float
    cache_stats: Dict[str, int] = field(default_factory=dict)
    compiled_modules: List[str] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: True when the campaign was cut short by ``KeyboardInterrupt``: the
    #: pool was terminated and joined, and every job that had not finished
    #: carries a status ``"interrupted"`` record instead of a result.
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors and not self.interrupted

    @property
    def errors(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def outcome(self, job_id: str) -> JobOutcome:
        for o in self.outcomes:
            if o.job_id == job_id:
                return o
        raise KeyError(f"no job {job_id!r} in campaign {self.name!r}")

    def fingerprints(self) -> Dict[str, str]:
        """Per-job determinism digests (identical for serial and parallel runs)."""
        return {o.job_id: o.fingerprint() for o in self.outcomes}

    def trace_timeline(self) -> Optional[dict]:
        """One merged Chrome trace document for every traced job.

        Each job becomes a Chrome "process" lane (named after its job id)
        and each rank a "thread" within it, so the whole campaign loads as a
        single timeline in ``chrome://tracing`` / Perfetto.  ``None`` when no
        job recorded a trace.
        """
        labeled = [(o.job_id, o.trace) for o in self.outcomes if o.trace]
        if not labeled:
            return None
        from repro.obs import merge_traces

        return merge_traces(labeled)

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Write the merged campaign timeline as Chrome trace-event JSON."""
        doc = self.trace_timeline()
        if doc is None:
            raise ValueError(
                "campaign recorded no traces; run it with trace=True "
                "(or '\"trace\": true' in the spec)"
            )
        from repro.obs import write_chrome_trace

        return write_chrome_trace(path, doc)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "interrupted": self.interrupted,
            "jobs_total": len(self.outcomes),
            "jobs_failed": len(self.errors),
            "cache": self.cache_stats,
            "compiled_modules": self.compiled_modules,
            "jobs": [o.to_dict() for o in self.outcomes],
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the machine-readable ``campaign.json``."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=False, default=repr) + "\n",
            encoding="utf-8",
        )
        return path


def _pool_context():
    import multiprocessing

    # fork is markedly cheaper and fully supported here (worker state is
    # rebuilt per job); fall back to the platform default elsewhere.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@contextmanager
def _job_stream(pending: List[JobSpec], seed: int, workers: int,
                shared_cache: Union[str, bool], trace: bool,
                journal_dir: Optional[str], session) -> Iterator:
    """Run ``pending`` and yield an iterator of ``(outcome, broken)`` pairs in
    job order: in-process on one warm session when ``workers <= 1``, else on
    a process pool whose initializer gives every worker its own.

    ``broken`` marks a job whose worker process died (SIGKILL, segfault,
    OOM): the executor notices instead of hanging, and that job -- and every
    job still queued behind the broken pool -- becomes a structured error
    record.  A ``KeyboardInterrupt`` terminates and joins the workers
    instead of orphaning them mid-job, then propagates.
    """
    if workers == 1 or not pending:
        with _serial_session(session, shared_cache) as job_session:
            yield ((run_job(job, seed, session=job_session, trace=trace,
                            journal_dir=journal_dir), False) for job in pending)
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(pending)),
        mp_context=_pool_context(),
        initializer=_init_worker_session,
        initargs=(shared_cache,),
    )

    def outcomes():
        futures = [executor.submit(run_job, job, seed, trace=trace, journal_dir=journal_dir)
                   for job in pending]
        for job, future in zip(pending, futures):
            try:
                yield future.result(), False
            except BrokenProcessPool as exc:
                message = str(exc) or "a campaign worker process died before the job finished"
                yield _unfinished_outcome(job, seed, "error", "BrokenProcessPool", message), True

    try:
        yield outcomes()
    except KeyboardInterrupt:
        for proc in list(getattr(executor, "_processes", {}).values()):
            proc.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        raise
    executor.shutdown(wait=True)


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, object], None],
    workers: int = 1,
    cache_dir: Union[str, bool, None] = None,
    progress: Optional[Callable[[JobOutcome], None]] = None,
    session=None,
    trace: Optional[bool] = None,
    journal_dir: Union[str, Path, None] = None,
    resume: bool = False,
) -> CampaignResult:
    """Expand ``spec`` and execute every job, serially or on a worker pool.

    ``workers <= 1`` runs jobs in-process in expansion order (the
    determinism-sensitive default) on one warm session -- ``session`` if
    provided (the ``Session.campaign`` front door), else a fresh one scoped
    to this campaign; ``workers > 1`` fans out over a process pool whose
    initializer gives every worker its own warm session.  All jobs share one
    on-disk compilation cache -- ``cache_dir``, else the spec's
    ``cache_dir``, else the resolved configuration's (``session``'s, or a
    fresh resolution's: this is where ``$REPRO_CACHE_DIR`` comes in), else a
    private temporary directory cleaned up after the run -- unless the
    cache is disabled (``cache_dir=False`` here or ``"cache_dir": false`` in
    the spec), in which case compile-once behaviour rests on the warm
    per-worker session stores alone.  ``trace`` overrides the spec's
    ``trace`` flag; when on, every job records a per-rank event trace and
    :meth:`CampaignResult.trace_timeline` merges them into one Chrome trace.

    ``journal_dir`` makes the campaign *resumable*: every job's lifecycle
    (``accepted`` / ``started`` / ``done`` / ``error`` / ``broken``) is
    appended to a crash-safe :class:`repro.fault.journal.Journal` in that
    directory, alongside the spec itself.  ``resume=True`` replays the
    journal first: jobs whose last event is terminal are restored from their
    journal record (marked ``resumed``, keeping their original fingerprint)
    and only the rest execute -- a job whose worker was SIGKILLed mid-run is
    left at ``started``/``broken`` and therefore re-runs.  When resuming,
    ``spec`` may be ``None``: the journal's stored spec is used.

    ``KeyboardInterrupt`` does not orphan workers: the pool is terminated
    and joined, unfinished jobs become ``"interrupted"`` records, and the
    *partial* :class:`CampaignResult` is returned (``interrupted=True``) so
    callers can still write an accounting ``campaign.json``.  A worker that
    *dies* (killed, segfaulted) does not hang the campaign either: its job
    -- and any job still queued behind the broken pool -- becomes a
    structured ``BrokenProcessPool`` error record, journaled as ``broken``
    so a resume re-runs it.
    """
    journal = None
    if journal_dir is not None:
        from repro.fault.journal import Journal

        journal = Journal(journal_dir)
    if resume:
        if journal is None:
            raise ValueError("resume=True requires journal_dir")
        if spec is None:
            stored = journal.read_meta("spec.json")
            if stored is None:
                raise ValueError(f"no stored spec to resume from in {journal_dir}")
            spec = CampaignSpec.from_mapping(stored)
    if spec is None:
        raise ValueError("spec is required (except when resuming from a journal)")
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_mapping(spec)
    jobs = spec.expand()
    workers = max(1, int(workers))
    do_trace = bool(spec.trace) if trace is None else bool(trace)

    restored: Dict[str, JobOutcome] = {}
    pending: List[JobSpec] = jobs
    if journal is not None:
        from repro.fault.journal import TERMINAL_EVENTS

        if resume:
            replayed = journal.replay()
            for job in jobs:
                record = replayed.get(job.job_id)
                if record is not None and record.get("event") in TERMINAL_EVENTS:
                    restored[job.job_id] = _outcome_from_record(job, spec.seed, record)
            pending = [job for job in jobs if job.job_id not in restored]
            if progress is not None:
                # Announce restored outcomes up front, in expansion order, so
                # a resume's progress stream accounts for every job.
                for job in jobs:
                    if job.job_id in restored:
                        progress(restored[job.job_id])
        else:
            journal.write_meta("spec.json", spec.to_mapping())
        for job in pending:
            journal.record("accepted", job.job_id)
    journal_path = str(journal.directory) if journal is not None else None

    # Explicit argument beats the spec beats the resolved configuration (the
    # user's persistent REPRO_CACHE_DIR); only a fully-unconfigured run gets
    # a throwaway cache.
    disk_disabled = cache_dir is False or (cache_dir is None and spec.cache_dir is False)
    temporary_cache = False
    if disk_disabled:
        shared_cache: Union[str, bool] = False
    else:
        from repro.api.config import ResolvedConfig

        resolved = session.config if session is not None else ResolvedConfig.resolve()
        shared_cache = cache_dir or spec.cache_dir or resolved.cache_dir
        temporary_cache = shared_cache is None
        if temporary_cache:
            shared_cache = tempfile.mkdtemp(prefix="repro-campaign-cache-")

    start = time.perf_counter()
    outcomes: List[JobOutcome] = []
    interrupted = False
    try:
        with _job_stream(pending, spec.seed, workers, shared_cache, do_trace,
                         journal_path, session) as stream:
            for outcome, broken in stream:
                outcomes.append(outcome)
                if journal is not None and broken:
                    # Non-terminal, so a resume re-runs the job.
                    journal.record("broken", outcome.job_id, message=outcome.error["message"])
                elif journal is not None:
                    _journal_terminal(journal, outcome)
                if progress is not None:
                    progress(outcome)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        if temporary_cache:
            shutil.rmtree(shared_cache, ignore_errors=True)
    if interrupted:
        done = {o.job_id for o in outcomes} | set(restored)
        for job in jobs:
            if job.job_id not in done:
                outcomes.append(_unfinished_outcome(
                    job, spec.seed, "interrupted", "KeyboardInterrupt",
                    "campaign interrupted before this job completed"))

    # This run's cache use is what its jobs counted, summed before restored
    # jobs are spliced in: they made their lookups in the run that
    # journaled them.
    hits = sum(o.cache_events()["hits"] for o in outcomes)
    misses = sum(o.cache_events()["misses"] for o in outcomes)
    compiled = sorted({key for o in outcomes for key in o.missed_modules()})
    if restored:
        # Splice restored outcomes back into expansion order.
        by_id = {o.job_id: o for o in outcomes}
        by_id.update(restored)
        outcomes = [by_id[job.job_id] for job in jobs if job.job_id in by_id]

    result = CampaignResult(
        name=spec.name,
        workers=workers,
        outcomes=outcomes,
        wall_seconds=time.perf_counter() - start,
        cache_stats={"hits": hits, "misses": misses, "compiles": misses},
        compiled_modules=compiled,
        interrupted=interrupted,
    )
    for outcome in outcomes:
        if outcome.metrics:
            result.metrics.merge_snapshot(outcome.metrics)
    return result
