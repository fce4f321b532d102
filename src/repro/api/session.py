"""The stable public session API: warm :class:`Session` objects.

The paper's embedder is a long-lived library that launchers link against;
this module is the reproduction's equivalent front door.  A ``Session`` owns

* a **resolved configuration** (:class:`repro.api.config.ResolvedConfig`,
  layered defaults < config file < ``REPRO_*`` env < kwargs),
* a **compiled-artifact store**: an in-memory tier that lives as long as the
  session, optionally fronting the shared on-disk
  :class:`~repro.wasm.compilers.cache.FileSystemCache` -- so repeated jobs in
  one process reuse lowered IR and compiled artifacts without round-tripping
  the disk cache (and without re-running ``wasicc``),
* a **metrics registry** aggregating every job it runs.

Execution modes ("wasm", "native", ...) are registry-driven
(:data:`repro.api.registry.MODES`): ``Session.run`` resolves the mode's
runner, so new execution baselines plug in without editing this module.

A ``Session`` is the only way a job runs, and its resolved configuration is
the only place a job's settings come from: nothing below it reads the
environment.  Code that is handed no session (experiment drivers, the
one-shot :func:`run`) uses the *ambient* one (:func:`current_session`), which
the campaign runner binds to the job's warm session via :func:`use_session`.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.config import ResolvedConfig, _UNSET
from repro.api.registry import BENCHMARKS, MACHINES, MODES, register_mode
from repro.core import envvars
from repro.core.embedder import GuestResult, MPIWasm
from repro.mpi.runtime import MPIRuntime, MPIWorld
from repro.obs.hooks import current_hooks
from repro.obs.trace import tracing
from repro.sim.cluster import Cluster
from repro.sim.engine import DeadlockError, RankFailedError, SimEngine
from repro.sim.machines import MachinePreset
from repro.sim.metrics import MetricsRegistry
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import CompiledApplication, compile_guest
from repro.wasm.compilers.base import CompiledModule
from repro.wasm.compilers.cache import FileSystemCache, InMemoryCache
from repro.wasm.decoder import decode_module
from repro.wasm.runtime import memory_type_of
from repro.wasm.validation import validate_module

#: Application argument accepted by :meth:`Session.run` / :meth:`Session.compile`.
AppLike = Union[GuestProgram, CompiledApplication, str]


@dataclass
class JobResult:
    """Outcome of one ``mpirun``-style job (wasm or native)."""

    nranks: int
    machine: str
    mode: str                               # "wasm" or "native"
    rank_results: List[object]
    makespan: float                         # max virtual time across ranks, seconds
    metrics: MetricsRegistry
    stdout: str                             # rank 0's stdout
    #: Recorder snapshot (``repro.obs.trace``) when the job ran with tracing
    #: enabled; feed it to :func:`repro.obs.to_chrome_trace` for a timeline.
    trace: Optional[dict] = None

    def exit_codes(self) -> List[int]:
        """Per-rank exit codes (0 for native runs that returned non-ints)."""
        codes = []
        for r in self.rank_results:
            if isinstance(r, GuestResult):
                codes.append(r.exit_code)
            elif isinstance(r, int):
                codes.append(r)
            else:
                codes.append(0)
        return codes

    def return_values(self) -> List[object]:
        """Per-rank values returned by the guest's ``main``."""
        out = []
        for r in self.rank_results:
            out.append(r.return_value if isinstance(r, GuestResult) else r)
        return out


def resolve_machine(machine: Union[str, MachinePreset]) -> MachinePreset:
    """Machine preset for a name (via the registry) or a preset passthrough.

    An unknown name raises :class:`repro.api.registry.UnknownEntryError`
    listing every registered preset -- never a bare ``KeyError``.
    """
    if isinstance(machine, MachinePreset):
        return machine
    return MACHINES.get(machine)


def execute_job(
    preset: MachinePreset,
    nranks: int,
    ranks_per_node: Optional[int],
    collective_algorithms: Optional[Mapping[str, str]],
    program_factory: Callable[[MPIWorld, MetricsRegistry], Callable[[int], Callable]],
) -> Tuple[List[object], float, MetricsRegistry]:
    """Shared SPMD scaffolding used by every execution mode.

    Builds the cluster, discrete-event engine and MPI world, applies forced
    collective algorithms, spawns one rank program per rank (obtained from
    ``program_factory(world, metrics)``) and runs the job to completion.
    Returns ``(rank_results, makespan, metrics)``.  The job's hooks
    (:mod:`repro.obs.hooks`) are read once, here, and travel with the world.
    """
    cluster = Cluster(preset, nranks, ranks_per_node)
    engine = SimEngine(nranks)
    metrics = MetricsRegistry()
    world = MPIWorld.install(cluster, engine, metrics, current_hooks())
    if collective_algorithms:
        world.collectives.force_many(dict(collective_algorithms))
    engine.spawn_all(program_factory(world, metrics))
    try:
        rank_results = engine.run()
    except (RankFailedError, DeadlockError) as err:
        # Survivors are already torn down (the engine guarantees it); attach
        # the job's final metrics so the error record carries each rank's
        # counters at failure time, and the session can count them.
        err.metrics_snapshot = metrics.snapshot()
        raise
    return rank_results, engine.max_clock, metrics


class Session:
    """One warm embedder session: configuration + artifact store + metrics.

    ::

        from repro.api import Session

        with Session(machine="graviton2", backend="cranelift") as session:
            job = session.run("pingpong", 2)          # compiles the module
            job = session.run("pingpong", 4)          # reuses the artifact
            print(session.metrics.cache_summary())    # {'misses': 1, ...}

    ``config`` may be a :class:`ResolvedConfig`, a mapping, or ``None``;
    keyword overrides always win (they are the top configuration layer).
    """

    def __init__(
        self,
        config: Union[ResolvedConfig, Mapping[str, Any], None] = None,
        *,
        config_file: Union[str, None, object] = _UNSET,
        metrics: Optional[MetricsRegistry] = None,
        **overrides: Any,
    ):
        self.config = ResolvedConfig.resolve(config, config_file=config_file, **overrides)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._memory = InMemoryCache()
        self._fronts: Dict[str, InMemoryCache] = {}
        self._programs: Dict[str, GuestProgram] = {}
        self._apps: Dict[int, Tuple[object, CompiledApplication]] = {}
        self._jobs_run = 0
        self._closed = False

    # -------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def jobs_run(self) -> int:
        """Number of jobs executed through this session."""
        return self._jobs_run

    def close(self) -> None:
        """Release the session's in-memory artifact store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._memory.clear()
        self._apps.clear()
        self._programs.clear()

    def __enter__(self) -> "Session":
        self._check_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Session is closed; create a new one")

    # ---------------------------------------------------------- config/cache

    def artifact_cache(self, config: ResolvedConfig) -> InMemoryCache:
        """Artifact store for one job: the session's in-memory tier, fronting
        the shared on-disk cache when the configuration names a directory."""
        if not config.cache_dir:
            return self._memory
        directory = str(config.cache_dir)
        front = self._fronts.get(directory)
        if front is None:
            front = self._fronts[directory] = self._memory.fronting(FileSystemCache(directory))
        return front

    # ------------------------------------------------------------ application

    def _guest_program(self, app: AppLike) -> GuestProgram:
        if isinstance(app, CompiledApplication):
            return app.program
        if isinstance(app, str):
            program = self._programs.get(app)
            if program is None:
                program = BENCHMARKS.get(app)()
                self._programs[app] = program
            return program
        return app

    #: Bound on the (program -> wasicc output) memo: warm reuse is meant for
    #: a working set of applications, not for pinning every program a
    #: long-lived process ever ran (the ambient default session lives for
    #: the whole process).
    MAX_WARM_APPLICATIONS = 128

    def _compiled_application(self, app: AppLike) -> CompiledApplication:
        if isinstance(app, CompiledApplication):
            return app
        program = self._guest_program(app)
        entry = self._apps.get(id(program))
        if entry is None or entry[0] is not program:
            entry = (program, compile_guest(program))
            self._apps[id(program)] = entry
            while len(self._apps) > self.MAX_WARM_APPLICATIONS:
                self._apps.pop(next(iter(self._apps)))      # evict oldest
        return entry[1]

    # ------------------------------------------------------------ compilation

    def compile(self, app: Union[AppLike, bytes], *,
                backend: Optional[str] = None) -> CompiledModule:
        """AoT-compile an application through the session's artifact store.

        Accepts a guest program, a ``wasicc`` output, a registered benchmark
        name, or raw ``.wasm`` bytes, which are decoded here.  The module is
        validated once per call, before the lookup: the session is where a
        module is admitted.  Repeated compiles of the same module (any job,
        same session) are served from the warm store; the lookup is recorded
        in the session's ``metrics.cache_summary()``.

        Compiled lowered-IR artifacts -- freshly built or loaded from the
        shared on-disk cache -- are statically verified
        (:mod:`repro.analysis.ir_verify`) before they are returned; a
        structurally-broken artifact raises
        :class:`~repro.wasm.errors.ValidationError`.
        """
        self._check_open()
        config = self.config.replaced(backend=backend) if backend else self.config
        embedder = MPIWasm(config, self.artifact_cache(config))
        if isinstance(app, bytes):
            wasm_bytes, module = app, decode_module(app)
        else:
            compiled_app = self._compiled_application(app)
            wasm_bytes, module = compiled_app.wasm_bytes, compiled_app.module
        validate_module(module)
        compiled = embedder.compile_module(wasm_bytes, module)
        self.metrics.record_cache_event(embedder.last_cache_tier, embedder.last_cache_key)
        artifact = getattr(compiled, "artifact", None)
        if isinstance(artifact, dict) and artifact.get("kind") == "lowered-ir":
            from repro.analysis.ir_verify import verify_artifact
            from repro.wasm.errors import ValidationError

            verify_artifact(artifact).raise_if_error(
                ValidationError, "compiled artifact rejected: "
            )
        return compiled

    # -------------------------------------------------------------- execution

    def run(
        self,
        app: AppLike,
        nranks: Optional[int] = None,
        *,
        np: Optional[int] = None,
        mode: str = "wasm",
        machine: Union[str, MachinePreset, None] = None,
        backend: Optional[str] = None,
        ranks_per_node: Optional[int] = None,
        guest_args: Sequence[str] = (),
        algorithms: Optional[Mapping[str, str]] = None,
        cache_dir: Any = _UNSET,
    ) -> JobResult:
        """Run one job and fold its metrics into the session.

        ``mode`` selects a registered execution mode (``"wasm"`` runs the
        embedder, ``"native"`` the no-embedder baseline).  Per-run keyword
        overrides beat the session configuration; ``algorithms`` are applied
        on top of the session's ``collective_algorithms``.  The runner gets
        the job's configuration as ``session.config.replaced(...)`` with those
        overrides; settings without a per-run keyword (``preopen_dirs``,
        ``memory_pages``, ...) come from the session.
        """
        self._check_open()
        runner = MODES.get(mode)
        preset = resolve_machine(machine if machine is not None else self.config.machine)
        if nranks is None:
            nranks = np if np is not None else self.config.nranks
        if ranks_per_node is None:
            ranks_per_node = self.config.ranks_per_node
        overrides: Dict[str, Any] = {}
        if backend:
            overrides["backend"] = backend
        if algorithms:
            overrides["collective_algorithms"] = {**self.config.collective_algorithms,
                                                  **algorithms}
        if cache_dir is not _UNSET:
            overrides["cache_dir"] = cache_dir
        config = self.config.replaced(**overrides) if overrides else self.config
        # The mode-runner contract: every registered runner takes exactly
        # this keyword set.
        request = dict(nranks=int(nranks), preset=preset, ranks_per_node=ranks_per_node,
                       config=config, guest_args=tuple(guest_args) or config.guest_args)
        # Session-level tracing records this job on a fresh recorder and
        # attaches the snapshot to the result.  When this thread already
        # traces its jobs (a campaign job's recorder), defer to it.
        own_trace = self.config.trace and current_hooks().tracer is None
        try:
            with (tracing() if own_trace else nullcontext()) as recorder:
                job = runner(self, app, **request)
        except (RankFailedError, DeadlockError) as err:
            # A failed job's metrics (its cache lookups among them) count in
            # the session like a finished job's.
            self.metrics.merge_snapshot(getattr(err, "metrics_snapshot", {}))
            raise
        if recorder is not None:
            job.trace = recorder.snapshot()
        self._jobs_run += 1
        self.metrics.merge(job.metrics)
        return job

    def campaign(self, spec, *, workers: Optional[int] = None,
                 cache_dir: Any = None, progress: Optional[Callable] = None,
                 trace: Optional[bool] = None,
                 journal_dir: Any = None, resume: bool = False):
        """Expand and execute a campaign spec through this session.

        Serial campaigns (``workers <= 1``) run every job on *this* warm
        session; parallel campaigns give each worker process its own warm
        session sharing the on-disk cache.  The shared cache directory is
        ``cache_dir``, else the spec's ``"cache_dir"`` (``false`` disables the
        on-disk cache), else this session's resolved ``cache_dir`` (which is
        where ``$REPRO_CACHE_DIR`` comes in), else a temporary directory; it
        is pinned on this session for the campaign's duration, so jobs that
        compile through the ambient session use it too.  ``trace`` forces
        per-job event tracing on (``True``) or off (``False``); ``None``
        defers to the spec's ``"trace"`` key, then the session's ``trace``
        config.
        ``journal_dir`` keeps a crash-safe on-disk journal of job outcomes
        (:mod:`repro.fault.journal`); ``resume=True`` re-runs only the jobs
        that journal records as unfinished (``spec`` may then be ``None``).
        Returns the :class:`repro.harness.campaign.CampaignResult`.
        """
        self._check_open()
        from repro.harness.campaign import run_campaign

        workers = self.config.workers if workers is None else workers
        if trace is None and self.config.trace:
            trace = True
        result = run_campaign(
            spec, workers=workers, cache_dir=cache_dir, progress=progress,
            session=self, trace=trace, journal_dir=journal_dir, resume=resume,
        )
        if workers > 1:
            # Serial jobs already merged through Session.run; parallel jobs
            # ran on worker sessions, so fold the shipped-back aggregate in.
            self.metrics.merge(result.metrics)
        return result

    # -------------------------------------------------------------- reporting

    def cache_summary(self) -> Dict[str, float]:
        """Aggregate AoT-cache counters across every job this session ran."""
        return self.metrics.cache_summary()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"Session({state}, backend={self.config.backend!r}, "
                f"machine={self.config.machine!r}, jobs={self._jobs_run})")


# ------------------------------------------------------------ execution modes


@register_mode("wasm")
def _run_wasm_mode(
    session: Session,
    app: AppLike,
    *,
    nranks: int,
    preset: MachinePreset,
    ranks_per_node: Optional[int],
    config: ResolvedConfig,
    guest_args: Tuple[str, ...],
) -> JobResult:
    """Run a guest under MPIWasm: one embedder per rank, shared warm store."""
    compiled_app = session._compiled_application(app)
    cache = session.artifact_cache(config)
    # An override the module's memory cannot take fails the job here, once,
    # instead of in every rank's instantiation.
    memory_type_of(compiled_app.module, config.memory_pages)
    # Admitted once per job, before any rank runs; the per-rank embedders
    # below only look the artifact up.
    validate_module(compiled_app.module)

    def program_factory(world: MPIWorld, metrics: MetricsRegistry):
        def make_rank_program(rank: int):
            def rank_program(ctx):
                runtime = MPIRuntime(world, ctx)
                embedder = MPIWasm(config, cache)
                result = embedder.run_guest(compiled_app, runtime, guest_args)
                metrics.merge(result.metrics)
                return result

            return rank_program

        return make_rank_program

    rank_results, makespan, metrics = execute_job(
        preset, nranks, ranks_per_node, config.collective_algorithms, program_factory
    )
    stdout = (rank_results[0].stdout
              if rank_results and isinstance(rank_results[0], GuestResult) else "")
    return JobResult(
        nranks=nranks,
        machine=preset.name,
        mode="wasm",
        rank_results=rank_results,
        makespan=makespan,
        metrics=metrics,
        stdout=stdout,
    )


# --------------------------------------------------------- the ambient session

_DEFAULT_SESSION: Optional[Session] = None
_DEFAULT_SESSION_ENV: Optional[Dict[str, str]] = None
#: Innermost :func:`use_session` binding of the current thread / task.  A
#: context variable, not a process-global stack: serve workers are threads,
#: and each must see only the session it bound itself.
_ACTIVE_SESSION: ContextVar[Optional[Session]] = ContextVar(
    "repro_active_session", default=None)


def default_session() -> Session:
    """Process-wide fallback session behind :func:`current_session`.

    It is an entry point like any other ``Session()``, so it resolves the
    ``REPRO_*`` environment -- and, because callers of :func:`run` never see
    it, re-resolves whenever the ``REPRO_*`` snapshot changes: exporting or
    unsetting a knob between calls keeps taking effect (at the price of a
    cold artifact store).
    """
    global _DEFAULT_SESSION, _DEFAULT_SESSION_ENV
    env = envvars.snapshot()
    if (_DEFAULT_SESSION is None or _DEFAULT_SESSION.closed
            or env != _DEFAULT_SESSION_ENV):
        _DEFAULT_SESSION = Session()
        _DEFAULT_SESSION_ENV = env
    return _DEFAULT_SESSION


def current_session() -> Session:
    """The innermost :func:`use_session` session, else the default one."""
    return _ACTIVE_SESSION.get() or default_session()


@contextmanager
def use_session(session: Session) -> Iterator[Session]:
    """Make ``session`` the ambient session for the duration of the block.

    The campaign runner wraps each job in this so nested compiles -- including
    ones buried inside experiment drivers -- all land on the job's warm
    session.  The binding is per thread (and per asyncio task): concurrent
    threads each see their own.
    """
    token = _ACTIVE_SESSION.set(session)
    try:
        yield session
    finally:
        _ACTIVE_SESSION.reset(token)


def run(app: AppLike, nranks: Optional[int] = None, **kwargs: Any) -> JobResult:
    """One-shot convenience: ``repro.api.run(...)`` on the ambient session."""
    return current_session().run(app, nranks, **kwargs)


__all__ = [
    "AppLike",
    "JobResult",
    "Session",
    "current_session",
    "default_session",
    "execute_job",
    "resolve_machine",
    "run",
    "use_session",
]
