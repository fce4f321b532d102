"""Checkpoint/restart: versioned, content-addressed execution snapshots.

A checkpoint captures, per rank, what real MPI cannot: the guest module
instance's state (linear-memory bytes, global values, funcref tables), the
request layer (active :class:`~repro.mpi.status.Request` summaries), the
schedule executor's position at a round boundary, and the rank's virtual
clock -- plus a snapshot of the matching engine's pending-message queues.
The file is a single JSON document whose ``digest`` field is a blake2b over
the canonical payload, published atomically (tmp + ``os.replace``).

Restore model
-------------

Rank programs run on live Python threads, whose stacks cannot be serialised
mid-Wasm-call.  Restore is therefore *digest-validated deterministic replay*
(the classic message-logging recovery idiom): :func:`resume_from_checkpoint`
re-executes the checkpoint's job descriptor deterministically from the start
and, as each rank crosses the checkpointed round boundary, compares its live
state (memory digest, globals, tables, clock, executor position) against the
snapshot -- any divergence raises :class:`CheckpointStateMismatch`; agreement
proves the resumed run passes through the exact checkpointed state before
continuing, which is what makes restore-then-resume bit-for-bit identical to
the uninterrupted run.  For *quiescent* state (an instance between calls),
:func:`restore_instance_state` performs a true write-back restore into a
fresh instance.

:func:`capture_checkpoint` arms a capture as the ``capture`` hook of the
jobs its thread starts (:mod:`repro.obs.hooks`), and two registrations feed
it: the embedder registers each rank's instance, and ``MPIRuntime``
registers itself (and, through it, the job's world).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.hooks import current_hooks, installed
from repro.wasm import PAGE_SIZE

if TYPE_CHECKING:
    from repro.analysis.findings import Report

FORMAT = "repro.fault.checkpoint"
VERSION = 1
#: The ``analyzer`` of the checks' findings (``analyze checkpoint``).
ANALYZER = "checkpoint"


class CheckpointError(Exception):
    """A checkpoint could not be written, loaded, or verified."""


class CheckpointStateMismatch(CheckpointError):
    """Replayed execution diverged from the checkpointed state."""


# ------------------------------------------------------------- instance state


def _digest_bytes(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def capture_instance_state(instance, include_memory: bool = True) -> dict:
    """Snapshot one module instance: memory, globals, tables.

    ``include_memory=False`` keeps only the memory digest (enough for
    replay validation) -- an order of magnitude smaller on big guests.
    """
    memory = instance.memory
    raw = memory.read(0, memory.size) if memory is not None else b""
    state = {
        "memory_pages": memory.pages if memory is not None else 0,
        "memory_digest": _digest_bytes(raw) if memory is not None else None,
        "memory_b64": (
            base64.b64encode(zlib.compress(raw, 6)).decode("ascii")
            if include_memory and memory is not None
            else None
        ),
        "globals": [g.value for g in instance.globals],
        "tables": [list(t.elements) for t in instance.tables],
    }
    return state


def restore_instance_state(instance, state: dict) -> None:
    """Write-back restore of quiescent instance state captured above."""
    if state.get("memory_b64") is not None:
        if instance.memory is None:
            raise CheckpointError("snapshot has memory but the instance has none")
        data = zlib.decompress(base64.b64decode(state["memory_b64"]))
        pages = int(state["memory_pages"])
        if pages > instance.memory.pages:
            if instance.memory.grow(pages - instance.memory.pages) < 0:
                raise CheckpointError(
                    f"cannot grow instance memory to {pages} snapshot pages"
                )
        elif pages < instance.memory.pages:
            raise CheckpointError(
                f"instance memory ({instance.memory.pages} pages) is larger than "
                f"the snapshot ({pages} pages); write-back would truncate"
            )
        instance.memory.write(0, data)
        restored = _digest_bytes(instance.memory.read(0, instance.memory.size))
        if state.get("memory_digest") and restored != state["memory_digest"]:
            raise CheckpointError("restored memory does not match the snapshot digest")
    if len(state.get("globals", [])) != len(instance.globals):
        raise CheckpointError(
            f"snapshot has {len(state.get('globals', []))} globals, "
            f"instance has {len(instance.globals)}"
        )
    for glob, value in zip(instance.globals, state.get("globals", [])):
        glob.value = value  # bypass set(): restore may write immutable globals
    for table, elements in zip(instance.tables, state.get("tables", [])):
        table.elements[:] = list(elements)


# ----------------------------------------------------------------- file format


def content_digest(payload: dict) -> str:
    """blake2b over the canonical JSON payload, ``digest`` field excluded."""
    scrubbed = {k: v for k, v in payload.items() if k != "digest"}
    canonical = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def write_checkpoint(payload: dict, path) -> Path:
    """Stamp the content digest and publish atomically."""
    path = Path(path)
    payload = dict(payload)
    payload["digest"] = content_digest(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)
    return path


class Checkpoint:
    """A loaded, verified checkpoint document."""

    def __init__(self, payload: dict, path: Optional[Path] = None):
        self.payload = payload
        self.path = path

    @property
    def version(self) -> int:
        return int(self.payload.get("version", 0))

    @property
    def at_round(self) -> int:
        return int(self.payload.get("at_round", -1))

    @property
    def nranks(self) -> int:
        return int(self.payload.get("nranks", 0))

    @property
    def job(self) -> Optional[dict]:
        return self.payload.get("job")

    @property
    def ranks(self) -> List[dict]:
        return list(self.payload.get("ranks", []))

    def rank_state(self, rank: int) -> Optional[dict]:
        for state in self.payload.get("ranks", []):
            if state.get("rank") == rank:
                return state
        return None


# ---------------------------------------------------------------- the checks
#
# The one set of checks on a checkpoint document: ``load_checkpoint``
# refuses a document they report an error for, and ``analyze checkpoint``
# prints what they report.  A document that passes can still diverge at
# replay; they prove it is internally consistent, the cheap half of restore
# safety.  ``report`` is a :class:`repro.analysis.Report`.


def _is_count(value) -> bool:
    return isinstance(value, (int, float)) and value >= 0


def _check_executor(report, executor, loc: str) -> None:
    error = partial(report.error, ANALYZER, location=loc)
    if not isinstance(executor, dict):
        return error("missing-executor", "rank state carries no schedule-executor snapshot")
    pc, n_steps, round_no = executor.get("pc"), executor.get("n_steps"), executor.get("round")
    if not isinstance(pc, int) or not isinstance(n_steps, int):
        return error("bad-executor-state",
                     f"executor pc/n_steps must be integers, got {pc!r}/{n_steps!r}")
    if not 0 <= pc <= n_steps:
        error("pc-out-of-bounds", f"executor pc {pc} outside [0, {n_steps}]",
              pc=pc, n_steps=n_steps)
    done = pc >= n_steps
    if done and round_no != -1:
        error("round-after-done", f"finished executor (pc={pc}) still reports round {round_no}")
    if not done and (not isinstance(round_no, int) or round_no < 0):
        error("bad-round", f"in-flight executor reports invalid round {round_no!r}")
    if executor.get("finished") and not done:
        error("finished-before-done", f"executor marked finished with pc {pc} of {n_steps} steps")
    if not _is_count(executor.get("data_time")):
        error("bad-data-time",
              f"executor data_time {executor.get('data_time')!r} is not a non-negative number")


def _check_guest(report, guest: dict, loc: str) -> None:
    """The memory image decompresses to exactly ``memory_pages`` Wasm pages
    and hashes to the stored digest."""
    error = partial(report.error, ANALYZER, location=loc)
    pages, encoded = guest.get("memory_pages", 0), guest.get("memory_b64")
    if not isinstance(pages, int) or pages < 0:
        return error("bad-memory-pages", f"memory_pages {pages!r} is not a non-negative integer")
    if encoded is None:
        return report.note(ANALYZER, "digest-only-memory",
                           "snapshot keeps only the memory digest (replay-validation "
                           "form); write-back restore is not possible from it", loc)
    try:
        raw = zlib.decompress(base64.b64decode(encoded))
    except (binascii.Error, ValueError, zlib.error) as exc:
        return error("bad-memory-image", f"memory_b64 does not decode: {exc}")
    if len(raw) != pages * PAGE_SIZE:
        error("memory-size-mismatch",
              f"memory image is {len(raw)} bytes but {pages} pages declare {pages * PAGE_SIZE}",
              image_bytes=len(raw), memory_pages=pages)
    if guest.get("memory_digest") and _digest_bytes(raw) != guest["memory_digest"]:
        error("memory-digest-mismatch", "memory image does not hash to the stored memory_digest")


def _check_rank(report, state: dict, nranks: int, location: str) -> None:
    rank, clock = state.get("rank"), state.get("clock")
    loc = f"{location} rank {rank}"
    if not isinstance(rank, int) or not 0 <= rank < max(nranks, 1):
        report.error(ANALYZER, "rank-out-of-range",
                     f"rank {rank!r} outside the declared world of {nranks}", loc)
    if not _is_count(clock):
        report.error(ANALYZER, "bad-clock",
                     f"rank clock {clock!r} is not a non-negative number", loc)
    _check_executor(report, state.get("executor"), loc)
    for i, request in enumerate(state.get("requests") or []):
        if not isinstance(request, dict) or "kind" not in request or "complete" not in request:
            report.error(ANALYZER, "bad-request-state",
                         f"request #{i} must record 'kind' and 'complete', got {request!r}", loc)
    if state.get("guest") is None:
        report.note(ANALYZER, "no-guest-state", "rank captured without an instance snapshot "
                    "(native mode, or capture before instantiation)", loc)
    else:
        _check_guest(report, state["guest"], loc)


def _check_payload(payload: dict, report, location: str) -> None:
    """Check one parsed checkpoint document into ``report``: format, version,
    content digest, world size, rank coverage, and each rank's state."""
    error = partial(report.error, ANALYZER, location=location)
    if payload.get("format") != FORMAT:
        return error("bad-format", f"not a {FORMAT} document (format={payload.get('format')!r})")
    if payload.get("version") != VERSION:
        return error("unsupported-version",
                     f"unsupported checkpoint version {payload.get('version')!r} "
                     f"(this build reads version {VERSION})")
    stored, computed = payload.get("digest"), content_digest(payload)
    if stored is None:
        error("missing-digest", "payload carries no content digest")
    elif stored != computed:
        error("digest-mismatch", f"digest mismatch: stored {stored}, computed {computed}")
    nranks, ranks = payload.get("nranks"), payload.get("ranks")
    at_round = payload.get("at_round")
    if not isinstance(at_round, int) or at_round < 0:
        error("bad-at-round", f"at_round {at_round!r} is not a non-negative integer")
    if not isinstance(nranks, int) or nranks < 1:
        error("bad-nranks", f"nranks {nranks!r} is not a positive integer")
        nranks = 0
    if not isinstance(ranks, list) or not ranks:
        return error("no-rank-states", "checkpoint captured no per-rank states")
    seen = [s["rank"] for s in ranks if isinstance(s, dict) and isinstance(s.get("rank"), int)]
    duplicates = sorted({r for r in seen if seen.count(r) > 1})
    if duplicates:
        error("duplicate-rank", f"holds rank state(s) {duplicates} more than once")
    if nranks and len(set(seen)) < nranks:
        missing = sorted(set(range(nranks)) - set(seen))
        report.warning(ANALYZER, "partial-capture",
                       f"{len(set(seen))} of {nranks} ranks captured (missing {missing}); "
                       "resume validation only covers captured ranks", location)
    for state in ranks:
        if isinstance(state, dict):
            _check_rank(report, state, nranks, location)
    job = payload.get("job")
    if job is None:
        report.warning(ANALYZER, "no-job-descriptor", "checkpoint has no job descriptor; "
                       "resume_from_checkpoint cannot replay it", location)
    elif not (isinstance(job, dict) and isinstance(job.get("benchmark"), str)
              and type(job.get("nranks")) is int and job["nranks"] >= 1):
        error("bad-job", f"job descriptor {job!r} is not a dict with a str benchmark "
              "and a positive int nranks")
    report.note(ANALYZER, "verified", f"{len(ranks)} rank state(s) at round crossing "
                f"{at_round}", location)


def _read(path):
    """The one reader of the format: ``(payload or None, findings)``."""
    # Imported lazily: repro.analysis is not needed to capture or run a job.
    from repro.analysis.findings import Report

    report, location, payload = Report(), str(path), None
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        report.error(ANALYZER, "unreadable", f"cannot read checkpoint: {exc}", location)
    except ValueError as exc:
        report.error(ANALYZER, "not-json", f"not valid JSON: {exc}", location)
    else:
        if isinstance(payload, dict):
            _check_payload(payload, report, location)
        else:
            report.error(ANALYZER, "bad-format", f"not a {FORMAT} document (top-level "
                         f"JSON value is {type(payload).__name__})", location)
    return payload, report


def verify_checkpoint(path) -> "Report":
    """Check the checkpoint file at ``path``; returns the findings report.

    This is ``repro-harness analyze checkpoint``: it verifies a snapshot
    without resuming it.  :func:`load_checkpoint` refuses a file whose
    report has an error."""
    return _read(path)[1]


def load_checkpoint(path) -> Checkpoint:
    """Load and check a checkpoint file; any error finding refuses it.

    :class:`CheckpointError` is raised on each error :func:`verify_checkpoint`
    reports: a foreign format or version, a digest mismatch, a bad world
    size or round, a repeated or out-of-range rank, a broken executor
    position, clock, request or memory image.  A partial capture and a document
    without a job descriptor load: they are warnings, and resume checks the
    ranks the document holds."""
    payload, report = _read(path)
    report.raise_if_error(CheckpointError, "checkpoint refused: ")
    return Checkpoint(payload, Path(path))


# --------------------------------------------------------------------- capture


class CheckpointCapture:
    """Armed during a run: captures (or validates) state at a round boundary.

    ``at_round`` counts each rank's schedule-round crossings across all
    collectives of the run; when a rank crosses its ``at_round``-th boundary
    its state is recorded.  With ``validate_against`` set, the recorded state
    is instead compared field-by-field to the reference checkpoint and
    divergences accumulate in :attr:`mismatches`.
    """

    def __init__(
        self,
        at_round: int,
        job: Optional[dict] = None,
        include_memory: bool = True,
        validate_against: Optional[Checkpoint] = None,
    ):
        self.at_round = at_round
        self.job = job
        self.include_memory = include_memory
        self.reference = validate_against
        self.captured: Dict[int, dict] = {}
        self.mismatches: List[str] = []
        self._instances: Dict[int, object] = {}
        self._runtimes: Dict[int, object] = {}
        self._round_counts: Dict[int, int] = {}

    # ------------------------------------------------------------ registration

    def register_instance(self, rank: int, instance) -> None:
        self._instances[rank] = instance

    def register_runtime(self, rank: int, runtime) -> None:
        self._runtimes[rank] = runtime

    # ------------------------------------------------------------------- hooks

    def on_schedule_round(self, rank: int, now: float, executor) -> None:
        """Called by the schedule executor at every round boundary."""
        crossing = self._round_counts.get(rank, 0)
        self._round_counts[rank] = crossing + 1
        if crossing != self.at_round or rank in self.captured:
            return
        state = self._capture_rank(rank, now, executor)
        self.captured[rank] = state
        if self.reference is not None:
            self._validate_rank(rank, state)

    def _capture_rank(self, rank: int, now: float, executor) -> dict:
        state: dict = {
            "rank": rank,
            "clock": now,
            "round_crossing": self.at_round,
            "executor": executor.checkpoint_state(),
        }
        runtime = self._runtimes.get(rank)
        if runtime is not None:
            state["requests"] = [
                {"kind": req.kind, "complete": bool(req.complete)}
                for req in getattr(runtime, "_active_requests", [])
            ]
        instance = self._instances.get(rank)
        state["guest"] = (
            capture_instance_state(instance, include_memory=self.include_memory)
            if instance is not None
            else None
        )
        return state

    def _validate_rank(self, rank: int, live: dict) -> None:
        stored = self.reference.rank_state(rank)
        if stored is None:
            self.mismatches.append(f"rank {rank}: no state in the checkpoint")
            return
        for field in ("clock", "round_crossing", "executor", "requests"):
            if stored.get(field) != live.get(field):
                self.mismatches.append(
                    f"rank {rank}: {field} diverged "
                    f"(checkpoint {stored.get(field)!r}, replay {live.get(field)!r})"
                )
        stored_guest, live_guest = stored.get("guest"), live.get("guest")
        if (stored_guest is None) != (live_guest is None):
            self.mismatches.append(f"rank {rank}: guest-state presence diverged")
        elif stored_guest is not None:
            for field in ("memory_pages", "memory_digest", "globals", "tables"):
                if stored_guest.get(field) != live_guest.get(field):
                    self.mismatches.append(f"rank {rank}: guest {field} diverged")

    # ------------------------------------------------------------------ results

    def build(self, job: Optional[dict] = None) -> dict:
        """Assemble the checkpoint payload from the captured rank states."""
        world = next((runtime.world for runtime in self._runtimes.values()), None)
        payload: dict = {
            "format": FORMAT,
            "version": VERSION,
            "job": job or self.job,
            "at_round": self.at_round,
            "nranks": world.nranks if world is not None else len(self.captured),
            "ranks": [self.captured[r] for r in sorted(self.captured)],
            "matching": (
                {
                    "pending_count": world.matching.pending_count(),
                    "pending": world.matching.describe_pending(),
                }
                if world is not None
                else None
            ),
        }
        return payload

    def write(self, path) -> Path:
        if not self.captured:
            raise CheckpointError(
                f"no rank reached round crossing {self.at_round}; nothing to checkpoint"
            )
        return write_checkpoint(self.build(), path)


# ---------------------------------------------------------------------- arming


@contextmanager
def capture_checkpoint(
    at_round: int,
    job: Optional[dict] = None,
    include_memory: bool = True,
    validate_against: Optional[Checkpoint] = None,
):
    """Arm a capture (or replay validation) for the jobs this thread starts
    during the block; yields the :class:`CheckpointCapture`."""
    if current_hooks().capture is not None:
        raise RuntimeError("a checkpoint capture is already armed")
    capture = CheckpointCapture(
        at_round, job=job, include_memory=include_memory,
        validate_against=validate_against,
    )
    with installed(capture=capture):
        yield capture


# ---------------------------------------------------------------------- resume


def job_descriptor(
    benchmark: str,
    nranks: int,
    mode: str = "wasm",
    backend: Optional[str] = None,
    machine: Optional[str] = None,
    params: Optional[dict] = None,
    guest_args: Optional[list] = None,
    algorithms: Optional[dict] = None,
    seed: Optional[int] = None,
) -> dict:
    """The job block a checkpoint stores so a fresh process can resume it."""
    return {
        "benchmark": benchmark,
        "nranks": int(nranks),
        "mode": mode,
        "backend": backend,
        "machine": machine,
        "params": dict(params or {}),
        "guest_args": list(guest_args or []),
        "algorithms": dict(algorithms or {}),
        "seed": seed,
    }


def resume_from_checkpoint(source, session=None, validate: bool = True):
    """Resume a checkpointed job: deterministic replay with state validation.

    Re-runs the checkpoint's job descriptor from the start; as each rank
    crosses the checkpointed round boundary its live state is checked against
    the snapshot (``validate=True``), proving the resumed execution passes
    through the exact captured state before continuing to completion.
    Returns the finished :class:`repro.api.JobResult`.
    """
    import random

    import numpy as np

    ckpt = source if isinstance(source, Checkpoint) else load_checkpoint(source)
    job = ckpt.job
    if not job:
        raise CheckpointError("checkpoint carries no job descriptor; cannot resume")

    # Late imports: repro.api pulls in the runtime stack, which imports this
    # module for its capture hooks.
    from repro.api.registry import BENCHMARKS
    from repro.api.session import current_session

    seed = job.get("seed")
    if seed is not None:
        random.seed(seed)
        np.random.seed(int(seed) % 2**32)
    program = BENCHMARKS.get(job["benchmark"])(**job.get("params") or {})
    sess = session if session is not None else current_session()
    run_kwargs: dict = {"mode": job.get("mode", "wasm")}
    if job.get("backend"):
        run_kwargs["backend"] = job["backend"]
    if job.get("machine"):
        run_kwargs["machine"] = job["machine"]
    if job.get("guest_args"):
        run_kwargs["guest_args"] = job["guest_args"]
    if job.get("algorithms"):
        run_kwargs["algorithms"] = job["algorithms"]
    with capture_checkpoint(
        ckpt.at_round, include_memory=False,
        validate_against=ckpt if validate else None,
    ) as replay:
        result = sess.run(program, job["nranks"], **run_kwargs)
    if validate:
        if not replay.captured:
            raise CheckpointStateMismatch(
                f"replay never reached round crossing {ckpt.at_round}"
            )
        if replay.mismatches:
            raise CheckpointStateMismatch(
                "replayed execution diverged from the checkpoint:\n  "
                + "\n  ".join(replay.mismatches)
            )
    return result
