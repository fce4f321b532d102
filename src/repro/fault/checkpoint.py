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
import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.hooks import current_hooks, installed

FORMAT = "repro.fault.checkpoint"
VERSION = 1


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


def load_checkpoint(path) -> Checkpoint:
    """Load and verify (format, version, content digest) a checkpoint file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise CheckpointError(f"{path} is not a {FORMAT} document")
    if payload.get("version") != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads version {VERSION})"
        )
    expected = payload.get("digest")
    actual = content_digest(payload)
    if expected != actual:
        raise CheckpointError(
            f"checkpoint {path} digest mismatch: stored {expected}, computed {actual}"
        )
    return Checkpoint(payload, path)


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
