"""Deterministic fault injection.

A :class:`FaultPlan` is a seeded, serializable list of :class:`Fault`\\ s --
kill a rank at its N-th call of a named MPI function or at a schedule-round
crossing, drop or corrupt a matching message payload, or delay a link.  Plans
round-trip through JSON, so a campaign matrix can sweep them like any other
axis.

:func:`inject_faults` arms a plan as the ``faults`` hook of the jobs its
thread starts (:mod:`repro.obs.hooks`).  Like the job's tracer, the hooks in
``mpi/runtime.py``, ``pt2pt.py`` and ``algorithms/schedule.py`` test it
against ``None`` first, so a disabled plan costs one attribute read per site.

Faults are *one-shot*: once fired they record themselves and disarm, so a
recovery layer can re-run the job with the already-fired faults excluded
(:func:`repro.fault.recover.run_with_recovery` does exactly that) and the
second attempt runs clean.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.hooks import current_hooks, installed
from repro.obs.trace import TraceRecorder

#: Recognised fault kinds.
KINDS = ("kill_rank", "drop_message", "corrupt_message", "delay_link")

#: Wildcard rank (matches any rank / endpoint).
ANY = -1


class InjectedFault(Exception):
    """Raised on the victim rank when a ``kill_rank`` fault fires.

    Propagates out of the rank's program, so the engine reports the rank as
    FAILED exactly as a genuine crash would -- recovery layers recognise the
    failure as injected by inspecting the error chain.
    """

    def __init__(self, rank: int, fault: "Fault", index: int, at: float):
        self.rank = rank
        self.fault = fault
        self.index = index
        self.at = at
        super().__init__(
            f"injected fault #{index} ({fault.describe()}) killed rank {rank} at t={at:.9f}"
        )


@dataclass(frozen=True)
class Fault:
    """One injectable fault.

    ``kill_rank`` fires on the victim's ``call_index``-th call of the MPI
    entry point named ``call`` (e.g. ``"MPI_Allreduce"``), or -- when ``call``
    is empty -- on its ``round``-th schedule-round crossing.  The message
    kinds fire on the ``match_index``-th message from ``src`` to ``dst``
    (world ranks; :data:`ANY` is a wildcard): ``drop_message`` swallows the
    payload (the sender completes, the receiver never matches it),
    ``corrupt_message`` deterministically flips payload bytes (seeded), and
    ``delay_link`` adds ``delay`` seconds to the transfer.
    """

    kind: str
    rank: int = ANY
    call: str = ""
    call_index: int = 0
    round: int = -1
    src: int = ANY
    dst: int = ANY
    match_index: int = 0
    delay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (expected one of {KINDS})")
        if self.kind == "kill_rank" and not self.call and self.round < 0:
            raise ValueError("kill_rank needs a 'call' name or a 'round' number")
        if self.kind == "delay_link" and self.delay <= 0.0:
            raise ValueError("delay_link needs a positive 'delay'")

    def describe(self) -> str:
        if self.kind == "kill_rank":
            where = f"call {self.call}[{self.call_index}]" if self.call else f"round {self.round}"
            return f"kill_rank rank={self.rank} at {where}"
        return f"{self.kind} src={self.src} dst={self.dst} match={self.match_index}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, mapping: dict) -> "Fault":
        return cls(**mapping)


@dataclass(frozen=True)
class FaultPlan:
    """A serializable, seeded collection of faults."""

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> dict:
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, mapping: dict) -> "FaultPlan":
        return cls(
            faults=tuple(Fault.from_dict(f) for f in mapping.get("faults", ())),
            seed=int(mapping.get("seed", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def _corrupt(data: bytes, plan_seed: int, fault: Fault) -> bytes:
    """Deterministically flip payload bytes (keyed stream from blake2b)."""
    if not data:
        return data
    key = f"{plan_seed}:{fault.seed}:{len(data)}".encode()
    pad = hashlib.blake2b(key, digest_size=32).digest()
    out = bytearray(data)
    span = min(len(out), len(pad))
    for i in range(span):
        out[i] ^= pad[i] or 0x5A  # never a zero mask: every touched byte flips
    return bytes(out)


class ActivePlan:
    """An armed plan: per-site match counters plus the fired-fault record.
    Each hook records a firing into the job's ``tracer`` (``None``: off)."""

    def __init__(self, plan: FaultPlan, disarmed: Iterable[int] = ()):
        self.plan = plan
        self.disarmed = set(disarmed)
        self.fired: List[dict] = []
        self._call_counts: Dict[Tuple[int, str], int] = {}
        self._round_counts: Dict[int, int] = {}
        self._msg_counts: Dict[int, int] = {}

    # ------------------------------------------------------------- bookkeeping

    def _armed(self, kinds: Tuple[str, ...]) -> List[Tuple[int, Fault]]:
        return [
            (i, f) for i, f in enumerate(self.plan.faults)
            if f.kind in kinds and i not in self.disarmed
        ]

    def _fire(self, index: int, fault: Fault, rank: int, now: float,
              tracer: Optional[TraceRecorder], **extra) -> dict:
        self.disarmed.add(index)  # one-shot
        event = {
            "fault": index,
            "kind": fault.kind,
            "rank": rank,
            "at": now,
            "detail": fault.describe(),
            **extra,
        }
        self.fired.append(event)
        if tracer is not None:
            tracer.instant(
                "fault.injected", max(rank, 0), now,
                args={k: v for k, v in event.items() if k != "at"},
            )
        return event

    def fired_indices(self) -> List[int]:
        return [event["fault"] for event in self.fired]

    # ------------------------------------------------------------------- hooks

    def on_mpi_call(self, rank: int, name: str, now: float,
                    tracer: Optional[TraceRecorder]) -> None:
        """Hook from ``_traced``: fires ``kill_rank`` at-call faults."""
        key = (rank, name)
        count = self._call_counts.get(key, 0)
        self._call_counts[key] = count + 1
        for index, fault in self._armed(("kill_rank",)):
            if not fault.call or fault.call != name:
                continue
            if fault.rank not in (ANY, rank) or fault.call_index != count:
                continue
            self._fire(index, fault, rank, now, tracer, call=name, call_index=count)
            raise InjectedFault(rank, fault, index, now)

    def on_schedule_round(self, rank: int, now: float,
                          tracer: Optional[TraceRecorder]) -> None:
        """Hook from the schedule executor: fires ``kill_rank`` at-round faults.

        Rounds are counted per rank across *all* collectives of the run (the
        N-th round boundary this rank crosses), which is deterministic under
        the cooperative engine.
        """
        crossing = self._round_counts.get(rank, 0)
        self._round_counts[rank] = crossing + 1
        for index, fault in self._armed(("kill_rank",)):
            if fault.call or fault.round < 0:
                continue
            if fault.rank not in (ANY, rank) or fault.round != crossing:
                continue
            self._fire(index, fault, rank, now, tracer, round=crossing)
            raise InjectedFault(rank, fault, index, now)

    def on_message(
        self, src_world: int, dst_world: int, data: bytes, now: float,
        tracer: Optional[TraceRecorder],
    ) -> Tuple[str, bytes, float]:
        """Hook from ``post_send``: returns ``(verdict, payload, extra_delay)``.

        ``verdict`` is ``"deliver"`` or ``"drop"``.  Counters are per fault,
        over the messages matching that fault's ``(src, dst)`` pattern.
        """
        verdict = "deliver"
        extra_delay = 0.0
        for index, fault in self._armed(("drop_message", "corrupt_message", "delay_link")):
            if fault.src not in (ANY, src_world) or fault.dst not in (ANY, dst_world):
                continue
            seen = self._msg_counts.get(index, 0)
            self._msg_counts[index] = seen + 1
            if seen != fault.match_index:
                continue
            self._fire(index, fault, src_world, now, tracer, src=src_world, dst=dst_world,
                       nbytes=len(data))
            if fault.kind == "drop_message":
                verdict = "drop"
            elif fault.kind == "corrupt_message":
                data = _corrupt(data, self.plan.seed, fault)
            elif fault.kind == "delay_link":
                extra_delay += fault.delay
        return verdict, data, extra_delay


# ----------------------------------------------------------------------- arming


@contextmanager
def inject_faults(plan: FaultPlan, disarmed: Iterable[int] = ()):
    """Arm ``plan`` for the jobs this thread starts during the block; yields
    the :class:`ActivePlan` (its ``fired`` record)."""
    if current_hooks().faults is not None:
        raise RuntimeError("a fault plan is already armed")
    with installed(faults=ActivePlan(plan, disarmed)) as hooks:
        yield hooks.faults
