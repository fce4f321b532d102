"""Cross-rank static analyzer for collective schedules.

For one ``(collective, algorithm, nranks, nbytes)`` point this module builds
*every* rank's :class:`~repro.mpi.algorithms.schedule.Schedule` from the
registered builder and verifies, without executing anything:

* **send/recv matching** -- every :class:`SendStep` pairs with exactly one
  :class:`RecvStep` on the peer (same byte count, FIFO order per
  ``(src, dst, tag)`` channel, exactly the matching-engine discipline the
  runtime uses); orphans on either side are errors.
* **deadlock freedom** -- sends are posted non-blocking by the executor, so
  only receives block; the cross-rank wait-for graph (program order per rank
  plus recv -> matching-send edges) is checked for cycles by a worklist
  topological traversal, and an offending cycle is printed rank by rank.
* **byte conservation** -- per rank, every byte a step reads (send payload,
  copy/reduce sources, the reduce accumulator) must have been written by an
  earlier step or be caller-initialized; temporaries start unwritten, so a
  read-before-write on a temp is an error, as is any buffer overrun.
* **result coverage** -- the collective's output buffer must be fully
  written on every rank that owns one (e.g. ``recv`` on an allgather rank,
  ``data`` on a non-root bcast rank).

The :func:`sweep` driver runs every registered builder across a log-spaced
rank set (up to 4096 by default).  Builders with O(p) steps per rank cost
O(p^2) total steps, which pure-Python construction cannot do at 4096 ranks
in reasonable time, so the sweep carries a per-point step budget: oversized
points are skipped with an explicit ``NOTE`` finding (never silently) and
``max_steps=0`` removes the cap.  ROADMAP item 3's hierarchical builders
should clear this sweep before registration (see docs/ANALYSIS.md).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Report
from repro.mpi.algorithms import registry
from repro.mpi.algorithms.schedule import (
    CopyStep,
    RecvStep,
    ReduceStep,
    Schedule,
    SendStep,
    get_builder,
)

#: Element size used when a byte count must be turned into an element count
#: for the reduction collectives (value is irrelevant to the invariants).
ESIZE = 4

#: Per-point construction budget (total steps across all ranks) used by the
#: default sweep; chosen so a full sweep stays minutes, not hours, while the
#: logarithmic-step algorithms still reach 4096 ranks.
DEFAULT_MAX_STEPS = 2_000_000


def parse_nranks_spec(spec: str) -> List[int]:
    """Parse a ``--nranks`` spec into a sorted rank-count list.

    ``"8"`` one point; ``"2,3,8"`` a list; ``"2:64"`` every integer in the
    inclusive range; ``"2:4096:log"`` powers of two from lo to hi.
    """
    spec = spec.strip()
    if "," in spec:
        values = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    elif ":" in spec:
        parts = spec.split(":")
        if len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
            values = list(range(lo, hi + 1))
        elif len(parts) == 3 and parts[2] == "log":
            lo, hi = int(parts[0]), int(parts[1])
            values, p = [], max(2, lo)
            while p <= hi:
                values.append(p)
                p *= 2
        else:
            raise ValueError(f"bad nranks spec {spec!r} (want N, N,M,..., lo:hi or lo:hi:log)")
    else:
        values = [int(spec)]
    if not values or min(values) < 2:
        raise ValueError(f"bad nranks spec {spec!r}: rank counts must be >= 2")
    return values


#: Default sweep rank set: log-spaced to 4096 plus non-powers-of-two that
#: exercise the fold/unfold and uneven-chunk paths.
DEFAULT_SWEEP_NRANKS: Tuple[int, ...] = tuple(sorted(
    set(parse_nranks_spec("2:4096:log")) | {3, 5, 6, 7, 12, 25, 100}
))

#: Default payload sizes: a degenerate single element and a multi-chunk one.
DEFAULT_NBYTES: Tuple[int, ...] = (4, 4096)


def registered_points() -> List[Tuple[str, str]]:
    """Every registered ``(collective, algorithm)`` -- each is a schedule builder."""
    return [
        (collective, algorithm)
        for collective, algorithms in sorted(registry.catalog().items())
        for algorithm in algorithms
    ]


def _block(row: registry.Contract, nbytes: int) -> Tuple[int, int]:
    """``(count, esize)`` of one ``nbytes`` block as ``row``'s builders see it:
    element-rounded for the reduction collectives, plain bytes otherwise."""
    return (max(1, nbytes // ESIZE), ESIZE) if row.payload == registry.ELEMENTS else (nbytes, 1)


def build_schedule(collective: str, algorithm: str, rank: int, size: int,
                   nbytes: int, root: int = 0, seq: int = 0) -> Schedule:
    """Build one rank's schedule through the registered builder, called the
    way the collective's contract row says."""
    row = registry.CONTRACTS[collective]
    count, esize = _block(row, nbytes)
    return row.build(get_builder(collective, algorithm), rank, size, count, esize, root, seq)


def _rank_buffers(collective: str, rank: int, size: int, nbytes: int, root: int):
    """Caller-buffer contract of one rank: (known sizes, prewritten, output).

    ``known`` maps buffer name -> byte size for every caller-supplied buffer;
    ``prewritten`` names the ones the caller initializes (readable from step
    0); ``output`` is the ``(name, size)`` the collective must fully write on
    this rank (``None`` when the rank produces no result, e.g. non-root
    reduce), with prewritten outputs treated as already covered.
    """
    row = registry.CONTRACTS[collective]
    count, esize = _block(row, nbytes)
    source, in_bytes, result, out_bytes = row.buffers(
        row.rooted and rank == root, count * esize, size)
    known: Dict[str, int] = {}
    prewritten, output = frozenset(), None
    if source is not None:
        known[source.key] = in_bytes
        prewritten = frozenset([source.key])
    if result is not None:
        known[result.key] = out_bytes
        output = (result.key, out_bytes)
    return known, prewritten, output


class _IntervalSet:
    """Sorted, merged half-open byte intervals with coverage queries."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, full: Optional[int] = None):
        self._starts: List[int] = []
        self._ends: List[int] = []
        if full is not None and full > 0:
            self._starts.append(0)
            self._ends.append(full)

    def add(self, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        i = bisect.bisect_left(self._ends, lo)          # first interval ending >= lo
        j = bisect.bisect_right(self._starts, hi)       # first interval starting > hi
        if i < j:  # overlaps/touches intervals [i, j)
            lo = min(lo, self._starts[i])
            hi = max(hi, self._ends[j - 1])
        self._starts[i:j] = [lo]
        self._ends[i:j] = [hi]

    def covers(self, lo: int, hi: int) -> bool:
        if hi <= lo:
            return True
        i = bisect.bisect_right(self._starts, lo) - 1
        return i >= 0 and self._ends[i] >= hi

    def missing(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Sub-intervals of ``[lo, hi)`` not covered by this set."""
        gaps: List[Tuple[int, int]] = []
        pos = lo
        i = bisect.bisect_right(self._ends, lo)
        while pos < hi and i < len(self._starts):
            s, e = self._starts[i], self._ends[i]
            if s > pos:
                gaps.append((pos, min(s, hi)))
            pos = max(pos, e)
            i += 1
        if pos < hi:
            gaps.append((pos, hi))
        return gaps


class _RankComms:
    """One rank's communication steps: what cross-rank analysis retains."""

    __slots__ = ("sends", "recvs", "n_steps")

    def __init__(self) -> None:
        self.sends: List[Tuple[int, SendStep]] = []   # (flat pc, step)
        self.recvs: List[Tuple[int, RecvStep]] = []
        self.n_steps = 0


def _check_rank_local(
    report: Report,
    loc: str,
    rank: int,
    schedule: Schedule,
    known: Dict[str, int],
    prewritten: frozenset,
    output: Optional[Tuple[str, int]],
) -> _RankComms:
    """Single in-order pass over one rank's steps: byte conservation,
    bounds, and result coverage; returns the retained comm steps."""
    written: Dict[str, _IntervalSet] = {}
    sizes = dict(known)
    for name, size in schedule.temps.items():
        sizes[name] = max(sizes.get(name, 0), size)
    for name in prewritten:
        written[name] = _IntervalSet(full=sizes.get(name, 0))

    def _where(pc: int, step) -> str:
        return f"{loc} rank {rank} step {pc} [{step.describe()}]"

    def _check_ref(pc, step, name, lo, hi, reads: bool, writes: bool) -> None:
        size = sizes.get(name)
        if size is None:
            report.error("schedule", "undeclared-buffer",
                         f"references buffer {name!r} never declared or supplied",
                         _where(pc, step))
            return
        if lo < 0 or hi > size:
            report.error("schedule", "buffer-overrun",
                         f"touches {name}[{lo}:{hi}) outside its {size} bytes",
                         _where(pc, step))
            return
        if reads and hi > lo:
            ivs = written.get(name)
            if ivs is None or not ivs.covers(lo, hi):
                gaps = [] if ivs is None else ivs.missing(lo, hi)
                gap_text = ", ".join(f"[{a}:{b})" for a, b in (gaps or [(lo, hi)])[:4])
                report.error("schedule", "read-before-write",
                             f"reads {name}[{lo}:{hi}) before bytes {gap_text} "
                             "were written", _where(pc, step))
        if writes and hi > lo:
            written.setdefault(name, _IntervalSet()).add(lo, hi)

    comms = _RankComms()
    flat = schedule.flat()
    comms.n_steps = len(flat)
    for pc, step in enumerate(flat):
        if isinstance(step, SendStep):
            if step.buf is not None:
                _check_ref(pc, step, step.buf, step.lo, step.lo + step.nbytes,
                           reads=True, writes=False)
            comms.sends.append((pc, step))
        elif isinstance(step, RecvStep):
            if step.buf is not None:
                _check_ref(pc, step, step.buf, step.lo, step.lo + step.nbytes,
                           reads=False, writes=True)
            comms.recvs.append((pc, step))
        elif isinstance(step, CopyStep):
            _check_ref(pc, step, step.src, step.slo, step.slo + step.nbytes,
                       reads=True, writes=False)
            _check_ref(pc, step, step.dst, step.dlo, step.dlo + step.nbytes,
                       reads=False, writes=True)
        elif isinstance(step, ReduceStep):
            nbytes = step.count * ESIZE
            dlo = step.elem_offset * ESIZE
            _check_ref(pc, step, step.src, step.slo, step.slo + nbytes,
                       reads=True, writes=False)
            # The accumulator is read *and* written: combining into
            # uninitialized bytes is exactly the bug this check exists for.
            _check_ref(pc, step, step.dst, dlo, dlo + nbytes,
                       reads=True, writes=True)
        else:
            report.error("schedule", "unknown-step",
                         f"unrecognized step type {type(step).__name__}",
                         f"{loc} rank {rank} step {pc}")

    if output is not None:
        name, size = output
        ivs = written.get(name)
        gaps = ivs.missing(0, size) if ivs is not None else ([(0, size)] if size else [])
        if gaps:
            gap_text = ", ".join(f"[{a}:{b})" for a, b in gaps[:4])
            more = f" (+{len(gaps) - 4} more gaps)" if len(gaps) > 4 else ""
            report.error("schedule", "incomplete-result",
                         f"output buffer {name!r} ({size} bytes) is never written "
                         f"at {gap_text}{more}", f"{loc} rank {rank}")
    return comms


def _check_cross_rank(report: Report, loc: str, comms: List[_RankComms]) -> None:
    """Send/recv matching and deadlock freedom across all ranks."""
    p = len(comms)

    # ------------------------------------------------ channel-FIFO matching
    send_groups: Dict[Tuple[int, int, int], List[Tuple[int, SendStep]]] = {}
    recv_groups: Dict[Tuple[int, int, int], List[Tuple[int, RecvStep]]] = {}
    for rank, comm in enumerate(comms):
        for pc, step in comm.sends:
            if not 0 <= step.peer < p or step.peer == rank:
                report.error("schedule", "bad-peer",
                             f"send peer {step.peer} invalid for {p} ranks",
                             f"{loc} rank {rank} step {pc} [{step.describe()}]")
                continue
            send_groups.setdefault((rank, step.peer, step.tag), []).append((pc, step))
        for pc, step in comm.recvs:
            if not 0 <= step.peer < p or step.peer == rank:
                report.error("schedule", "bad-peer",
                             f"recv peer {step.peer} invalid for {p} ranks",
                             f"{loc} rank {rank} step {pc} [{step.describe()}]")
                continue
            recv_groups.setdefault((step.peer, rank, step.tag), []).append((pc, step))

    # recv_match[dst][k] = (recv pc, sender rank, sender pc, send step, recv step)
    recv_match: List[List[Tuple[int, Optional[int], int, Optional[SendStep], RecvStep]]] = [
        [] for _ in range(p)
    ]
    orphans = 0
    for key in sorted(set(send_groups) | set(recv_groups)):
        src, dst, tag = key
        sends = send_groups.get(key, [])
        recvs = recv_groups.get(key, [])
        for k in range(max(len(sends), len(recvs))):
            send = sends[k] if k < len(sends) else None
            recv = recvs[k] if k < len(recvs) else None
            if send is None:
                orphans += 1
                if orphans <= 8:
                    report.error(
                        "schedule", "orphan-recv",
                        f"no matching send on rank {src} (tag {tag})",
                        f"{loc} rank {dst} step {recv[0]} [{recv[1].describe()}]")
                recv_match[dst].append((recv[0], None, -1, None, recv[1]))
                continue
            if recv is None:
                orphans += 1
                if orphans <= 8:
                    report.error(
                        "schedule", "orphan-send",
                        f"no matching recv on rank {dst} (tag {tag})",
                        f"{loc} rank {src} step {send[0]} [{send[1].describe()}]")
                continue
            if send[1].nbytes != recv[1].nbytes:
                report.error(
                    "schedule", "bytes-mismatch",
                    f"send of {send[1].nbytes} bytes [{send[1].describe()}] meets "
                    f"recv of {recv[1].nbytes} bytes on rank {dst} "
                    f"[{recv[1].describe()}]",
                    f"{loc} rank {src} step {send[0]}")
            recv_match[dst].append((recv[0], src, send[0], send[1], recv[1]))
    if orphans > 8:
        report.error("schedule", "orphan-send",
                     f"...{orphans - 8} further unmatched sends/recvs suppressed", loc)
    for entry in recv_match:
        entry.sort()

    # --------------------------------------------------- deadlock simulation
    # Only receives block (the executor posts sends eagerly), so a rank's
    # progress is its index into its ordered recv list; a recv fires once its
    # matching send's rank has executed past the send.  This worklist is
    # Kahn's topological sort specialized to the wait-for graph; leftovers
    # are the ranks on (or behind) a cycle.
    idx = [0] * p
    n_recvs = [len(entry) for entry in recv_match]

    def flat_pc(r: int) -> int:
        return recv_match[r][idx[r]][0] if idx[r] < n_recvs[r] else comms[r].n_steps

    waiters: Dict[int, List[int]] = {}
    stack = list(range(p))
    queued = [True] * p
    while stack:
        r = stack.pop()
        queued[r] = False
        progressed = False
        while idx[r] < n_recvs[r]:
            _pc, src, src_pc, _send, _recv = recv_match[r][idx[r]]
            if src is None:
                break  # unmatched receive: permanently stalled (orphan above)
            if flat_pc(src) > src_pc:
                idx[r] += 1
                progressed = True
            else:
                waiters.setdefault(src, []).append(r)
                break
        if progressed:
            for w in waiters.pop(r, ()):  # senders advanced: re-check waiters
                if not queued[w]:
                    queued[w] = True
                    stack.append(w)

    stuck = [r for r in range(p) if idx[r] < n_recvs[r]]
    if not stuck:
        return
    # Walk the wait-for chain from any stuck rank; in a finite stuck set it
    # must either revisit a rank (a cycle) or end at an orphan stall.
    seen: Dict[int, int] = {}
    chain: List[int] = []
    r = stuck[0]
    while r is not None and r not in seen:
        seen[r] = len(chain)
        chain.append(r)
        r = recv_match[r][idx[r]][1]
    if r is None:
        report.error("schedule", "deadlock-orphan",
                     f"{len(stuck)} rank(s) can never finish: the wait chain "
                     f"ends at rank {chain[-1]}'s unmatched receive", loc)
        return
    cycle = chain[seen[r]:]
    lines = [f"deadlock: cyclic wait across {len(cycle)} rank(s) "
             f"({len(stuck)} rank(s) stuck in total):"]
    for rank in cycle:
        pc, src, src_pc, send, recv = recv_match[rank][idx[rank]]
        lines.append(
            f"  rank {rank} waits at step {pc} [{recv.describe()}] for "
            f"rank {src} to post step {src_pc} [{send.describe()}]")
    report.error("schedule", "deadlock-cycle", "\n".join(lines), loc,
                 cycle=cycle, stuck_ranks=len(stuck))


def check_schedules(
    schedules: Sequence[Schedule],
    collective: str,
    nbytes: int,
    root: int = 0,
    loc: str = "",
    report: Optional[Report] = None,
) -> Report:
    """Statically verify already-built per-rank schedules (rank = index).

    The mutation tests use this entry point directly: build a clean point,
    corrupt one rank's schedule, and assert the right finding appears.
    """
    report = report if report is not None else Report()
    p = len(schedules)
    comms: List[_RankComms] = []
    for rank, schedule in enumerate(schedules):
        known, prewritten, output = _rank_buffers(collective, rank, p, nbytes, root)
        comms.append(_check_rank_local(report, loc, rank, schedule,
                                       known, prewritten, output))
    _check_cross_rank(report, loc, comms)
    return report


def check_point(
    collective: str,
    algorithm: str,
    nranks: int,
    nbytes: int = 1024,
    root: int = 0,
    seq: int = 0,
    report: Optional[Report] = None,
    max_steps: int = 0,
) -> Report:
    """Build and verify one ``(collective, algorithm, nranks, nbytes)`` point.

    ``max_steps`` bounds total construction cost (0 = unlimited); an aborted
    point is recorded as a ``NOTE`` finding, never silently dropped.
    """
    report = report if report is not None else Report()
    loc = f"{collective}/{algorithm} p={nranks} nbytes={nbytes}"
    if registry.CONTRACTS[collective].rooted and root:
        loc += f" root={root}"
    report_start = len(report.findings)
    comms: List[_RankComms] = []
    total = 0
    for rank in range(nranks):
        schedule = build_schedule(collective, algorithm, rank, nranks, nbytes, root, seq)
        total += schedule.n_steps
        if max_steps and total > max_steps:
            del report.findings[report_start:]  # partial local findings
            report.note("schedule", "point-skipped",
                        f"skipped: more than {max_steps} total steps "
                        f"(aborted at rank {rank}/{nranks}); raise --max-steps "
                        "to force", loc)
            return report
        known, prewritten, output = _rank_buffers(collective, rank, nranks, nbytes, root)
        comms.append(_check_rank_local(report, loc, rank, schedule,
                                       known, prewritten, output))
    _check_cross_rank(report, loc, comms)
    return report


def _estimated_oversized(collective: str, algorithm: str, nranks: int,
                         nbytes: int, root: int, max_steps: int) -> bool:
    """Cheap pre-filter: a sound *lower bound* on the point's total steps.

    Samples a few ranks and multiplies the smallest per-rank step count by
    ``nranks`` -- only skips points that are certainly over budget (e.g.
    symmetric O(p)-per-rank builders), never asymmetric false positives like
    ``barrier/linear`` where one rank is heavy and the rest are O(1).
    """
    if not max_steps:
        return False
    sample = sorted({0, 1, nranks // 2, nranks - 1})
    n_min = min(
        build_schedule(collective, algorithm, rank, nranks, nbytes, root).n_steps
        for rank in sample
    )
    return n_min * nranks > max_steps


def sweep(
    collectives: Optional[Iterable[str]] = None,
    algorithms: Optional[Iterable[str]] = None,
    nranks: Optional[Iterable[int]] = None,
    nbytes_list: Iterable[int] = DEFAULT_NBYTES,
    max_steps: int = DEFAULT_MAX_STEPS,
    report: Optional[Report] = None,
) -> Report:
    """Verify every registered builder across a rank/payload grid.

    Root-carrying collectives are additionally checked with non-zero roots at
    small rank counts (root-dependence bugs do not need 4096 ranks to show).
    Emits one summary ``NOTE`` with the checked/skipped point counts.
    """
    report = report if report is not None else Report()
    nranks = list(nranks) if nranks is not None else list(DEFAULT_SWEEP_NRANKS)
    nbytes_list = list(nbytes_list)
    checked = skipped = 0
    for collective, algorithm in registered_points():
        if collectives is not None and collective not in collectives:
            continue
        if algorithms is not None and algorithm not in algorithms:
            continue
        for p in nranks:
            roots = [0]
            if registry.CONTRACTS[collective].rooted and p <= 33:
                roots = sorted({0, 1, p - 1})
            for nbytes in nbytes_list:
                for root in roots:
                    loc = f"{collective}/{algorithm} p={p} nbytes={nbytes}"
                    if _estimated_oversized(collective, algorithm, p, nbytes,
                                            root, max_steps):
                        skipped += 1
                        report.note("schedule", "point-skipped",
                                    f"skipped: at least {p} x per-rank steps "
                                    f"> {max_steps}; raise --max-steps to force",
                                    loc)
                        continue
                    before = len(report.notes)
                    check_point(collective, algorithm, p, nbytes, root,
                                report=report, max_steps=max_steps)
                    if len(report.notes) > before:
                        skipped += 1
                    else:
                        checked += 1
    report.note("schedule", "sweep-summary",
                f"checked {checked} point(s), skipped {skipped} over-budget "
                f"point(s) across {len(registered_points())} builder(s)")
    return report


#: Names exported on the flat ``repro.api`` surface, where ``check_point`` /
#: ``sweep`` would be ambiguous.
check_schedule_point = check_point
schedule_sweep = sweep
