"""Point-to-point message matching engine.

One :class:`MatchingEngine` instance is shared by every rank of a simulation
(it is the ``MPIWorld``'s ``matching``).  It implements the MPI matching
rules -- messages match on (communicator context, source, tag) in send order,
with ``ANY_SOURCE``/``ANY_TAG`` wildcards -- and drives the virtual-time
accounting for sends and receives using the cluster's transport models:

* the sender is charged the transport's injection overhead,
* the message "arrives" at ``send_time + latency + size/bandwidth``,
* the receiver's clock advances to at least the arrival time,
* messages larger than the transport's eager threshold use a rendezvous
  protocol: the send completes only once the receiver has drained the
  message -- the sender waits for that in the runtime's one wait, like
  every other blocking MPI call (the engine itself never blocks a sender).

Data movement is real: send buffers are copied into the message at injection
time and copied out into the receive buffer at match time, so every benchmark
and test validates actual payloads, not just timings.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.mpi.errors import TruncationError
from repro.obs.hooks import JobHooks
from repro.sim.cluster import Cluster
from repro.sim.engine import RankContext

# Wildcards (host-side symbolic values; the guest ABI defines its own).
ANY_SOURCE = -1
ANY_TAG = -1
PROC_NULL = -2


class Message:
    """An in-flight (or buffered) point-to-point message.

    A slotted record built positionally: one is created per message sent.
    """

    __slots__ = ("msg_id", "src_world", "dst_world", "context_id", "tag", "data",
                 "send_time", "rendezvous", "consumed", "consumed_time", "arrival")

    def __init__(self, msg_id: int, src_world: int, dst_world: int, context_id: int,
                 tag: int, data: bytes, send_time: float, rendezvous: bool):
        self.msg_id = msg_id
        self.src_world = src_world
        self.dst_world = dst_world
        self.context_id = context_id
        self.tag = tag
        self.data = data
        self.send_time = send_time
        self.rendezvous = rendezvous
        self.consumed = False
        self.consumed_time = 0.0
        # When the last byte is on the receiver; set when it is consumed.
        self.arrival = 0.0


class MatchingEngine:
    """Shared MPI message-matching and timing engine.

    Parameters
    ----------
    cluster:
        Supplies the per-pair transport models.
    hooks:
        The job's hooks: its tracer and fault plan (``None`` when off).

    A post buffers a message and a consume takes a buffered match or reports
    that there is none; neither waits.  :meth:`block_for_any` is the one
    place a rank blocks.
    """

    def __init__(self, cluster: Cluster, hooks: JobHooks):
        self.cluster = cluster
        self._tracer = hooks.tracer
        self._faults = hooks.faults
        self._queues: Dict[Tuple[int, int], List[Message]] = {}
        # The ``(context_id, src, tag)`` patterns each blocked rank waits on
        # (a rank is in at most one block at a time): ``block_for_any`` is
        # the one place a rank registers them.
        self._waiting: Dict[int, List[Tuple[int, int, int]]] = {}
        self._msg_counter = itertools.count(1)
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _matches(msg: Message, src: int, tag: int) -> bool:
        if src != ANY_SOURCE and msg.src_world != src:
            return False
        if tag != ANY_TAG and msg.tag != tag:
            return False
        return True

    def probe_match(
        self, dst_world: int, context_id: int, src: int, tag: int
    ) -> Optional[Message]:
        """The first matching buffered message, not consumed (``MPI_Iprobe``)."""
        # ``get``, not ``setdefault``: a probe must not create an empty queue.
        for msg in self._queues.get((dst_world, context_id), ()):
            if self._matches(msg, src, tag):
                return msg
        return None

    # -------------------------------------------------------------------- send

    def post_send(
        self,
        ctx: RankContext,
        src_world: int,
        dst_world: int,
        context_id: int,
        tag: int,
        data: bytes,
    ) -> Message:
        """Inject a message without blocking.

        Returns the :class:`Message` record: a rendezvous send is complete
        once the receiver has consumed it (``consumed``/``consumed_time``).
        """
        nbytes = len(data)
        transport = self.cluster.transport(src_world, dst_world)
        # ``bytes(data)`` is the message's own copy of the payload -- the one
        # copy an injection makes (``data`` may be a view of the sender's buffer).
        msg = Message(
            next(self._msg_counter), src_world, dst_world, context_id, tag, bytes(data),
            ctx.advance(transport.send_overhead(nbytes)),
            transport.is_rendezvous(nbytes),
        )
        if self._faults is not None:
            verdict, payload, extra_delay = self._faults.on_message(
                src_world, dst_world, msg.data, ctx.now, self._tracer
            )
            if verdict == "drop":
                # The sender completes normally (the bytes left its NIC); the
                # message simply never reaches the destination queue.
                self.messages_sent += 1
                self.bytes_sent += nbytes
                msg.consumed = True
                msg.consumed_time = ctx.now
                return msg
            msg.data = payload
            # Delaying the injection instant shifts the arrival by the same
            # amount everywhere it is derived (wake targets and consumption).
            msg.send_time += extra_delay
        self._queues.setdefault((dst_world, context_id), []).append(msg)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self._tracer is not None:
            self._tracer.instant(
                "pt2pt.post", src_world, ctx.now,
                args={"dst": dst_world, "tag": tag, "nbytes": nbytes,
                      "rendezvous": msg.rendezvous},
            )
        # Wake the receiver if it is blocked on any matching pattern.  It may
        # match the message from its injection on -- exactly when a receiver
        # that checks its queue finds it -- and its consumer accounts for
        # the arrival as for any buffered match.
        for waited_context, src, waited_tag in self._waiting.get(dst_world, ()):
            if waited_context == context_id and self._matches(msg, src, waited_tag):
                ctx.wake(dst_world, not_before=msg.send_time)
                break
        return msg

    # ---------------------------------------------------------- any-of waiting

    def block_for_any(
        self,
        ctx: RankContext,
        dst_world: int,
        patterns: List[Tuple[int, int, int]],
        reason: str = "",
        wake_at: Optional[float] = None,
    ) -> None:
        """Block until a message matching *any* ``(context_id, src, tag)``
        pattern is buffered for ``dst_world`` -- or until any wake arrives
        (e.g. a rendezvous send draining), or virtual time ``wake_at``.

        Returns immediately when a match is already buffered.  This is a
        condition-variable style wait: callers re-check their own completion
        condition after it returns.  The runtime's one wait blocks here, so
        a rank in any blocking call resumes as soon as *any* of its
        outstanding requests can make progress, rather than pinning itself to
        the one it waits for.
        """
        for context_id, src, tag in patterns:
            if self.probe_match(dst_world, context_id, src, tag) is not None:
                return
        self._waiting[dst_world] = patterns
        try:
            ctx.block(reason or f"wait-any on {len(patterns)} request(s)", wake_at=wake_at)
        finally:
            del self._waiting[dst_world]

    # -------------------------------------------------------------------- recv

    def consume(
        self,
        ctx: RankContext,
        dst_world: int,
        context_id: int,
        src: int,
        tag: int,
        buffer: Optional[memoryview],
        max_bytes: int,
    ) -> Optional[Message]:
        """Consume the first matching buffered message, never waiting.

        One scan of the queue.  Charges only the receiver's CPU overhead and
        records the arrival time on the returned message (``arrival``)
        instead of advancing the clock to it -- the caller decides when the
        *data* dependency bites: ``MPI_Recv`` at once, a schedule when a
        step reads the bytes (that separation is what lets a non-blocking
        collective overlap its transfer time with caller compute).  Returns
        ``None`` when nothing matches.
        """
        queue = self._queues.get((dst_world, context_id))
        if not queue:
            return None
        for index, msg in enumerate(queue):
            if self._matches(msg, src, tag):
                break
        else:
            return None
        if self._tracer is not None:
            self._tracer.instant(
                "pt2pt.match", dst_world, ctx.now,
                args={"src": msg.src_world, "tag": msg.tag, "nbytes": len(msg.data)},
            )
        del queue[index]
        msg.arrival = self._consume(ctx, msg, buffer, max_bytes)
        return msg

    def _consume(
        self,
        ctx: RankContext,
        msg: Message,
        buffer: Optional[memoryview],
        max_bytes: int,
    ) -> float:
        """Shared consumption core of a dequeued message: charge the
        receiver's CPU overhead, write the payload straight into ``buffer``
        (the one copy a delivery makes), complete a rendezvous.  Returns the
        arrival time (when the last byte is on the receiver); the caller
        chooses whether to advance the clock to it.

        A message larger than ``max_bytes`` raises :class:`TruncationError`
        (``MPI_ERR_TRUNCATE``) -- to the receiver only: the send still
        completes at the arrival time, so a rendezvous sender is woken first.
        """
        nbytes = len(msg.data)
        transport = self.cluster.transport(msg.src_world, msg.dst_world)
        arrival = msg.send_time + transport.transfer_time(nbytes)
        if nbytes > max_bytes:
            self._complete(ctx, msg, arrival)
            raise TruncationError(
                f"message of {nbytes} bytes truncated by receive buffer of {max_bytes} bytes"
            )
        ctx.advance(transport.recv_overhead(nbytes))
        if buffer is not None and nbytes > 0:
            buffer[:nbytes] = msg.data
        self._complete(ctx, msg, max(ctx.now, arrival))
        if self._tracer is not None:
            self._tracer.instant(
                "pt2pt.consume", msg.dst_world, ctx.now,
                args={"src": msg.src_world, "tag": msg.tag, "nbytes": nbytes,
                      "arrival": arrival, "rendezvous": msg.rendezvous},
            )
        return arrival

    @staticmethod
    def _complete(ctx: RankContext, msg: Message, when: float) -> None:
        """Mark ``msg`` consumed at ``when``; wake a rendezvous sender (it may
        be blocked waiting for the drain)."""
        msg.consumed = True
        msg.consumed_time = when
        if msg.rendezvous:
            ctx.wake(msg.src_world, not_before=when)

    # ------------------------------------------------------------- diagnostics

    def pending_count(self) -> int:
        """Total number of buffered, unconsumed messages (for leak checks)."""
        return sum(len(q) for q in self._queues.values())

    def describe_pending(self) -> List[str]:
        """Human-readable list of buffered messages (test diagnostics)."""
        out = []
        for (dst, ctx_id), q in self._queues.items():
            for m in q:
                out.append(
                    f"msg#{m.msg_id} {m.src_world}->{dst} ctx={ctx_id} tag={m.tag} bytes={len(m.data)}"
                )
        return out
