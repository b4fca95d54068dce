"""Reliable FIFO broadcast (Section 3.2 requirements).

The paper requires a broadcast mechanism such that

1. all messages are eventually delivered, and
2. messages broadcast by one node are *processed* at all other nodes in
   the same order as they were sent.

Requirement (1) comes from the :class:`~repro.net.network.Network`
holding messages across partitions.  Requirement (2) is implemented
here with per-sender sequence numbers and a receiver-side reordering
buffer: a receiver hands message ``(sender, k)`` to the application
only after having processed ``(sender, k-1)``.

An optional ``fifo=False`` mode disables the reordering buffer.  It
exists purely for the ablation experiments that demonstrate how mutual
consistency breaks without guarantee (2).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.net.message import Message
from repro.net.network import Network
from repro.obs import taxonomy
from repro.obs.lineage import batch_span_fields

DeliverFn = Callable[[str, int, Any], None]


@dataclass(frozen=True, slots=True)
class SeqPayload:
    """Wire format: sender's broadcast sequence number plus payload.

    ``stream`` names the FIFO channel the sequence number lives on.
    The default stream ``""`` is the classic broadcast-to-all channel;
    per-fragment multicast (partial replication) runs each fragment on
    its own stream so that messages a node never receives (it is not in
    the replica set) cannot leave gaps in the sequence space of the
    messages it does.
    """

    sender: str
    seq: int
    kind: str
    body: Any
    stream: str = ""


class ReliableBroadcast:
    """Per-sender FIFO reliable broadcast over the simulated network.

    Each participating node gets one endpoint (:meth:`attach`) with a
    delivery callback ``deliver(sender, seq, body)``.  Broadcasts are
    sent point-to-point to every other attached node; the sender's own
    callback is invoked synchronously (a node always "hears" its own
    broadcast first, matching the paper's home-node-executes-first
    model).
    """

    def __init__(self, network: Network, fifo: bool = True) -> None:
        self.network = network
        self.fifo = fifo
        self.tracer = network.tracer
        self.metrics = network.metrics
        self._deliver: dict[str, DeliverFn] = {}
        self._next_send_seq: dict[tuple[str, str], int] = defaultdict(int)
        # Per (receiver, sender, stream): next expected sequence number.
        self._next_expected: dict[tuple[str, str, str], int] = defaultdict(int)
        # Per (receiver, sender, stream): out-of-order buffer seq -> payload.
        # Channel dicts are created on first buffering and popped once
        # drained empty, so the dict does not grow with channel count.
        self._buffer: dict[tuple[str, str, str], dict[int, SeqPayload]] = {}
        self.out_of_order_buffered = 0
        self.duplicates_dropped = 0
        self._c_sent = self.metrics.counter("bcast.sent")
        self._c_buffered = self.metrics.counter("bcast.out_of_order_buffered")
        self._c_drained = self.metrics.counter("bcast.drained")
        self._c_duplicates = self.metrics.counter("bcast.duplicates_dropped")
        self.metrics.gauge("bcast.buffered_now", self.buffered_count)

    def attach(self, node: str, deliver: DeliverFn, register: bool = True) -> None:
        """Register ``node`` with its application-level delivery callback.

        With ``register=False`` the caller owns the network registration
        and must route broadcast messages (payload type
        :class:`SeqPayload`) to :meth:`handle_message` itself — this is
        how :class:`repro.core.node.DatabaseNode` multiplexes broadcast
        and unicast traffic over its single network handler.
        """
        self._deliver[node] = deliver
        if register:
            self.network.register(node, self.handle_message)

    def next_seq(self, sender: str, stream: str = "") -> int:
        """The sequence number the next send on ``stream`` will assign.

        Lets the batcher stamp the wire identity on lineage spans
        *before* the broadcast runs the sender's own synchronous
        delivery.
        """
        return self._next_send_seq[(sender, stream)]

    def broadcast(self, sender: str, body: Any, kind: str = "bcast") -> int:
        """Broadcast ``body`` from ``sender``; returns its sequence number.

        The sender's callback runs synchronously before the method
        returns; remote deliveries are scheduled network events.
        """
        return self.multicast(sender, body, kind=kind)

    def multicast(
        self,
        sender: str,
        body: Any,
        kind: str = "bcast",
        targets: Iterable[str] | None = None,
        stream: str = "",
    ) -> int:
        """Send ``body`` to ``targets`` on a FIFO ``stream``.

        ``targets=None`` means every attached node — a broadcast.  A
        restricted target set (partial replication's replica sets) must
        always be paired with its own ``stream``: FIFO sequencing is per
        ``(sender, stream)`` channel, so a receiver only sees gaps for
        messages it was genuinely never sent if those messages live on
        streams it is not a member of.  Callers are responsible for
        keeping the target set of a given stream stable.

        The sender, if a member of the target set, hears its own message
        synchronously before the method returns (the paper's
        home-node-executes-first model); remote deliveries are scheduled
        network events.
        """
        seq = self._next_send_seq[(sender, stream)]
        self._next_send_seq[(sender, stream)] = seq + 1
        self._c_sent.inc()
        payload = SeqPayload(sender, seq, kind, body, stream)
        send = self.network.send  # hoisted: one lookup per fan-out, not per peer
        if targets is None:
            for dst in self._deliver:
                if dst != sender:
                    send(sender, dst, kind, payload)
            # Local synchronous delivery keeps the sender's own replica
            # the first to reflect its broadcast, as the paper assumes.
            self._process(sender, payload)
            return seq
        deliver_local = False
        attached = self._deliver
        for dst in targets:
            if dst == sender:
                deliver_local = True
            elif dst in attached:
                send(sender, dst, kind, payload)
        if deliver_local:
            self._process(sender, payload)
        return seq

    # -- receive path ---------------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Feed one network message carrying a :class:`SeqPayload`."""
        payload: SeqPayload = message.payload
        self._process(message.dst, payload)

    def buffered_count(self) -> int:
        """Payloads currently parked in out-of-order buffers."""
        return sum(len(channel) for channel in self._buffer.values())

    def _process(self, receiver: str, payload: SeqPayload) -> None:
        if not self.fifo:
            self._deliver[receiver](payload.sender, payload.seq, payload.body)
            return
        key = (receiver, payload.sender, payload.stream)
        expected = self._next_expected[key]
        if payload.seq < expected:
            self._note_duplicate(receiver, payload)
            return  # duplicate (e.g. replay + held original)
        if payload.seq > expected:
            channel = self._buffer.setdefault(key, {})
            if payload.seq in channel:
                # A replay and the held original can carry the same seq;
                # only the first sighting counts as buffered.
                self._note_duplicate(receiver, payload)
                return
            channel[payload.seq] = payload
            self.out_of_order_buffered += 1
            self._c_buffered.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.BROADCAST_BUFFER,
                    receiver=receiver,
                    sender=payload.sender,
                    seq=payload.seq,
                    stream=payload.stream,
                    expected=expected,
                    **batch_span_fields(payload),
                )
            return
        self._deliver[receiver](payload.sender, payload.seq, payload.body)
        self._next_expected[key] = expected + 1
        # Drain any buffered successors, then drop the emptied channel
        # dict so per-channel state does not accumulate forever.
        buffered = self._buffer.get(key)
        if buffered is None:
            return
        nxt = expected + 1
        while nxt in buffered:
            queued = buffered.pop(nxt)
            self._c_drained.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.BROADCAST_DRAIN,
                    receiver=receiver,
                    sender=queued.sender,
                    seq=queued.seq,
                    **batch_span_fields(queued),
                )
            self._deliver[receiver](queued.sender, queued.seq, queued.body)
            nxt += 1
            self._next_expected[key] = nxt
        if not buffered:
            self._buffer.pop(key, None)

    def _note_duplicate(self, receiver: str, payload: SeqPayload) -> None:
        self.duplicates_dropped += 1
        self._c_duplicates.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.BROADCAST_DUPLICATE,
                receiver=receiver,
                sender=payload.sender,
                seq=payload.seq,
                **batch_span_fields(payload),
            )
