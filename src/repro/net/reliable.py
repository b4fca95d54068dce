"""Ack/retransmit reliable delivery: the paper's assumption, earned.

Section 3.2 *assumes* "all messages are eventually delivered".  On the
fault-free simulated network that holds by construction (partitions
hold messages, nothing is lost); under the injected loss, duplication,
and jitter of :mod:`repro.net.faults` it does not — so this layer
implements the assumption instead of inheriting it:

* **per-channel sequence numbers** — every application message on a
  ``(src, dst)`` channel is wrapped in an :class:`RPacket` carrying a
  channel-sequence number;
* **retransmit timers** — the sender keeps each packet until it is
  acknowledged, retransmitting with exponential backoff (``base_rto``
  doubling up to ``max_rto``) and a bounded retry budget
  (``max_retries``; exhaustion is counted and traced, never silent);
* **receiver-side dedup + reordering** — the receiver delivers each
  channel sequence number exactly once and in order, buffering gaps,
  so unicast protocol traffic (lock requests/grants, move handshakes,
  majority prepare/ack, M0 forwards) keeps its FIFO-channel contract
  and the broadcast layer above never sees transport-level loss;
* **cumulative + selective acks** — every received packet triggers an
  ack carrying the in-order high-water mark plus the buffered
  out-of-order seqnos, letting the sender retire packets the receiver
  already holds (acks themselves are unacknowledged and may be lost;
  the retransmit path covers them).

Partition awareness: a retransmit timer that fires while the channel
is disconnected re-arms without consuming a retry or sending a copy —
the held original will be released at the heal (the network's
partition semantics), and burning the retry budget against a partition
would turn every long partition into a delivery failure.

Transport state is middleware state: like the broadcast layer's
reorder buffers, it survives node crashes (the paper's node model
loses *database* state, not the network substrate's bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.net.message import Message
from repro.obs import taxonomy
from repro.obs.lineage import batch_span_fields
from repro.sim.events import EventHandle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: Wire kind of acknowledgment messages.  Acks bypass wrapping and
#: tracking (no acks-of-acks) but still ride the faulty network.
ACK_KIND = "rel-ack"


@dataclass(frozen=True, slots=True)
class RPacket:
    """Wire envelope: channel sequence number plus the original send."""

    cseq: int
    kind: str
    payload: Any


@dataclass(frozen=True, slots=True)
class ReliableConfig:
    """Retransmission tuning knobs.

    ``base_rto`` should comfortably exceed one round trip (default
    latency is 1.0 tick each way); ``max_retries`` bounds resends per
    packet — at 20% loss the default budget fails with probability
    ~``0.2**25``, i.e. never in practice, while still turning a truly
    dead channel into a loud ``retrans.exhausted`` signal instead of
    an infinite timer loop.
    """

    base_rto: float = 4.0
    max_rto: float = 60.0
    max_retries: int = 25

    def __post_init__(self) -> None:
        if self.base_rto <= 0:
            raise ValueError("base_rto must be positive")
        if self.max_rto < self.base_rto:
            raise ValueError("max_rto must be >= base_rto")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")

    def rto(self, attempts: int) -> float:
        """Backoff delay before retransmission number ``attempts + 1``."""
        return min(self.base_rto * (2.0 ** attempts), self.max_rto)


class _Outstanding:
    """Sender-side state of one unacknowledged packet."""

    __slots__ = ("packet", "attempts", "timer")

    def __init__(self, packet: RPacket) -> None:
        self.packet = packet
        self.attempts = 0
        self.timer: EventHandle | None = None


class _RecvChannel:
    """Receiver-side state of one ``(src, dst)`` channel."""

    __slots__ = ("next_expected", "buffer")

    def __init__(self) -> None:
        self.next_expected = 0
        self.buffer: dict[int, RPacket] = {}


class ReliableTransport:
    """The ack/retransmit layer attached beneath one :class:`Network`.

    Construction attaches it (``network.reliable``); from then on every
    ``Network.send`` is wrapped and tracked, and every delivery is
    routed through :meth:`intercept` for dedup, ordering, and acking.
    """

    def __init__(
        self, network: "Network", config: ReliableConfig | None = None
    ) -> None:
        self.network = network
        self.config = config or ReliableConfig()
        self.tracer = network.tracer
        self.metrics = network.metrics
        # Sender side: per-channel next seqno and unacked packets.
        self._next_cseq: dict[tuple[str, str], int] = {}
        self._outstanding: dict[tuple[str, str], dict[int, _Outstanding]] = {}
        # Receiver side: per-channel cursor and reorder buffer.
        self._recv: dict[tuple[str, str], _RecvChannel] = {}
        self.retransmits = 0
        self.duplicates_dropped = 0
        self.exhausted = 0
        self._c_wrapped = self.metrics.counter("retrans.packets")
        self._c_resent = self.metrics.counter("retrans.resent")
        self._c_acks = self.metrics.counter("retrans.acks_sent")
        self._c_dups = self.metrics.counter("retrans.duplicates_dropped")
        self._c_buffered = self.metrics.counter("retrans.out_of_order_buffered")
        self._c_exhausted = self.metrics.counter("retrans.exhausted")
        self._c_paused = self.metrics.counter("retrans.paused")
        self.metrics.gauge("retrans.unacked_now", self.unacked_count)
        self.metrics.gauge("retrans.buffered_now", self.buffered_count)
        network.reliable = self

    # -- introspection ---------------------------------------------------

    def unacked_count(self) -> int:
        """Packets currently awaiting acknowledgment, all channels."""
        return sum(len(chan) for chan in self._outstanding.values())

    def unacked_channels(self) -> list[tuple[str, str]]:
        """Channels with at least one packet awaiting acknowledgment."""
        return [channel for channel, chan in self._outstanding.items() if chan]

    def buffered_count(self) -> int:
        """Packets parked in receiver reorder buffers, all channels."""
        return sum(len(chan.buffer) for chan in self._recv.values())

    # -- send side -------------------------------------------------------

    def on_send(self, message: Message) -> None:
        """Wrap an outgoing message and arm its retransmit timer.

        Called by ``Network.send`` after envelope construction, before
        any scheduling.  Acks pass through unwrapped.
        """
        if message.kind == ACK_KIND:
            return
        channel = (message.src, message.dst)
        cseq = self._next_cseq.get(channel, 0)
        self._next_cseq[channel] = cseq + 1
        packet = RPacket(cseq, message.kind, message.payload)
        message.payload = packet
        entry = _Outstanding(packet)
        self._outstanding.setdefault(channel, {})[cseq] = entry
        self._c_wrapped.inc()
        self._arm_timer(channel, entry)

    def _arm_timer(self, channel: tuple[str, str], entry: _Outstanding) -> None:
        src, dst = channel
        entry.timer = self.network.sim.schedule(
            self.config.rto(entry.attempts),
            lambda: self._on_timer(channel, entry.packet.cseq),
            label=f"retransmit {entry.packet.kind} {src}->{dst} #{entry.packet.cseq}",
        )

    def _on_timer(self, channel: tuple[str, str], cseq: int) -> None:
        entry = self._outstanding.get(channel, {}).get(cseq)
        if entry is None:
            return  # acked in the meantime
        src, dst = channel
        if self.network.topology.path_latency(src, dst) is None:
            # Disconnected: the original (or a copy) is held by the
            # network and will be released at the heal.  Re-arm without
            # consuming a retry or flooding the held queue.
            self._c_paused.inc()
            self._arm_timer(channel, entry)
            return
        entry.attempts += 1
        if entry.attempts > self.config.max_retries:
            self.exhausted += 1
            self._c_exhausted.inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    taxonomy.RETRANS_EXHAUSTED,
                    src=src,
                    dst=dst,
                    kind=entry.packet.kind,
                    cseq=cseq,
                    attempts=entry.attempts - 1,
                    **batch_span_fields(entry.packet.payload),
                )
            del self._outstanding[channel][cseq]
            return
        self.retransmits += 1
        self._c_resent.inc()
        if self.tracer.enabled:
            # A retransmitted quasi-transaction batch keeps its causal
            # identity: the copy on the wire names the same batch_id and
            # transactions as the original lineage.send.
            self.tracer.emit(
                taxonomy.RETRANS_SEND,
                src=src,
                dst=dst,
                kind=entry.packet.kind,
                cseq=cseq,
                attempt=entry.attempts,
                **batch_span_fields(entry.packet.payload),
            )
        self.network.resend(src, dst, entry.packet.kind, entry.packet)
        self._arm_timer(channel, entry)

    # -- receive side ----------------------------------------------------

    def intercept(self, message: Message) -> bool:
        """Route one delivered network message through the transport.

        Returns True if the transport consumed it (ack, or a wrapped
        packet — which may synchronously hand one or more unwrapped
        messages to the node handler, in channel-seq order).  Unwrapped
        messages (sent before the transport attached) pass through.
        """
        if message.kind == ACK_KIND:
            self._on_ack(message)
            return True
        if not isinstance(message.payload, RPacket):
            return False
        self._on_packet(message)
        return True

    def _on_packet(self, message: Message) -> None:
        packet: RPacket = message.payload
        channel = (message.src, message.dst)
        state = self._recv.get(channel)
        if state is None:
            state = self._recv[channel] = _RecvChannel()
        if packet.cseq < state.next_expected:
            self._note_duplicate(message, packet)
        elif packet.cseq > state.next_expected:
            if packet.cseq in state.buffer:
                self._note_duplicate(message, packet)
            else:
                state.buffer[packet.cseq] = packet
                self._c_buffered.inc()
                if self.tracer.enabled:
                    self.tracer.emit(
                        taxonomy.RETRANS_BUFFER,
                        src=message.src,
                        dst=message.dst,
                        kind=packet.kind,
                        cseq=packet.cseq,
                        expected=state.next_expected,
                        **batch_span_fields(packet.payload),
                    )
        else:
            self._deliver_in_order(message, state, packet)
        self._send_ack(channel, state)

    def _deliver_in_order(
        self, message: Message, state: _RecvChannel, packet: RPacket
    ) -> None:
        handler = self.network._handlers[message.dst]
        while True:
            state.next_expected += 1
            handler(
                Message(
                    message.src,
                    message.dst,
                    packet.kind,
                    packet.payload,
                    sent_at=message.sent_at,
                    delivered_at=self.network.sim.now,
                )
            )
            next_packet = state.buffer.pop(state.next_expected, None)
            if next_packet is None:
                return
            packet = next_packet

    def _note_duplicate(self, message: Message, packet: RPacket) -> None:
        self.duplicates_dropped += 1
        self._c_dups.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.RETRANS_DUPLICATE,
                src=message.src,
                dst=message.dst,
                kind=packet.kind,
                cseq=packet.cseq,
                **batch_span_fields(packet.payload),
            )

    def _send_ack(self, channel: tuple[str, str], state: _RecvChannel) -> None:
        src, dst = channel
        self._c_acks.inc()
        self.network.send(
            dst,
            src,
            ACK_KIND,
            {
                "channel": channel,
                "cum": state.next_expected - 1,
                "sack": tuple(state.buffer),
            },
        )

    def _on_ack(self, message: Message) -> None:
        body = message.payload
        channel = tuple(body["channel"])
        outstanding = self._outstanding.get(channel)
        if not outstanding:
            return
        cum = body["cum"]
        retired = [cseq for cseq in outstanding if cseq <= cum]
        retired.extend(
            cseq for cseq in body["sack"] if cseq in outstanding and cseq > cum
        )
        for cseq in retired:
            entry = outstanding.pop(cseq)
            if entry.timer is not None:
                entry.timer.cancel()
        if retired and self.tracer.enabled:
            self.tracer.emit(
                taxonomy.RETRANS_ACK,
                src=channel[0],
                dst=channel[1],
                cum=cum,
                retired=len(retired),
            )
