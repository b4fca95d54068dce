"""The network simulator: delivery with latency, partitions, holding.

Semantics
---------
* A message between currently-connected nodes is delivered after the
  shortest-path latency.
* A message between disconnected nodes is *held* in a per-channel queue
  and delivered once :meth:`Network.topology_changed` is called with
  connectivity restored (the paper's "propagation will be completed
  after the partition is fixed").
* Per-channel FIFO: messages on the same ``(src, dst)`` channel are
  delivered in send order even if latencies would reorder them.  The
  reliable broadcast layer additionally enforces per-sender order
  across its own sequence numbers, but FIFO channels keep unicast
  protocol messages (lock requests/grants, move handshakes) sane too.

Observability
-------------
Every send/deliver/hold/release bumps a counter in the shared
:class:`~repro.obs.metrics.MetricsRegistry` and, when the shared
:class:`~repro.obs.trace.Tracer` is enabled, emits a ``message.*``
trace event.  The invariants the reconciliation tests rely on:

* ``message.send`` events  == ``messages_sent``
* ``message.deliver`` events == ``messages_delivered``
* ``message.hold`` - ``message.release`` events == ``held_count()``
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any

from repro.errors import NetworkError
from repro.net.message import Message
from repro.net.topology import Topology
from repro.obs import taxonomy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.simulator import Simulator

Handler = Callable[[Message], None]


class Network:
    """Simulated point-to-point network over a :class:`Topology`.

    Each participating node registers a single receive handler.  All
    sends are asynchronous; delivery happens via simulator events.

    Statistics (message counts by kind, bytes approximated by payload
    update counts) are tracked for the overhead experiments, both as
    plain attributes (``messages_sent`` …) and in the shared metrics
    registry (``net.*`` counters).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._handlers: dict[str, Handler] = {}
        # Held messages per (src, dst) channel, in send order.
        self._held: dict[tuple[str, str], list[Message]] = defaultdict(list)
        # Last scheduled delivery time per channel, for FIFO enforcement.
        self._last_delivery: dict[tuple[str, str], float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_by_kind: dict[str, int] = defaultdict(int)
        # Hot-path counter handles (one attribute add per event).
        self._c_sent = self.metrics.counter("net.messages_sent")
        self._c_delivered = self.metrics.counter("net.messages_delivered")
        self._c_held = self.metrics.counter("net.messages_held")
        self._c_released = self.metrics.counter("net.messages_released")
        self._kind_counters: dict[str, Any] = {}
        self._h_delay = self.metrics.histogram("net.delivery_delay")
        self.metrics.gauge("net.held_now", self.held_count)
        # Optional realism knobs (used by ablation experiments):
        # per-message latency jitter drawn from jitter_rng, and the
        # per-channel FIFO floor (on by default; switching it off lets
        # jittered messages overtake each other on one channel, which
        # is exactly what the reliable broadcast layer's sequence
        # numbers must then repair).
        self.jitter = 0.0
        self.jitter_rng = None
        self.fifo_channels = True
        # Optional attached layers.  ``faults`` (a FaultInjector) takes
        # over delivery scheduling to inject loss/dup/jitter;
        # ``reliable`` (a ReliableTransport) wraps sends and intercepts
        # deliveries for ack/retransmit semantics.  Both default off so
        # fault-free runs are byte-identical to a bare network.
        self.faults = None
        self.reliable = None
        self._down = False
        # Interned event labels per (kind, src, dst): building the
        # delivery label with an f-string on every send shows up in
        # profiles at E15 scale, and the distinct-label population is
        # tiny (kinds x channels), so memoize the strings.
        self._labels: dict[tuple[str, str, str], str] = {}
        self._loop_labels: dict[tuple[str, str], str] = {}

    def _label(self, kind: str, src: str, dst: str) -> str:
        label = self._labels.get((kind, src, dst))
        if label is None:
            label = self._labels[(kind, src, dst)] = (
                f"deliver {kind} {src}->{dst}"
            )
        return label

    def _loop_label(self, kind: str, node: str) -> str:
        label = self._loop_labels.get((kind, node))
        if label is None:
            label = self._loop_labels[(kind, node)] = (
                f"deliver {kind} {node}->{node} loopback"
            )
        return label

    # -- wiring ---------------------------------------------------------

    def register(self, node: str, handler: Handler) -> None:
        """Attach the receive handler for ``node``."""
        if node not in self.topology.nodes:
            raise NetworkError(f"unknown node {node!r}")
        if node in self._handlers:
            raise NetworkError(f"handler already registered for {node!r}")
        self._handlers[node] = handler

    # -- runtime lifecycle ------------------------------------------------

    def start(self) -> None:
        """No-op: simulated deliveries need no socket, outbox or mesh.

        :class:`~repro.runtime.tcp.TcpMeshNetwork` overrides all three.
        """

    drain = stop = start

    # -- sending ----------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any) -> Message:
        """Send a message; returns the (not yet delivered) envelope.

        Loopback sends (``src == dst``) are delivered to the local
        handler via a zero-latency simulator event: they never cross a
        link, so they bypass partitions, fault injection, and the
        reliable-delivery transport, but still count and trace like any
        other message.
        """
        if dst not in self._handlers:
            raise NetworkError(f"no handler registered for {dst!r}")
        message = Message(src, dst, kind, payload, sent_at=self.sim.now)
        self._count_send(message)
        if src == dst:
            self.sim.schedule(
                0.0,
                lambda: self._deliver_local(message),
                label=self._loop_label(kind, src),
            )
            return message
        if self.reliable is not None:
            self.reliable.on_send(message)
        self._transmit(message)
        return message

    def resend(self, src: str, dst: str, kind: str, payload: Any) -> Message:
        """Retransmit an already-wrapped packet (reliable transport only).

        Counts and traces as a fresh send (``retransmit=True``) but
        skips the transport's wrap-and-track step — the caller already
        owns the packet's retry state.
        """
        message = Message(src, dst, kind, payload, sent_at=self.sim.now)
        self._count_send(message, retransmit=True)
        self._transmit(message)
        return message

    # -- partition lifecycle ----------------------------------------------

    def topology_changed(self) -> None:
        """Re-examine held messages after a link state change.

        Any held message whose endpoints are now connected is scheduled
        for delivery (in channel FIFO order, after any in-flight
        messages on the same channel).
        """
        for channel, queue in self._held.items():
            if not queue:
                continue
            src, dst = channel
            latency = self.topology.path_latency(src, dst)
            if latency is None:
                continue
            for message in queue:
                self._c_released.inc()
                if self.tracer.enabled:
                    self.tracer.emit(
                        taxonomy.MESSAGE_RELEASE,
                        src=src,
                        dst=dst,
                        kind=message.kind,
                    )
                self._schedule_delivery(message, latency)
            queue.clear()

    def held_count(self) -> int:
        """Number of messages currently held due to disconnection."""
        return sum(len(queue) for queue in self._held.values())

    # -- internals --------------------------------------------------------

    def _count_send(self, message: Message, **trace_extra: Any) -> None:
        self.messages_sent += 1
        self.messages_by_kind[message.kind] += 1
        self._c_sent.inc()
        counter = self._kind_counters.get(message.kind)
        if counter is None:
            counter = self._kind_counters[message.kind] = self.metrics.counter(
                f"net.kind.{message.kind}"
            )
        counter.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.MESSAGE_SEND,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                **trace_extra,
            )

    def _transmit(self, message: Message) -> None:
        latency = self.topology.path_latency(message.src, message.dst)
        if latency is None:
            self._hold(message)
        else:
            self._schedule_delivery(message, latency)

    def _hold(self, message: Message) -> None:
        self._held[(message.src, message.dst)].append(message)
        self._c_held.inc()
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.MESSAGE_HOLD,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
            )

    def _schedule_delivery(self, message: Message, latency: float) -> None:
        # The fault injector, when attached, owns the scheduling
        # decision for every link-crossing delivery (drop / jitter /
        # duplicate); it calls back into ``_schedule_raw`` for each
        # copy that survives.
        if self.faults is not None:
            self.faults.intercept(message, latency)
            return
        self._schedule_raw(message, latency)

    def _schedule_raw(self, message: Message, latency: float) -> None:
        channel = (message.src, message.dst)
        at = self.sim.now + latency
        if self.jitter and self.jitter_rng is not None:
            at += self.jitter_rng.uniform(0.0, self.jitter)
        if self.fifo_channels:
            floor = self._last_delivery.get(channel, 0.0)
            if at < floor:
                at = floor  # preserve channel FIFO
            self._last_delivery[channel] = at
        message.delivered_at = at
        self.sim.schedule_at(
            at,
            lambda: self._deliver(message),
            label=self._label(message.kind, message.src, message.dst),
        )

    def _deliver(self, message: Message) -> None:
        # Re-check connectivity at delivery time: a partition that formed
        # while the message was in flight drops it back into the held
        # queue (it is not lost — requirement (1) of the paper).
        if self.topology.path_latency(message.src, message.dst) is None:
            message.delivered_at = None
            self._hold(message)
            return
        self.messages_delivered += 1
        self._c_delivered.inc()
        delay = self.sim.now - message.sent_at
        self._h_delay.observe(delay)
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.MESSAGE_DELIVER,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                delay=delay,
            )
        if self.reliable is not None and self.reliable.intercept(message):
            return
        self._handlers[message.dst](message)

    def _deliver_local(self, message: Message) -> None:
        message.delivered_at = self.sim.now
        self.messages_delivered += 1
        self._c_delivered.inc()
        self._h_delay.observe(0.0)
        if self.tracer.enabled:
            self.tracer.emit(
                taxonomy.MESSAGE_DELIVER,
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                delay=0.0,
            )
        self._handlers[message.dst](message)
