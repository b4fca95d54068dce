"""Pluggable runtime backends: the simulator, and real asyncio TCP.

The protocol stack (reliable transport, replication pipeline, quorum
reads, availability supervisor) observes only three capabilities:

* a **clock** — ``sim.now``, a monotonically advancing time in ticks;
* a **scheduler** — ``sim.schedule(delay, callback)`` and friends,
  returning cancellable handles;
* a **transport** — ``network.send(src, dst, kind, payload)`` with
  at-least-once-or-held delivery into per-node handlers.

The discrete-event :class:`~repro.sim.simulator.Simulator` and
:class:`~repro.net.network.Network` are the deterministic
implementation; :class:`~repro.runtime.scheduler.AsyncioScheduler` and
:class:`~repro.runtime.tcp.TcpMeshNetwork` are the real-time one —
every node an asyncio task behind a real TCP socket, exchanging
length-prefixed JSON frames, with the same protocol code running
unmodified on top.  ``FragmentedDatabase(..., runtime="asyncio")``
selects the backend.

Both backends also share one lifecycle surface, which
``FragmentedDatabase`` drives without asking which backend it holds:
the scheduler's ``start``/``halt``/``stop``, ``invoke(fn)`` and
``wait_until(predicate)``, and the network's ``start``/``drain``/
``stop``.  On the simulator every lifecycle step is a no-op, ``invoke``
calls inline and ``wait_until`` quiesces; on the asyncio backend
``stop_runtime`` drains in-flight frames and acks, halts timers, closes
the mesh, then stops the loop.
"""

from repro.runtime.codec import WireCodec, default_codec
from repro.runtime.proxy import FaultProxy
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.tcp import TcpMeshNetwork

__all__ = [
    "AsyncioScheduler",
    "FaultProxy",
    "TcpMeshNetwork",
    "WireCodec",
    "default_codec",
]
