"""Span recording around the program's layer entry points.

The recorder patches methods at class level from outside the program,
so no file under ``src/`` knows it exists.  Install it *before* the
system is built: several layers capture bound methods at construction
(``Network.register(name, node.handle_network)``), and a bound method
taken after patching calls the wrapper.

Each span records its name, start, end, parent span and op id.  Spans
are kept per thread in flat arrays (a traced E18-sized run makes about
a million of them) and written out once, when the run ends.  Self time
is a span's duration minus the time its direct children cover; the
wrapper's own cost for each child is measured once and taken off the
parent's self time so that layers with many small children are not
charged for the instrumentation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from collections.abc import Callable
from typing import Any

perf_counter = time.perf_counter

#: Every wrapped entry point: (module, class, method, span name).  The
#: span name's prefix before the first dot is the layer.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.simulator", "Simulator", "run", "sim.run"),
    ("repro.net.network", "Network", "send", "net.send"),
    ("repro.net.network", "Network", "resend", "net.resend"),
    ("repro.net.reliable", "ReliableTransport", "on_send", "transport.on_send"),
    ("repro.net.reliable", "ReliableTransport", "intercept", "transport.intercept"),
    ("repro.net.broadcast", "ReliableBroadcast", "multicast", "net.multicast"),
    ("repro.net.broadcast", "ReliableBroadcast", "handle_message", "net.bcast_handle"),
    ("repro.net.topology", "Topology", "path_latency", "net.path_latency"),
    ("repro.core.node", "DatabaseNode", "handle_network", "core.handle_network"),
    ("repro.core.node", "DatabaseNode", "on_broadcast", "core.on_broadcast"),
    ("repro.core.node", "DatabaseNode", "execute_update", "core.execute_update"),
    ("repro.core.node", "DatabaseNode", "execute_readonly", "core.execute_readonly"),
    ("repro.replication.pipeline", "ReplicationPipeline", "submit", "replication.submit"),
    ("repro.replication.pipeline", "ReplicationPipeline", "deliver", "replication.deliver"),
    ("repro.replication.apply", "FragmentApplyQueue", "enqueue", "replication.enqueue"),
    ("repro.replication.quorum", "QuorumReadManager", "begin_read", "quorum.begin_read"),
    ("repro.cc.scheduler", "LocalScheduler", "submit", "cc.submit"),
    ("repro.cc.scheduler", "LocalScheduler", "submit_quasi", "cc.submit_quasi"),
    ("repro.cc.locks", "LockTable", "acquire", "cc.acquire"),
    ("repro.cc.locks", "LockTable", "release_all", "cc.release_all"),
    ("repro.storage.store", "ObjectStore", "install", "storage.install"),
    ("repro.storage.wal", "WriteAheadLog", "append_install", "storage.wal_append"),
    ("repro.obs.metrics", "Histogram", "observe", "obs.observe"),
    ("repro.obs.trace", "Tracer", "emit", "obs.emit"),
    ("repro.recovery.manager", "RecoveryManager", "note_install", "recovery.note_install"),
    ("repro.recovery.manager", "RecoveryManager", "catch_up", "recovery.catch_up"),
    ("repro.core.system", "FragmentedDatabase", "call_on_runtime", "runtime.call_on_runtime"),
    ("repro.runtime.codec", "WireCodec", "encode_frame", "runtime.encode_frame"),
    ("repro.runtime.codec", "WireCodec", "decode_frame", "runtime.decode_frame"),
    ("repro.serve.app", "FrontDoor", "submit_write", "serve.submit_write"),
    ("repro.serve.app", "FrontDoor", "submit_read", "serve.submit_read"),
)


def _txn_of_spec(args: tuple) -> str:
    return args[1].txn_id


def _txn_arg(args: tuple) -> str:
    return args[1]


def _txn_of_quasi(args: tuple) -> str:
    return args[1].source_txn


def _txn_of_quasi_2nd(args: tuple) -> str:
    return args[2].source_txn


#: Span name -> how to read the op id (a transaction id) off the call's
#: arguments (``args[0]`` is ``self``).  A span whose parent carries an
#: op id inherits it instead, so the install spans a write causes at a
#: replica share the write's id; the rest take it from their arguments.
OP_ID_OF: dict[str, Callable[[tuple], str]] = {
    "core.execute_update": _txn_of_spec,
    "core.execute_readonly": _txn_of_spec,
    "quorum.begin_read": lambda args: args[2].txn_id,
    "cc.submit": _txn_arg,
    "cc.submit_quasi": _txn_arg,
    "cc.acquire": _txn_arg,
    "cc.release_all": _txn_arg,
    "storage.wal_append": _txn_of_quasi,
    "replication.enqueue": _txn_of_quasi,
    "replication.submit": _txn_of_quasi_2nd,
    "recovery.note_install": _txn_of_quasi_2nd,
}


class _ThreadSpans:
    """One thread's spans, as parallel flat arrays."""

    __slots__ = ("name", "start", "end", "parent", "op", "child", "kids",
                 "stack", "thread")

    def __init__(self, thread: str) -> None:
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")  # time covered by direct children
        self.kids = array("I")  # number of direct children
        self.stack: list[int] = []
        self.thread = thread


class SpanRecorder:
    """Class-level method wrappers that record nested spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_ids: list[str] = []
        self._op_index: dict[str, int] = {}
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[type, str, Any]] = []
        #: Calls per span name, readable at any moment (the spans arrays
        #: are only merged at the end).
        self.calls = array("q")
        #: Counts taken at the same boundaries as the spans.
        self.counts: dict[str, int] = {}
        #: Wrapper cost charged to a parent per direct child (seconds).
        self.child_overhead = 0.0

    # -- recording -------------------------------------------------------

    def _intern_name(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return index

    def _intern_op(self, op: str) -> int:
        index = self._op_index.get(op)
        if index is None:
            with self._lock:
                index = self._op_index.get(op)
                if index is None:
                    index = self._op_index[op] = len(self.op_ids)
                    self.op_ids.append(op)
        return index

    def _buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadSpans(threading.current_thread().name)
            with self._lock:
                self._threads.append(buf)
        return buf

    def count(self, key: str, n: int = 1) -> None:
        """Add to a named count (kept beside the spans)."""
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        op_of: Callable[[tuple], str] | None = None,
        on_result: Callable[[tuple, Any, float], None] | None = None,
    ) -> None:
        """Replace ``cls.attr`` with a span-recording wrapper.

        ``on_result(args, result, seconds)`` runs after each call, for
        counts that depend on what the call returned.

        Raises ``KeyError`` when the class does not define the method
        itself, so a renamed entry point fails the run loudly instead of
        silently shrinking a layer.
        """
        original = cls.__dict__[attr]
        name_id = self._intern_name(name)
        recorder = self
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            buf = recorder._buffer()
            idx = len(buf.start)
            stack = buf.stack
            parent = stack[-1] if stack else -1
            op = buf.op[parent] if parent >= 0 else -1
            if op < 0 and op_of is not None:
                op = recorder._intern_op(op_of(args))
            calls[name_id] += 1
            buf.name.append(name_id)
            buf.parent.append(parent)
            buf.op.append(op)
            buf.child.append(0.0)
            buf.kids.append(0)
            buf.end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            buf.start.append(start)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.end[idx] = end
                if parent >= 0:
                    buf.child[parent] += end - start
                    buf.kids[parent] += 1
            if on_result is not None:
                on_result(args, result, end - start)
            return result

        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def install(
        self,
        on_result: dict[str, Callable[[tuple, Any, float], None]] | None = None,
    ) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`.

        ``on_result`` maps span names to result hooks (see :meth:`wrap`).
        """
        import importlib

        hooks = on_result or {}
        for module, cls_name, attr, name in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            self.wrap(cls, attr, name, op_of=OP_ID_OF.get(name),
                      on_result=hooks.get(name))
        self.child_overhead = self._measure_child_overhead()

    def count_calls(self, cls: type, attr: str, key: str) -> None:
        """Count calls of ``cls.attr`` without recording spans."""
        original = cls.__dict__[attr]
        recorder = self

        def counter(*args: Any, **kwargs: Any) -> Any:
            recorder.counts[key] = recorder.counts.get(key, 0) + 1
            return original(*args, **kwargs)

        setattr(cls, attr, counter)
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        """Restore every patched method (reverse order)."""
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches.clear()

    def calls_of(self, name: str) -> int:
        index = self._name_ids.get(name)
        return 0 if index is None else self.calls[index]

    def _measure_child_overhead(self, n: int = 20000) -> float:
        """Wrapper time a parent's self time absorbs per direct child.

        Times a parent span with ``n`` wrapped no-op children and takes
        off the part the children's own spans cover; what is left, per
        child, is the cost outside the child's [start, end] window.
        """

        class _Probe:
            def outer(self) -> None:
                for _ in range(n):
                    self.inner()

            def inner(self) -> None:
                return None

            def bare(self) -> None:
                for _ in range(n):
                    self.nothing()

            def nothing(self) -> None:
                return None

        probe_recorder = SpanRecorder()
        probe_recorder.wrap(_Probe, "outer", "probe.outer")
        probe_recorder.wrap(_Probe, "inner", "probe.inner")
        samples = []
        for _ in range(5):
            probe = _Probe()
            start = perf_counter()
            probe.bare()
            bare = perf_counter() - start
            probe_recorder._local = threading.local()
            probe.outer()
            buf = probe_recorder._buffer()
            outer_self = (buf.end[0] - buf.start[0]) - buf.child[0]
            samples.append(max(0.0, (outer_self - bare) / n))
            probe_recorder._threads.clear()
        samples.sort()
        return samples[len(samples) // 2]

    # -- analysis --------------------------------------------------------

    def merged(self) -> list[_ThreadSpans]:
        with self._lock:
            return list(self._threads)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, durations list."""
        stats: dict[str, dict[str, Any]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        overhead = self.child_overhead
        names = self.names
        for buf in self.merged():
            for i in range(len(buf.end)):
                duration = buf.end[i] - buf.start[i]
                own = duration - buf.child[i] - overhead * buf.kids[i]
                entry = stats[names[buf.name[i]]]
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["self_s"] += own if own > 0.0 else 0.0
                entry["durations"].append(duration)
        return stats

    def span_count(self) -> int:
        return sum(len(buf.end) for buf in self.merged())

    def ancestor_counts(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with an ``ancestor`` span above them."""
        target = self._name_ids.get(name)
        anc = self._name_ids.get(ancestor)
        if target is None or anc is None:
            return 0
        found = 0
        for buf in self.merged():
            for i in range(len(buf.name)):
                if buf.name[i] != target:
                    continue
                parent = buf.parent[i]
                while parent >= 0:
                    if buf.name[parent] == anc:
                        found += 1
                        break
                    parent = buf.parent[parent]
        return found

    # -- output ----------------------------------------------------------

    def write(self, directory: str, stem: str) -> str:
        """Write every span: ``<stem>.spans.json`` index + ``.bin`` arrays.

        The binary file holds, per thread, the arrays ``name`` (uint16),
        ``start``, ``end`` (float64 perf_counter seconds), ``parent``
        (int32 index within the thread, -1 for a root), ``op`` (int32
        index into ``op_ids``, -1 for none) in that order.
        """
        os.makedirs(directory, exist_ok=True)
        bin_path = os.path.join(directory, stem + ".spans.bin")
        threads = []
        with open(bin_path, "wb") as fh:
            for buf in self.merged():
                for arr in (buf.name, buf.start, buf.end, buf.parent, buf.op):
                    arr.tofile(fh)
                threads.append({"thread": buf.thread, "spans": len(buf.end)})
        index = {
            "names": self.names,
            "op_ids": self.op_ids,
            "threads": threads,
            "layout": ["name:H", "start:d", "end:d", "parent:i", "op:i"],
            "child_overhead_s": self.child_overhead,
            "counts": self.counts,
        }
        index_path = os.path.join(directory, stem + ".spans.json")
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump(index, fh)
        return index_path
