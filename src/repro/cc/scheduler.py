"""Strict two-phase-locking local transaction scheduler.

Transactions are generator functions yielding :class:`~repro.cc.ops.Read`
and :class:`~repro.cc.ops.Write`.  The scheduler:

* acquires an S lock per read and an X lock per write (strict 2PL:
  everything is held until after commit/abort),
* buffers writes and applies them atomically at commit (deferred
  update), so no transaction ever observes a partial effect — this is
  what realizes the paper's atomic quasi-transaction installation
  (Property 2),
* detects deadlocks with a waits-for graph and aborts the youngest
  cycle member,
* optionally spreads a transaction's actions over simulated time
  (``action_delay``) so that concurrent local transactions genuinely
  interleave — used by the randomized workloads; scripted experiments
  keep the default of zero and control interleavings via the network
  timing instead.

The scheduler is storage-aware but policy-free: fragment rules, version
numbering, and broadcasting live in :class:`repro.core.node.DatabaseNode`,
injected through the ``apply_writes`` callback.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.cc.deadlock import WaitsForGraph, choose_victim
from repro.cc.locks import LockMode, LockTable
from repro.cc.ops import Read, Write
from repro.cc.serializability import ActionRecord
from repro.errors import SimulationError, TransactionAborted
from repro.storage.store import ObjectStore
from repro.storage.values import Version
from repro.sim.simulator import Simulator

Body = Generator[Any, Any, Any]
DoneFn = Callable[["TxnHandle", "TxnOutcome", Exception | None], None]
ApplyFn = Callable[["TxnHandle"], None]


class TxnOutcome(enum.Enum):
    """Terminal state of a scheduled transaction."""

    COMMITTED = "committed"
    ABORTED = "aborted"


class TxnHandle:
    """Scheduler-side state of one in-flight transaction."""

    def __init__(
        self,
        txn_id: str,
        gen: Body,
        kind: str,
        start_seq: int,
        start_time: float,
        on_done: DoneFn | None,
        meta: dict[str, Any],
    ) -> None:
        self.txn_id = txn_id
        self.gen = gen
        self.kind = kind  # "update" | "readonly" | "quasi"
        self.start_seq = start_seq
        self.start_time = start_time
        self.on_done = on_done
        self.meta = meta
        self.state = "running"  # running | waiting | committed | aborted
        self.reads: list[tuple[str, Version]] = []
        self.write_buffer: dict[str, Any] = {}
        self.pending_op: Read | Write | None = None
        self.result: Any = None
        self.commit_time: float | None = None

    @property
    def read_set(self) -> list[str]:
        """Objects read (committed versions only), in read order."""
        return [obj for obj, _ in self.reads]


class LocalScheduler:
    """The per-node strict-2PL scheduler."""

    def __init__(
        self,
        node: str,
        store: ObjectStore,
        sim: Simulator | None = None,
        action_delay: float = 0.0,
        apply_writes: ApplyFn | None = None,
    ) -> None:
        if action_delay > 0 and sim is None:
            raise SimulationError("action_delay requires a simulator")
        self.node = node
        self.store = store
        self.sim = sim
        self.action_delay = action_delay
        self._apply = apply_writes if apply_writes is not None else self._default_apply
        self.locks = LockTable()
        self.waits_for = WaitsForGraph()
        self.active: dict[str, TxnHandle] = {}
        self._next_start_seq = 0
        self._action_seq = 0
        self.action_history: list[ActionRecord] = []
        self.record_actions = False
        self.committed = 0
        self.aborted = 0
        self.deadlocks = 0

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        txn_id: str,
        body: Callable[[Any], Body],
        ctx: Any = None,
        kind: str = "update",
        on_done: DoneFn | None = None,
        meta: dict[str, Any] | None = None,
    ) -> TxnHandle:
        """Start a transaction; it runs as far as locks allow right away.

        ``on_done(handle, outcome, error)`` fires exactly once, at
        commit or abort.  The returned handle can be inspected but the
        generator must not be touched by the caller.
        """
        if txn_id in self.active:
            raise SimulationError(f"duplicate active txn id {txn_id!r}")
        now = self.sim.now if self.sim is not None else 0.0
        handle = TxnHandle(
            txn_id,
            body(ctx),
            kind,
            self._next_start_seq,
            now,
            on_done,
            meta or {},
        )
        self._next_start_seq += 1
        self.active[txn_id] = handle
        self._advance(handle, None)
        return handle

    def submit_quasi(
        self,
        txn_id: str,
        writes: Iterable[tuple[str, Version]],
        on_done: DoneFn | None = None,
        meta: dict[str, Any] | None = None,
    ) -> TxnHandle:
        """Install a quasi-transaction: X-lock and write every object.

        The pre-assigned origin versions ride in ``meta['versions']``;
        the apply callback installs them verbatim instead of minting new
        version numbers.
        """
        writes = list(writes)
        versions = {obj: version for obj, version in writes}

        def body(_ctx: Any) -> Body:
            for obj, version in writes:
                yield Write(obj, version.value)

        merged = dict(meta or {})
        merged["versions"] = versions
        return self.submit(txn_id, body, kind="quasi", on_done=on_done, meta=merged)

    # -- execution engine ----------------------------------------------------

    def _advance(self, handle: TxnHandle, send_value: Any) -> None:
        while handle.state == "running":
            try:
                op = handle.gen.send(send_value)
            except StopIteration as stop:
                handle.result = stop.value
                if handle.meta.get("hold"):
                    # Two-phase commit participant: the body finished and
                    # every lock is held, but nothing is applied until
                    # the coordinator decides (commit_prepared /
                    # abort_prepared).  See repro.core.groups.
                    handle.state = "prepared"
                    on_prepared = handle.meta.get("on_prepared")
                    if on_prepared is not None:
                        on_prepared(handle)
                    return
                self._commit(handle)
                return
            except TransactionAborted as abort_exc:
                self._abort(handle, abort_exc.reason)
                return
            outcome = self._perform(handle, op)
            if outcome is _BLOCKED:
                return
            if handle.state != "running":
                return  # aborted as a deadlock victim inside _perform
            send_value = outcome
            if self.action_delay > 0:
                self.sim.schedule(
                    self.action_delay,
                    lambda h=handle, v=send_value: self._continue(h, v),
                    label=f"step {handle.txn_id}",
                )
                return

    def _continue(self, handle: TxnHandle, send_value: Any) -> None:
        if handle.state == "running":
            self._advance(handle, send_value)

    def _perform(self, handle: TxnHandle, op: Read | Write) -> Any:
        if isinstance(op, Read):
            if op.obj in handle.write_buffer:
                return handle.write_buffer[op.obj]  # read-your-own-write
            if self.locks.acquire(handle.txn_id, op.obj, LockMode.S):
                version = self._read_version(handle, op.obj)
                handle.reads.append((op.obj, version))
                self._record(handle.txn_id, "r", op.obj)
                return version.value
            self._block(handle, op)
            return _BLOCKED
        if isinstance(op, Write):
            if self.locks.acquire(handle.txn_id, op.obj, LockMode.X):
                handle.write_buffer[op.obj] = op.value
                self._record(handle.txn_id, "w", op.obj)
                return None
            self._block(handle, op)
            return _BLOCKED
        raise SimulationError(
            f"transaction {handle.txn_id} yielded {op!r}; expected Read/Write"
        )

    def _block(self, handle: TxnHandle, op: Read | Write) -> None:
        mode = LockMode.S if isinstance(op, Read) else LockMode.X
        handle.state = "waiting"
        handle.pending_op = op
        blockers = self.locks.blockers_of(handle.txn_id, op.obj, mode)
        self.waits_for.block(handle.txn_id, blockers)
        cycle = self.waits_for.find_cycle()
        if cycle is not None:
            self.deadlocks += 1
            start_seqs = {t: h.start_seq for t, h in self.active.items()}
            # Never sacrifice a quasi-transaction when a local one is in
            # the cycle: an aborted quasi-transaction is a lost replica
            # update (mutual consistency breaks), whereas local clients
            # can retry.  Two quasi-transactions cannot deadlock with
            # each other — same-fragment installs are serialized and
            # different fragments touch disjoint objects — so a cycle
            # virtually always offers a local candidate.
            members = cycle[:-1] if cycle[0] == cycle[-1] else list(cycle)
            local_members = [
                m
                for m in members
                if m in self.active and self.active[m].kind != "quasi"
            ]
            candidates = local_members or members
            victim_id = choose_victim(list(candidates), start_seqs)
            victim = self.active.get(victim_id)
            if victim is not None:
                self._abort(victim, "deadlock victim")

    # -- terminal transitions ---------------------------------------------

    def _commit(self, handle: TxnHandle) -> None:
        handle.state = "committed"
        handle.commit_time = self.sim.now if self.sim is not None else 0.0
        try:
            self._apply(handle)
        except TransactionAborted as abort_exc:
            # The apply hook vetoed the commit (initiation-requirement or
            # read-restriction violation detected at commit time).  The
            # hook raises *before* installing anything, so aborting here
            # is clean.
            handle.state = "running"  # _abort expects a live handle
            self._abort(handle, abort_exc.reason)
            return
        self._record(handle.txn_id, "c", "")
        self.committed += 1
        self._finish(handle, TxnOutcome.COMMITTED, None)

    def _abort(self, handle: TxnHandle, reason: str) -> None:
        handle.state = "aborted"
        handle.gen.close()
        self.aborted += 1
        self._finish(
            handle, TxnOutcome.ABORTED, TransactionAborted(handle.txn_id, reason)
        )

    def _finish(
        self, handle: TxnHandle, outcome: TxnOutcome, error: Exception | None
    ) -> None:
        self.active.pop(handle.txn_id, None)
        self.waits_for.remove(handle.txn_id)
        granted = self.locks.release_all(handle.txn_id)
        if handle.on_done is not None:
            handle.on_done(handle, outcome, error)
        self._resume_granted(granted)

    def _resume_granted(self, granted: list[tuple[str, str, LockMode]]) -> None:
        for txn_id, obj, _mode in granted:
            waiter = self.active.get(txn_id)
            if waiter is None or waiter.state != "waiting":
                continue
            op = waiter.pending_op
            if op is None or op.obj != obj:
                continue
            waiter.state = "running"
            waiter.pending_op = None
            self.waits_for.clear_waiting(txn_id)
            if isinstance(op, Read):
                version = self._read_version(waiter, op.obj)
                waiter.reads.append((op.obj, version))
                self._record(txn_id, "r", op.obj)
                self._advance(waiter, version.value)
            else:
                waiter.write_buffer[op.obj] = op.value
                self._record(txn_id, "w", op.obj)
                self._advance(waiter, None)

    def _read_version(self, handle: TxnHandle, obj: str) -> Version:
        """The version a read observes.

        Remote-lock strategies (Section 4.1) pin the values read at the
        lock site into ``meta['remote_versions']`` — the lock guarantees
        those stay current until release, whereas the local replica may
        lag behind the fragment's update stream.
        """
        overrides: dict[str, Version] | None = handle.meta.get("remote_versions")
        if overrides and obj in overrides:
            return overrides[obj]
        return self.store.read_version(obj)

    # -- two-phase commit participants -----------------------------------------

    def commit_prepared(self, txn_id: str) -> None:
        """Commit a transaction parked in the prepared state."""
        handle = self.active.get(txn_id)
        if handle is None or handle.state != "prepared":
            raise SimulationError(f"{txn_id!r} is not prepared")
        handle.state = "running"  # _commit expects a live handle
        self._commit(handle)

    def abort_prepared(self, txn_id: str, reason: str = "coordinator abort") -> None:
        """Abort a prepared transaction, releasing its locks."""
        handle = self.active.get(txn_id)
        if handle is None or handle.state != "prepared":
            raise SimulationError(f"{txn_id!r} is not prepared")
        self._abort(handle, reason)

    # -- external (remote) locks ----------------------------------------------

    def try_lock_external(self, owner: str, objs: Iterable[str]) -> bool:
        """All-or-nothing S locks on behalf of a remote transaction.

        Used by the Section 4.1 control strategy: the home node of a
        fragment's agent grants shared locks to remote readers.  The
        grant is atomic — either every object is immediately lockable
        (compatible with holders, empty queue) and all are taken, or
        nothing is taken and the caller retries later.  No queuing, so
        remote requests can never deadlock with local transactions;
        they simply bounce.
        """
        objs = list(objs)
        for obj in objs:
            holders = self.locks.holders_of(obj)
            if any(mode is LockMode.X for txn, mode in holders.items()):
                return False
            if self.locks.queued_for(obj):
                return False
        for obj in objs:
            granted = self.locks.acquire(owner, obj, LockMode.S)
            assert granted, "probe said lockable but acquire failed"
        return True

    def release_external(self, owner: str) -> None:
        """Release all locks held by a remote owner; resume local waiters."""
        granted = self.locks.release_all(owner)
        self.waits_for.remove(owner)
        self._resume_granted(granted)

    # -- defaults and recording -----------------------------------------------

    def _default_apply(self, handle: TxnHandle) -> None:
        """Standalone apply: install buffered writes with fresh versions.

        Used when the scheduler is exercised without a
        :class:`~repro.core.node.DatabaseNode` on top (unit tests,
        micro-benchmarks).  Quasi-transactions install their pre-assigned
        versions.
        """
        now = self.sim.now if self.sim is not None else 0.0
        preassigned: dict[str, Version] = handle.meta.get("versions", {})
        for obj, value in handle.write_buffer.items():
            if obj in preassigned:
                self.store.install(obj, preassigned[obj])
                continue
            previous_no = (
                self.store.read_version(obj).version_no
                if self.store.exists(obj)
                else -1
            )
            self.store.install(
                obj, Version(value, handle.txn_id, previous_no + 1, now)
            )

    def _record(self, txn: str, kind: str, obj: str) -> None:
        if self.record_actions:
            self.action_history.append(
                ActionRecord(txn, kind, obj, self._action_seq)
            )
            self._action_seq += 1


class _Blocked:
    """Sentinel: the transaction is parked on a lock queue."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<blocked>"


_BLOCKED = _Blocked()
