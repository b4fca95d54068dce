"""A database node: one replica site of the fragmented database.

Responsibilities (Section 3.2):

* execute local update and read-only transactions through the local
  strict-2PL scheduler;
* at commit of an update transaction, enforce the initiation
  requirement, assign version numbers along the fragment's update
  stream, install locally, and hand the resulting
  :class:`~repro.core.transaction.QuasiTransaction` to the movement
  protocol for propagation;
* receive quasi-transactions from other nodes and install them
  *atomically* and *in per-fragment stream order* (the admission logic
  is delegated to the movement protocol — fixed agents use plain
  sequence order, Section 4.4 protocols override it);
* multiplex broadcast and unicast traffic over its single network
  handler.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.cc.history import (
    CommittedTxn,
    InstallRecord,
    ReadObservation,
    WriteRecord,
)
from repro.cc.scheduler import LocalScheduler, TxnHandle, TxnOutcome
from repro.core.transaction import (
    QuasiTransaction,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
)
from repro.errors import ReproError, TransactionAborted
from repro.net.broadcast import SeqPayload
from repro.net.message import Message
from repro.obs import taxonomy
from repro.obs.lineage import SpanContext
from repro.recovery.checkpoint import CheckpointStore, apply_checkpoint
from repro.replication.apply import FragmentApplyQueue
from repro.replication.batch import QTB_TYPE
from repro.replication.stream import StreamLog
from repro.storage.store import ObjectStore
from repro.storage.values import INITIAL_WRITER, Version
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import FragmentedDatabase

UnicastHandler = Callable[[Message], None]
BroadcastHandler = Callable[["DatabaseNode", str, dict[str, Any]], None]


class DatabaseNode:
    """One site: local store, local scheduler, install machinery."""

    def __init__(self, name: str, system: "FragmentedDatabase") -> None:
        self.name = name
        self.system = system
        self.store = ObjectStore(name)
        self.scheduler = LocalScheduler(
            name,
            self.store,
            sim=system.sim,
            action_delay=system.action_delay,
            apply_writes=self._apply_commit,
        )
        # Replication-pipeline state: stream bookkeeping (cursor, epoch,
        # reorder buffer, archive) and the per-fragment apply queues.
        self.streams = StreamLog()
        self.apply_queue = FragmentApplyQueue(self)
        # Message routing.
        self.unicast_handlers: dict[str, UnicastHandler] = {}
        self.broadcast_handlers: dict[str, BroadcastHandler] = {}
        # Install atomicity ablation (Property 2 demonstration).
        self.atomic_installs = True
        self.quasi_installed = 0
        self.quasi_skipped = 0  # fragments this node does not replicate
        # Crash-stop failure model: the WAL and the checkpoint shelf
        # survive a crash, nothing else does.
        self.wal = WriteAheadLog(name)
        self.checkpoints = CheckpointStore(name)
        self.down = False
        self.crashes = 0
        # Shared observability handles (system-wide registry/tracer).
        self.metrics = system.metrics
        self.tracer = system.tracer
        self._c_qt_installed = self.metrics.counter("qt.installed")
        self._c_qt_skipped = self.metrics.counter("qt.skipped")

    # -- stream-log views (delegation kept for API compatibility) -----------

    @property
    def next_expected(self) -> dict[str, int]:
        """Fragment -> next expected stream sequence number."""
        return self.streams.next_expected

    @property
    def epoch(self) -> dict[str, int]:
        """Fragment -> currently active epoch."""
        return self.streams.epoch

    @property
    def qt_archive(self) -> dict[str, dict[int, QuasiTransaction]]:
        """Fragment -> archive of every quasi-transaction seen."""
        return self.streams.archive

    @property
    def installed_sources(self) -> set[str]:
        """Source transaction ids already installed at this replica."""
        return self.streams.installed_sources

    # -- network plumbing ---------------------------------------------------

    def handle_network(self, message: Message) -> None:
        """Single network entry point: route broadcast vs unicast."""
        if self.down:
            # Shouldn't happen (a crashed node's links are down and the
            # network re-holds in-flight messages), but a zero-latency
            # race is cheap to make safe: the network layer re-holds.
            return
        if isinstance(message.payload, SeqPayload):
            self.system.broadcast.handle_message(message)
            return
        handler = self.unicast_handlers.get(message.kind)
        if handler is None:
            raise ReproError(
                f"node {self.name!r}: no handler for unicast kind "
                f"{message.kind!r}"
            )
        handler(message)

    def on_broadcast(self, sender: str, seq: int, body: dict[str, Any]) -> None:
        """Reliable-broadcast delivery callback (FIFO per sender)."""
        kind = body.get("type")
        if kind == QTB_TYPE:
            self.system.pipeline.deliver(
                self, body["batch"], sender=sender, seq=seq
            )
            return
        handler = self.broadcast_handlers.get(kind)
        if handler is None:
            raise ReproError(
                f"node {self.name!r}: no handler for broadcast type {kind!r}"
            )
        handler(self, sender, body)

    def register_unicast(self, kind: str, handler: UnicastHandler) -> None:
        """Register a handler for a unicast message kind."""
        self.unicast_handlers[kind] = handler

    def register_broadcast(self, kind: str, handler: BroadcastHandler) -> None:
        """Register a handler for a broadcast body type."""
        self.broadcast_handlers[kind] = handler

    # -- local transaction execution ----------------------------------------

    def execute_update(
        self,
        spec: TransactionSpec,
        tracker: RequestTracker,
        fragment: str,
    ) -> None:
        """Run an update transaction locally (strategy pre-steps done)."""

        def on_done(
            handle: TxnHandle, outcome: TxnOutcome, error: Exception | None
        ) -> None:
            now = self.system.sim.now
            if outcome is TxnOutcome.COMMITTED:
                tracker.finish(
                    RequestStatus.COMMITTED, now, result=handle.result
                )
            else:
                reason = getattr(error, "reason", str(error))
                self.system.recorder.record_abort(spec.txn_id, reason)
                tracker.finish(RequestStatus.ABORTED, now, reason=reason)
            self.system.strategy.after_local(self.system, self, spec, tracker)

        self.scheduler.submit(
            spec.txn_id,
            spec.body,
            ctx=spec.ctx,
            kind="update",
            on_done=on_done,
            meta={
                "spec": spec,
                "fragment": fragment,
                "tracker": tracker,
                "remote_versions": spec.meta.get("remote_versions"),
                "hold": spec.meta.get("hold"),
                "on_prepared": spec.meta.get("on_prepared"),
            },
        )

    def execute_readonly(
        self, spec: TransactionSpec, tracker: RequestTracker
    ) -> None:
        """Run a read-only transaction locally."""

        def on_done(
            handle: TxnHandle, outcome: TxnOutcome, error: Exception | None
        ) -> None:
            now = self.system.sim.now
            if outcome is TxnOutcome.COMMITTED:
                tracker.finish(
                    RequestStatus.COMMITTED, now, result=handle.result
                )
            else:
                reason = getattr(error, "reason", str(error))
                self.system.recorder.record_abort(spec.txn_id, reason)
                tracker.finish(RequestStatus.ABORTED, now, reason=reason)
            self.system.strategy.after_local(self.system, self, spec, tracker)

        self.scheduler.submit(
            spec.txn_id,
            spec.body,
            ctx=spec.ctx,
            kind="readonly",
            on_done=on_done,
            meta={
                "spec": spec,
                "fragment": None,
                "tracker": tracker,
                "remote_versions": spec.meta.get("remote_versions"),
            },
        )

    # -- commit application (scheduler callback) ------------------------------

    def _apply_commit(self, handle: TxnHandle) -> None:
        """Apply a committed transaction's buffered writes.

        For quasi-transactions: install the pre-assigned origin
        versions.  For local updates: enforce the initiation
        requirement, run the strategy's dynamic read check, mint
        versions along the fragment stream, install, record history,
        and hand the quasi-transaction to the movement protocol.
        Raising :class:`TransactionAborted` here converts the commit
        into an abort (nothing has been installed yet).
        """
        system = self.system
        now = system.sim.now
        if handle.kind == "quasi":
            versions: dict[str, Version] = handle.meta["versions"]
            for obj, version in versions.items():
                self.store.install(obj, version)
            return
        spec: TransactionSpec = handle.meta["spec"]
        if handle.kind == "readonly" or not handle.write_buffer:
            system.strategy.validate_actual_reads(system, self, handle, None)
            record = CommittedTxn(
                txn_id=spec.txn_id,
                agent=spec.agent,
                fragment=None,
                node=self.name,
                commit_time=now,
                stream_seq=None,
                kind="readonly",
                reads=[
                    ReadObservation(obj, v.writer, v.version_no)
                    for obj, v in handle.reads
                ],
            )
            system.recorder.record_commit(record)
            return

        fragment_name: str = handle.meta["fragment"]
        fragment = system.catalog.get(fragment_name)
        for obj in handle.write_buffer:
            if not fragment.contains(obj):
                raise TransactionAborted(
                    spec.txn_id,
                    f"initiation requirement violated: wrote {obj!r} outside "
                    f"fragment {fragment_name!r}",
                )
        system.strategy.validate_actual_reads(system, self, handle, fragment_name)

        agent = system.agents[spec.agent]
        token = agent.token_for(fragment_name)
        if not token.usable_at(self.name):
            # The transaction was submitted while the agent lived here,
            # but lock waits delayed its commit past the agent's (token's)
            # departure.  Committing now would mint a stream position at
            # the old node while the new home is already numbering its
            # own transactions — the initiation requirement is a
            # *commit-time* condition.  The request fails like any other
            # service the departed agent can no longer render.
            raise TransactionAborted(
                spec.txn_id,
                f"token for {fragment_name!r} left node {self.name!r} "
                f"before the transaction could commit",
            )
        stream_seq = token.payload.setdefault("next_seq", 0)
        epoch = token.payload.setdefault("epoch", 0)
        writes: list[tuple[str, Version]] = []
        write_records: list[WriteRecord] = []
        for obj, value in handle.write_buffer.items():
            previous_no = (
                self.store.read_version(obj).version_no
                if self.store.exists(obj)
                else -1
            )
            version = Version(value, spec.txn_id, previous_no + 1, now)
            self.store.install(obj, version)
            writes.append((obj, version))
            write_records.append(WriteRecord(obj, version.version_no, value))
        token.payload["next_seq"] = stream_seq + 1

        quasi = QuasiTransaction(
            source_txn=spec.txn_id,
            fragment=fragment_name,
            agent=spec.agent,
            origin_node=self.name,
            stream_seq=stream_seq,
            epoch=epoch,
            writes=writes,
            origin_time=now,
            meta=dict(spec.meta),
        )
        if self.tracer.enabled:
            # Causal lineage opens here: the span rides the quasi down
            # the pipeline, and the commit event carries the written
            # objects so the offline auditor can check the initiation
            # requirement against the fragment catalog.
            quasi.span = SpanContext(
                txn_id=spec.txn_id,
                agent=spec.agent,
                fragment=fragment_name,
                origin_node=self.name,
                stream_seq=stream_seq,
                epoch=epoch,
                parent=spec.meta.get("repackaged_from"),
            )
            self.tracer.emit(
                taxonomy.LINEAGE_COMMIT,
                node=self.name,
                objects=[obj for obj, _version in writes],
                **quasi.span.fields(),
            )
        record = CommittedTxn(
            txn_id=spec.txn_id,
            agent=spec.agent,
            fragment=fragment_name,
            node=self.name,
            commit_time=now,
            stream_seq=stream_seq,
            kind="update",
            reads=[
                ReadObservation(obj, v.writer, v.version_no)
                for obj, v in handle.reads
            ],
            writes=write_records,
        )
        system.recorder.record_commit(record)
        system.recorder.record_install(
            InstallRecord(self.name, spec.txn_id, fragment_name, stream_seq, now)
        )
        self.wal.append_install(quasi)
        # Keep this node's own stream bookkeeping in step with its commits.
        self.streams.record(quasi)
        self.streams.observe(quasi)
        system.fire_install_hooks(self, quasi)
        system.movement.propagate(self, quasi)

    # -- quasi-transaction installation ----------------------------------------

    def enqueue_install(self, quasi: QuasiTransaction) -> None:
        """Queue an admitted quasi-transaction for atomic installation.

        Installation is serialized per fragment so that the equivalent
        serial local schedule "contains quasi-transactions from a given
        node in the exact same order as they were generated"
        (Section 3.2).  The machinery lives in
        :class:`~repro.replication.apply.FragmentApplyQueue`.
        """
        self.apply_queue.enqueue(quasi)

    # -- crash-stop failure and recovery ----------------------------------------

    def load_initial(self, values: dict[str, Any]) -> None:
        """Install initial values, recording them durably in the WAL."""
        self.store.load(values)
        for obj, value in values.items():
            self.wal.append_load(obj, value)

    def crash(self) -> None:
        """Crash-stop: every piece of volatile state is lost.

        In-flight local transactions abort (their clients see it), the
        store, lock tables, install buffers, and archives vanish.  Only
        the WAL survives.  The caller (``FragmentedDatabase.fail_node``)
        also takes the node's links down so the middleware holds traffic.
        """
        self.down = True
        self.crashes += 1
        now = self.system.sim.now
        for handle in list(self.scheduler.active.values()):
            tracker = handle.meta.get("tracker")
            if tracker is not None:
                tracker.finish(
                    RequestStatus.ABORTED, now, reason="node crashed"
                )
        self.store = ObjectStore(self.name)
        self.scheduler = LocalScheduler(
            self.name,
            self.store,
            sim=self.system.sim,
            action_delay=self.system.action_delay,
            apply_writes=self._apply_commit,
        )
        self.streams.clear()
        self.apply_queue.clear()
        self.system.pipeline.node_crashed(self)

    def recover(self) -> None:
        """Restore checkpoints, replay the WAL suffix, then catch up.

        The durable state comes back in two layers: the newest
        checkpoint per fragment restores that fragment's snapshot and
        fast-forwards the stream cursor, then WAL replay applies only
        the records past each checkpoint (truncation usually already
        dropped the rest; the guards below make the order safe even
        when truncation is disabled).  Quasi-transactions the
        middleware had delivered but that never reached the WAL are
        gone from this replica — the recovery manager's cursor-based
        catch-up asks one donor per fragment for exactly the missing
        suffix, and the ordered admission path re-installs it.
        """
        self.down = False
        streams = self.streams
        for ckpt in self.checkpoints.all():
            apply_checkpoint(self, ckpt, persist=False)
        for record in self.wal.records():
            if record.kind == "load":
                # A checkpointed object already has its snapshot
                # version; re-installing the initial value would
                # regress it.
                if not self.store.exists(record.obj):
                    self.store.install(
                        record.obj,
                        Version(record.value, INITIAL_WRITER, 0, 0.0),
                    )
                continue
            quasi = record.quasi
            fragment = quasi.fragment
            slot = (quasi.epoch, quasi.stream_seq)
            if slot < (streams.epoch[fragment], streams.next_expected[fragment]):
                continue  # superseded by the restored checkpoint
            for obj, version in quasi.writes:
                self.store.install(obj, version)
            streams.record(quasi)
            streams.observe(quasi)
        self.system.pipeline.node_recovered(self)
        self.system.recovery.catch_up(self)

    def __repr__(self) -> str:
        return f"DatabaseNode({self.name!r})"
