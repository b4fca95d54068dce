"""repro — a reproduction of Garcia-Molina & Kogan,
"Achieving High Availability in Distributed Databases" (ICDE 1987).

The library implements the fragments-and-agents framework — fragments,
tokens, agents, quasi-transaction propagation over reliable FIFO
broadcast — together with the paper's full family of control options
(Sections 4.1-4.3), agent-movement protocols (Section 4.4), the formal
correctness machinery (read-access graphs, serialization graphs,
fragmentwise serializability), the comparison baselines (mutual
exclusion, log transformation, the optimistic protocol), and a
deterministic discrete-event simulation substrate to run it all on.

Quick start::

    from repro import FragmentedDatabase
    from repro.cc import Read, Write

    db = FragmentedDatabase(["A", "B"])
    db.add_agent("central", home_node="A")
    db.add_fragment("BALANCES", agent="central", objects=["bal:1"])
    db.load({"bal:1": 300})

    def deposit(_ctx):
        balance = yield Read("bal:1")
        yield Write("bal:1", balance + 100)

    tracker = db.submit_update("central", deposit, writes=["bal:1"])
    db.quiesce()
    assert tracker.succeeded
    assert db.mutual_consistency().consistent
"""

from repro.cc.ops import Read, Write
from repro.core.control import (
    AcyclicReadsStrategy,
    CombinedStrategy,
    ControlStrategy,
    ReadLocksStrategy,
    UnrestrictedReadsStrategy,
)
from repro.core.movement import (
    CorrectiveMoveProtocol,
    FixedAgentsProtocol,
    InstantMoveProtocol,
    MajorityCommitProtocol,
    MovementProtocol,
    MoveWithDataProtocol,
    MoveWithSeqnoProtocol,
)
from repro.core.predicates import ConsistencyPredicate, PredicateSuite
from repro.core.rag import ReadAccessGraph
from repro.core.system import AvailabilityStats, FragmentedDatabase
from repro.core.transaction import (
    QuasiTransaction,
    RequestStatus,
    RequestTracker,
    TransactionSpec,
    scripted_body,
)
from repro.errors import (
    ConsistencyViolation,
    DesignError,
    InitiationError,
    NetworkError,
    ReproError,
    SimulationError,
    TokenError,
    TransactionAborted,
    Unavailable,
)
from repro.net.partition import PartitionSpec
from repro.net.topology import Topology
from repro.obs import MetricsRegistry, TraceEvent, Tracer
from repro.recovery import FragmentCheckpoint, RecoveryConfig
from repro.replication import (
    PipelineConfig,
    QtBatch,
    QuorumConfig,
    ReplicationPipeline,
)
from repro.runtime import AsyncioScheduler, FaultProxy, TcpMeshNetwork
from repro.serve import FrontDoor

__version__ = "1.0.0"

__all__ = [
    "AcyclicReadsStrategy",
    "AsyncioScheduler",
    "AvailabilityStats",
    "CombinedStrategy",
    "ConsistencyPredicate",
    "ConsistencyViolation",
    "ControlStrategy",
    "CorrectiveMoveProtocol",
    "DesignError",
    "FaultProxy",
    "FixedAgentsProtocol",
    "FragmentCheckpoint",
    "FragmentedDatabase",
    "FrontDoor",
    "InitiationError",
    "InstantMoveProtocol",
    "MajorityCommitProtocol",
    "MetricsRegistry",
    "MovementProtocol",
    "MoveWithDataProtocol",
    "MoveWithSeqnoProtocol",
    "NetworkError",
    "PartitionSpec",
    "PipelineConfig",
    "PredicateSuite",
    "QtBatch",
    "QuasiTransaction",
    "QuorumConfig",
    "ReplicationPipeline",
    "Read",
    "ReadAccessGraph",
    "ReadLocksStrategy",
    "RecoveryConfig",
    "ReproError",
    "RequestStatus",
    "RequestTracker",
    "SimulationError",
    "TcpMeshNetwork",
    "TokenError",
    "Topology",
    "TraceEvent",
    "Tracer",
    "TransactionAborted",
    "TransactionSpec",
    "Unavailable",
    "UnrestrictedReadsStrategy",
    "Write",
    "scripted_body",
]
