"""Randomized torture testing of the Section 4.4 movement protocols.

Each run drives a single-fragment system with random update traffic
while the agent hops between random nodes and random partitions come
and go.  After quiescence the per-protocol guarantees are checked:

===========  ===================  ==============================
protocol     mutual consistency   fragmentwise serializability
===========  ===================  ==============================
with-data    must hold            must hold
with-seqno   must hold            must hold
majority     must hold            must hold
corrective   must hold            may fail (knowingly sacrificed)
none         may fail             may fail
===========  ===================  ==============================

The harness is shared by the hypothesis test-suite (small sizes) and
the E13 benchmark (seed sweeps with violation counts): the paper's
protocol table emerges from the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.ops import Read, Write
from repro.core.movement.base import MovementProtocol
from repro.core.movement.corrective import CorrectiveMoveProtocol
from repro.core.movement.majority import MajorityCommitProtocol
from repro.core.movement.none_protocol import InstantMoveProtocol
from repro.core.movement.with_data import MoveWithDataProtocol
from repro.core.movement.with_seqno import MoveWithSeqnoProtocol
from repro.core.system import FragmentedDatabase
from repro.net.faults import FaultPlan
from repro.replication import PipelineConfig
from repro.sim.rng import SeededRng

PROTOCOLS: dict[str, type[MovementProtocol]] = {
    "none": InstantMoveProtocol,
    "majority": MajorityCommitProtocol,
    "with-data": MoveWithDataProtocol,
    "with-seqno": MoveWithSeqnoProtocol,
    "corrective": CorrectiveMoveProtocol,
}

# Which guarantee each protocol must uphold in every run.
GUARANTEES = {
    "none": {"mc": False, "fw": False},
    "majority": {"mc": True, "fw": True},
    "with-data": {"mc": True, "fw": True},
    "with-seqno": {"mc": True, "fw": True},
    "corrective": {"mc": True, "fw": False},
}


@dataclass
class TortureResult:
    """Outcome flags of one randomized movement run."""

    seed: int
    protocol: str
    submitted: int
    committed: int
    moves: int
    mutually_consistent: bool
    fragmentwise: bool

    def respects_guarantees(self) -> bool:
        """True iff the run satisfied its protocol's promised matrix."""
        required = GUARANTEES[self.protocol]
        if required["mc"] and not self.mutually_consistent:
            return False
        if required["fw"] and not self.fragmentwise:
            return False
        return True


#: The single fragment every harness here drives: agent ``ag`` owns
#: fragment ``F`` over these objects.
OBJECTS = ("u", "v", "w")


def setup_fragment(db: FragmentedDatabase, home: str) -> None:
    """Add agent ``ag`` at ``home`` owning ``F`` = {u, v, w}, all 0."""
    db.add_agent("ag", home_node=home)
    db.add_fragment("F", agent="ag", objects=list(OBJECTS))
    db.load({obj: 0 for obj in OBJECTS})
    db.finalize()


def schedule_updates(
    db: FragmentedDatabase, rng: SeededRng, n: int, horizon: float
) -> list:
    """Schedule ``n`` read-sum-write updates ``T0..`` against ``F``.

    Each update fires at a time drawn from ``uniform(0, 0.7·horizon)``
    now; its object choice and increment are drawn from ``rng`` when it
    fires.  Returns the tracker list, filled as the updates are
    submitted.
    """
    trackers = []

    def submit(index: int) -> None:
        chosen = [obj for obj in OBJECTS if rng.bernoulli(0.5)] or [
            rng.choice(OBJECTS)
        ]
        value = rng.randint(1, 10_000)

        def body(_ctx):
            total = 0
            for obj in chosen:
                observed = yield Read(obj)
                total += observed
            for obj in chosen:
                yield Write(obj, total + value)

        trackers.append(
            db.submit_update(
                "ag", body, reads=chosen, writes=chosen, txn_id=f"T{index}"
            )
        )

    for index in range(n):
        db.sim.schedule_at(
            rng.uniform(0.0, horizon * 0.7), lambda i=index: submit(i)
        )
    return trackers


def run_movement_torture(
    seed: int,
    protocol_name: str,
    n_nodes: int = 4,
    n_updates: int = 15,
    n_moves: int = 3,
    horizon: float = 200.0,
    pipeline: PipelineConfig | None = None,
    faults: FaultPlan | None = None,
    db_sink: list | None = None,
) -> TortureResult:
    """One seeded run: random traffic, random moves, random partitions.

    ``faults`` layers a seeded fault plan (message loss, duplication,
    jitter, …) under the run; the chaos harness in
    :mod:`repro.analysis.nemesis` composes full fault schedules on top
    of this same workload shape.  ``db_sink``, when given, receives the
    quiesced :class:`FragmentedDatabase` so callers can read its
    metrics (the E13b bench prints the pipeline latency histograms).
    """
    rng = SeededRng(seed)
    nodes = [f"N{i}" for i in range(n_nodes)]
    protocol = PROTOCOLS[protocol_name]()
    db = FragmentedDatabase(
        nodes, movement=protocol, seed=seed, pipeline=pipeline, faults=faults
    )
    setup_fragment(db, nodes[0])
    trackers = schedule_updates(db, rng, n_updates, horizon)
    moves = 0
    for _ in range(n_moves):
        destination = rng.choice(nodes)
        db.sim.schedule_at(
            rng.uniform(0, horizon * 0.7),
            lambda d=destination: _try_move(db, d),
        )
        moves += 1
    # One or two partition episodes inside the horizon.
    for _ in range(rng.randint(1, 2)):
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        cut_at = rng.randint(1, n_nodes - 1)
        groups = [shuffled[:cut_at], shuffled[cut_at:]]
        start = rng.uniform(0, horizon * 0.5)
        end = rng.uniform(start + 5, horizon * 0.9)
        db.sim.schedule_at(start, lambda g=groups: _repartition(db, g))
        db.sim.schedule_at(end, db.partitions.heal_now)
    db.quiesce()

    if db_sink is not None:
        db_sink.append(db)
    return TortureResult(
        seed=seed,
        protocol=protocol_name,
        submitted=len(trackers),
        committed=sum(1 for t in trackers if t.succeeded),
        moves=moves,
        mutually_consistent=db.mutual_consistency().consistent,
        fragmentwise=db.fragmentwise_serializability().ok,
    )


def _try_move(db: FragmentedDatabase, destination: str) -> None:
    agent = db.agents["ag"]
    token = agent.token_for("F")
    if token.in_transit or agent.home_node == destination:
        return
    if db.nodes[destination].down:
        return  # never move the agent onto a crashed node
    if any(
        not db.replicates(destination, fragment)
        for fragment in agent.fragments
    ):
        return  # the agent only runs where its fragments are replicated
    db.move_agent("ag", destination, transport_delay=2.0)


def _repartition(db: FragmentedDatabase, groups) -> None:
    # Heal any previous cut first so groups apply cleanly.
    db.partitions.heal_now()
    db.partitions.partition_now(groups)
