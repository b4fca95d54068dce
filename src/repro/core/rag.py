"""The read-access graph of Section 4.2.

    "The read-access graph is a directed graph G = (V, E), where
    V = {F1, ..., Fn} and (Fi, Fj) in E iff i != j and there is a
    transaction T initiated by A(Fi) that reads a data object in Fj."

and the key definition:

    "A directed graph G is said to be *elementarily acyclic* if the
    undirected graph with the same nodes and edges is acyclic."

The Section 4.2 theorem states that an elementarily acyclic read-access
graph guarantees global serializability with no read synchronization at
all; :class:`ReadAccessGraph` is both the design-time validator for
that strategy and the declarative input to the local-serialization-graph
builder of :mod:`repro.core.gsg`.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.fragment import FragmentCatalog
from repro.errors import DesignError
from repro.graphs import Digraph


class ReadAccessGraph:
    """Directed graph over fragments recording who reads from whom."""

    def __init__(self, catalog: FragmentCatalog) -> None:
        self.catalog = catalog
        self._graph = Digraph()
        for name in catalog.names:
            self._graph.add_node(name)

    # -- construction --------------------------------------------------------

    def register_fragment(self, name: str) -> None:
        """Add a fragment vertex (fragments defined after RAG creation)."""
        if name not in self.catalog:
            raise DesignError(f"unknown fragment {name!r}")
        self._graph.add_node(name)

    def add_read_edge(self, reader_fragment: str, read_fragment: str) -> None:
        """Declare that A(reader)'s transactions read from ``read_fragment``."""
        for name in (reader_fragment, read_fragment):
            if name not in self.catalog:
                raise DesignError(f"unknown fragment {name!r}")
        if reader_fragment != read_fragment:
            self._graph.add_edge(reader_fragment, read_fragment)

    def declare_transaction(
        self,
        home_fragment: str,
        reads: Iterable[str],
    ) -> None:
        """Record the edges induced by one transaction's read set.

        ``reads`` are *object* names; each is resolved to its fragment
        through the catalog.  Reads inside ``home_fragment`` add no
        edge (the graph has no self-loops by definition).
        """
        for obj in reads:
            fragment = self.catalog.fragment_of(obj)
            self.add_read_edge(home_fragment, fragment)

    # -- queries ----------------------------------------------------------

    @property
    def edges(self) -> list[tuple[str, str]]:
        """All declared edges ``(reader_fragment, read_fragment)``."""
        return [(str(u), str(v)) for u, v in self._graph.edges]

    def reads_from(self, reader_fragment: str) -> list[str]:
        """Fragments that ``reader_fragment``'s transactions read."""
        return [str(f) for f in self._graph.successors(reader_fragment)]

    def allows(self, reader_fragment: str, read_fragment: str) -> bool:
        """True if the edge is declared (or the read is intra-fragment)."""
        if reader_fragment == read_fragment:
            return True
        return self._graph.has_edge(reader_fragment, read_fragment)

    def is_elementarily_acyclic(self) -> bool:
        """The Section 4.2 condition."""
        return self._graph.is_elementarily_acyclic()

    def violation_cycle(self) -> list[str] | None:
        """An undirected cycle witnessing non-elementary-acyclicity."""
        cycle = self._graph.undirected_cycle()
        if cycle is None:
            return None
        return [str(node) for node in cycle]

    def assert_elementarily_acyclic(self) -> None:
        """Raise :class:`DesignError` with the offending cycle if cyclic."""
        if not self.is_elementarily_acyclic():
            cycle = self.violation_cycle()
            raise DesignError(
                "read-access graph is not elementarily acyclic; "
                f"undirected cycle through fragments {cycle}"
            )

    def component_of(self, fragment: str) -> set[str]:
        """Fragments weakly connected to ``fragment`` via read edges."""
        if fragment not in self.catalog:
            raise DesignError(f"unknown fragment {fragment!r}")
        component = {fragment}
        frontier = [fragment]
        while frontier:
            current = frontier.pop()
            neighbors = set(self._graph.successors(current)) | set(
                self._graph.predecessors(current)
            )
            for neighbor in neighbors:
                if neighbor not in component:
                    component.add(str(neighbor))
                    frontier.append(str(neighbor))
        return component

    def component_is_elementarily_acyclic(self, fragment: str) -> bool:
        """Section 4.2 test restricted to one weakly connected component.

        Used by the combined strategy (the paper's conclusion): a group
        of fragments whose component of the read-access graph is a
        forest enjoys global serializability among themselves no matter
        what the rest of the database does — reads cannot leave a
        weakly connected component.
        """
        component = self.component_of(fragment)
        induced = Digraph()
        for name in component:
            induced.add_node(name)
        for u, v in self._graph.edges:
            if u in component and v in component:
                induced.add_edge(u, v)
        return induced.is_elementarily_acyclic()
