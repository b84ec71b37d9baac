"""Marked graphs: the Petri net subclass underlying de-synchronization.

A marked graph (MG) is a Petri net in which every place has exactly one
producing and one consuming transition — concurrency without choice.  The
paper's de-synchronization model (Figures 2-4) is a marked graph whose
transitions are latch-control events (``x+`` = latch x becomes transparent,
``x-`` = latch x closes).

Because each place connects exactly one pair of transitions, an MG is
equivalently a directed multigraph whose *edges* carry tokens; all the
classic results used here come from that view:

* **liveness**: an MG is live iff every directed cycle carries >= 1 token
  (equivalently: the token-free subgraph is acyclic) [Commoner et al. 1971];
* **boundedness**: in a live MG the most tokens an edge ``u -> v`` ever
  holds is the token count of the least-marked cycle through it — its
  own tokens plus the token distance ``d(v -> u)`` — and an edge on no
  cycle is unbounded [Commoner et al. 1971; Murata 1989]; safety
  (1-boundedness) is the case ``bound = 1``
  (:meth:`MarkedGraph.bound_violation`);
* **cycle time**: with transition delays, the steady-state cycle time is
  the maximum cycle ratio max_C sum(delay)/sum(tokens) — computed in
  :mod:`repro.petri.analysis`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.petri.net import PetriNet
from repro.utils.errors import NotAMarkedGraphError, PetriError


@dataclass(frozen=True)
class MgEdge:
    """One marked-graph edge (a place between two transitions).

    Attributes:
        place: underlying place name.
        source: producing transition name.
        target: consuming transition name.
        tokens: initial token count.
        delay: extra propagation delay in ps carried by this edge, on top
            of the target transition's own delay (used for matched delays).
    """

    place: str
    source: str
    target: str
    tokens: int
    delay: float = 0.0


class MarkedGraph(PetriNet):
    """A Petri net restricted to marked-graph structure.

    Use :meth:`connect` to build edges place-free (a place is created
    automatically per edge); :meth:`check_structure` validates nets built
    through the raw :class:`PetriNet` API.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._edge_delays: dict[str, float] = {}
        self._edge_counter = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def connect(self, source: str, target: str, tokens: int = 0,
                delay: float = 0.0, place: str | None = None) -> MgEdge:
        """Add an edge ``source -> target`` between two transitions."""
        for transition in (source, target):
            if transition not in self.transitions:
                raise PetriError(f"unknown transition {transition}")
        if place is None:
            place = f"p{self._edge_counter}:{source}->{target}"
            self._edge_counter += 1
        self.add_place(place, tokens)
        self.add_arc(place, target)
        self.add_arc(source, place)
        if delay:
            self._edge_delays[place] = delay
        return MgEdge(place, source, target, tokens, delay)

    def edge_delay(self, place: str) -> float:
        return self._edge_delays.get(place, 0.0)

    def set_edge_delay(self, place: str, delay: float) -> None:
        if place not in self.places:
            raise PetriError(f"unknown place {place}")
        self._edge_delays[place] = delay

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def check_structure(self) -> None:
        """Raise :class:`NotAMarkedGraphError` unless every place has
        exactly one producer and one consumer."""
        for place in self.places:
            n_pre = len(self.place_pre[place])
            n_post = len(self.place_post[place])
            if n_pre != 1 or n_post != 1:
                raise NotAMarkedGraphError(
                    f"place {place} has {n_pre} producers and "
                    f"{n_post} consumers (each must be exactly 1)")

    def edges(self) -> list[MgEdge]:
        """All edges of the graph view."""
        self.check_structure()
        result = []
        for place in self.places:
            source = self.place_pre[place][0]
            target = self.place_post[place][0]
            result.append(MgEdge(place, source, target,
                                 self.initial_marking.get(place, 0),
                                 self.edge_delay(place)))
        return result

    def successors(self, transition: str) -> list[str]:
        return [self.place_post[p][0] for p in self.post[transition]]

    def predecessors(self, transition: str) -> list[str]:
        return [self.place_pre[p][0] for p in self.pre[transition]]

    # ------------------------------------------------------------------
    # classic marked-graph properties
    # ------------------------------------------------------------------
    def is_live(self) -> bool:
        """True iff every directed cycle carries at least one token
        (Commoner's theorem for marked graphs)."""
        return self.token_free_cycle() is None

    def token_free_cycle(self) -> list[str] | None:
        """One directed cycle carrying no token, as its transitions in
        order, or None when the graph is live.

        Kahn's algorithm peels the acyclic part of the token-free
        subgraph; every transition it leaves has a token-free
        predecessor that is also left, so walking those predecessors
        must close a cycle.
        """
        self.check_structure()
        adjacency: dict[str, list[str]] = {t: [] for t in self.transitions}
        for edge in self.edges():
            if edge.tokens == 0:
                adjacency[edge.source].append(edge.target)
        indegree = {t: 0 for t in self.transitions}
        for targets in adjacency.values():
            for target in targets:
                indegree[target] += 1
        queue = [t for t, deg in indegree.items() if deg == 0]
        while queue:
            node = queue.pop()
            for target in adjacency[node]:
                indegree[target] -= 1
                if indegree[target] == 0:
                    queue.append(target)
        stuck = [t for t, deg in indegree.items() if deg > 0]
        if not stuck:
            return None
        predecessor = {}
        for source, targets in adjacency.items():
            if indegree[source] > 0:
                for target in targets:
                    predecessor.setdefault(target, source)
        walk = [stuck[0]]
        position = {stuck[0]: 0}
        while True:
            node = predecessor[walk[-1]]
            if node in position:
                cycle = walk[position[node]:]
                cycle.reverse()
                return cycle
            position[node] = len(walk)
            walk.append(node)

    def bound_violation(self, bound: int,
                        paths: "TokenPaths | None" = None) -> str | None:
        """Witness that some place can hold more than ``bound`` tokens,
        or None when none can.

        Structural, for live graphs only (check :meth:`is_live` first):
        the most tokens place ``p = u -> v`` ever holds is ``M0(p) +
        d(v -> u)``, the token count of the least-marked cycle through
        ``p``, and a place on no cycle is unbounded [Commoner et al.
        1971; Murata 1989].  The witness names the place and that cycle.
        ``paths`` lets a caller share its distance cache.
        """
        if paths is None:
            paths = TokenPaths(self)
        for place in self.places:
            source = self.place_pre[place][0]
            target = self.place_post[place][0]
            tokens = self.initial_marking.get(place, 0)
            back = paths.distance(target, source)
            if back is None:
                return (f"place {place} ({source} -> {target}) is "
                        f"unbounded: it lies on no cycle (there is no "
                        f"path {target} -> {source})")
            if tokens + back > bound:
                return (f"place {place} ({source} -> {target}) can hold "
                        f"{tokens + back} tokens: {tokens} of its own plus "
                        f"{back} on the return path "
                        f"{' -> '.join(paths.path(target, source))}")
        return None

    def is_safe(self) -> bool:
        """True iff no reachable marking puts two tokens in a place.

        Decided structurally (:meth:`bound_violation` with ``bound=1``),
        which needs a live graph: raises :class:`PetriError` otherwise.
        """
        cycle = self.token_free_cycle()
        if cycle is not None:
            raise PetriError(
                f"{self.name}: safety is decided only for live marked "
                f"graphs (token-free cycle {' -> '.join(cycle + cycle[:1])})")
        return self.bound_violation(1) is None

    def token_count_invariant(self) -> dict[frozenset[str], int]:
        """Token counts of the simple cycles through each transition pair.

        For marked graphs, firing preserves the token count of every
        directed cycle; this helper returns the counts of all simple
        cycles (for tests on small graphs).
        """
        cycles = self.simple_cycles()
        return {frozenset(cycle): self._cycle_tokens(cycle)
                for cycle in cycles}

    def simple_cycles(self) -> list[tuple[str, ...]]:
        """All simple cycles (as transition tuples).  Small graphs only."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        graph.add_nodes_from(self.transitions)
        for edge in self.edges():
            graph.add_edge(edge.source, edge.target)
        return [tuple(cycle) for cycle in nx.simple_cycles(graph)]

    def _cycle_tokens(self, cycle: tuple[str, ...]) -> int:
        total = 0
        for i, source in enumerate(cycle):
            target = cycle[(i + 1) % len(cycle)]
            candidates = [
                self.initial_marking.get(p, 0)
                for p in self.post[source] if self.place_post[p][0] == target
            ]
            total += min(candidates) if candidates else 0
        return total


class TokenPaths:
    """Token distances between the transitions of a marked graph.

    The token distance ``d(a -> b)`` is the least number of initial
    tokens on a directed path from ``a`` to ``b`` (0 from a transition
    to itself).  In a live marked graph it is exactly how many more
    times ``b`` can fire than ``a`` from the initial marking, which is
    what turns boundedness and consistency into shortest-path questions
    [Murata 1989].  Each source gets one Dijkstra search, run on its
    first query.  The graph must not change while the instance is in
    use.
    """

    def __init__(self, graph: MarkedGraph):
        marking = graph.initial_marking
        self._out: dict[str, list[tuple[int, str]]] = {
            t: [] for t in graph.transitions}
        for place in graph.places:
            self._out[graph.place_pre[place][0]].append(
                (marking.get(place, 0), graph.place_post[place][0]))
        self._trees: dict[str, tuple[dict[str, int], dict[str, str]]] = {}

    def _tree(self, source: str) -> tuple[dict[str, int], dict[str, str]]:
        """Distances from ``source`` and each reached transition's
        predecessor on a least-token path."""
        tree = self._trees.get(source)
        if tree is not None:
            return tree
        distance = {source: 0}
        parent: dict[str, str] = {}
        heap = [(0, source)]
        while heap:
            reached, node = heapq.heappop(heap)
            if reached > distance[node]:
                continue
            for tokens, target in self._out[node]:
                candidate = reached + tokens
                if candidate < distance.get(target, candidate + 1):
                    distance[target] = candidate
                    parent[target] = node
                    heapq.heappush(heap, (candidate, target))
        self._trees[source] = distance, parent
        return distance, parent

    def distance(self, source: str, target: str) -> int | None:
        """``d(source -> target)``, or None when there is no path."""
        return self._tree(source)[0].get(target)

    def path(self, source: str, target: str) -> list[str] | None:
        """The transitions of one least-token path from ``source`` to
        ``target``, or None when there is no path."""
        distance, parent = self._tree(source)
        if target not in distance:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        return path
