"""Performance analysis of timed marked graphs.

The steady-state cycle time of a strongly-connected timed marked graph is
its **maximum cycle ratio**:

    T = max over directed cycles C of  (sum of delays on C) / (tokens on C)

where the delay of an edge ``u -> v`` is the firing delay of ``v`` plus any
extra propagation delay attached to the edge (matched delays, in the
de-synchronization model).  This is how the de-synchronized DLX cycle time
in Table 1 is computed.

The ratio is found with Lawler's parametric search: a guess ``lam`` is
feasible iff the graph with edge weights ``delay - lam * tokens`` has no
positive cycle (checked with Bellman-Ford).  Binary search converges
geometrically; the critical cycle is then extracted from a slightly
deflated guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.trace import TRACER
from repro.petri.marked_graph import MarkedGraph, MgEdge
from repro.utils.errors import PetriError


@dataclass
class CycleTimeResult:
    """Result of :func:`cycle_time`.

    Attributes:
        cycle_time: maximum cycle ratio in ps (the steady-state period).
        critical_cycle: transitions of one critical cycle, in order.
        critical_delay: total delay along the critical cycle, ps.
        critical_tokens: token count of the critical cycle.
    """

    cycle_time: float
    critical_cycle: list[str]
    critical_delay: float
    critical_tokens: int

    @property
    def throughput(self) -> float:
        """Firings per ps of each transition (1 / cycle time)."""
        return math.inf if self.cycle_time == 0 else 1.0 / self.cycle_time


def _edge_weight(graph: MarkedGraph, edge: MgEdge) -> float:
    return graph.transitions[edge.target].delay + edge.delay


def _has_positive_cycle(nodes: list[str],
                        edges: list[tuple[str, str, float]],
                        ) -> tuple[bool, list[str]]:
    """Bellman-Ford longest-path positive-cycle detection.

    Returns ``(found, cycle)`` where ``cycle`` lists the transitions of a
    positive-weight cycle when one exists.
    """
    distance = {node: 0.0 for node in nodes}
    parent: dict[str, str | None] = {node: None for node in nodes}
    updated_node: str | None = None
    for _ in range(len(nodes)):
        updated_node = None
        for source, target, weight in edges:
            candidate = distance[source] + weight
            if candidate > distance[target] + 1e-12:
                distance[target] = candidate
                parent[target] = source
                updated_node = target
        if updated_node is None:
            return False, []
    # A relaxation in the n-th pass proves a positive cycle; walk parents
    # n steps to guarantee we are on it, then peel off the cycle.
    node = updated_node
    assert node is not None
    for _ in range(len(nodes)):
        node = parent[node]
        assert node is not None
    cycle = [node]
    walker = parent[node]
    while walker != node:
        assert walker is not None
        cycle.append(walker)
        walker = parent[walker]
    cycle.reverse()
    return True, cycle


def cycle_time(graph: MarkedGraph, tolerance: float = 1e-6) -> CycleTimeResult:
    """Maximum cycle ratio of a live timed marked graph.

    Raises :class:`PetriError` if the graph has a token-free cycle (not
    live — the ratio would be infinite) or has no cycles at all (the
    period is then 0: the graph is a finite pipeline with no feedback).
    """
    with TRACER.span("model:cycle-time", transitions=len(graph.transitions),
                     places=len(graph.places)):
        return _cycle_time(graph, tolerance)


def _cycle_time(graph: MarkedGraph, tolerance: float) -> CycleTimeResult:
    graph.check_structure()
    if not graph.is_live():
        raise PetriError(
            f"{graph.name}: token-free cycle -> unbounded cycle ratio")
    nodes = list(graph.transitions)
    all_edges = graph.edges()
    if not all_edges:
        return CycleTimeResult(0.0, [], 0.0, 0)

    def weighted(lam: float) -> list[tuple[str, str, float]]:
        return [(e.source, e.target, _edge_weight(graph, e) - lam * e.tokens)
                for e in all_edges]

    # Upper bound: total delay of the whole graph over one token.
    high = sum(_edge_weight(graph, e) for e in all_edges) + 1.0
    low = 0.0
    found_any, _ = _has_positive_cycle(nodes, weighted(0.0))
    if not found_any:
        # No cycle with positive delay: acyclic or zero-delay feedback.
        return CycleTimeResult(0.0, [], 0.0, 0)
    while high - low > max(tolerance, tolerance * high):
        mid = 0.5 * (low + high)
        positive, _ = _has_positive_cycle(nodes, weighted(mid))
        if positive:
            low = mid
        else:
            high = mid
    ratio = high
    # Extract the critical cycle just below the converged ratio.
    slack = max(tolerance, tolerance * high) * 4
    positive, cycle = _has_positive_cycle(nodes, weighted(ratio - slack))
    delay_sum, token_sum = _cycle_metrics(graph, cycle)
    if token_sum > 0:
        ratio = delay_sum / token_sum
    return CycleTimeResult(ratio, cycle, delay_sum, token_sum)


def _cycle_metrics(graph: MarkedGraph,
                   cycle: list[str]) -> tuple[float, int]:
    """Delay and token sums along ``cycle`` (choosing, between parallel
    edges, the one with minimum tokens then maximum delay — the binding
    constraint)."""
    if not cycle:
        return 0.0, 0
    by_pair: dict[tuple[str, str], list[MgEdge]] = {}
    for edge in graph.edges():
        by_pair.setdefault((edge.source, edge.target), []).append(edge)
    delay_sum = 0.0
    token_sum = 0
    for i, source in enumerate(cycle):
        target = cycle[(i + 1) % len(cycle)]
        candidates = by_pair.get((source, target))
        if not candidates:
            raise PetriError(f"critical cycle edge {source}->{target} missing")
        best = min(candidates,
                   key=lambda e: (e.tokens, -_edge_weight(graph, e)))
        delay_sum += _edge_weight(graph, best)
        token_sum += best.tokens
    return delay_sum, token_sum


def total_tokens(graph: MarkedGraph) -> int:
    """Total tokens in the initial marking."""
    return sum(graph.initial_marking.values())
