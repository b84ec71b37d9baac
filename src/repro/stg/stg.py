"""Signal Transition Graphs (STGs).

An STG is a Petri net whose transitions are labelled with signal edges
(``a+`` = signal ``a`` rises, ``a-`` = it falls).  The de-synchronization
model labels transitions with latch-control events: ``x+`` means latch
bank ``x`` becomes transparent, ``x-`` means it closes and captures.

In every model generated here each signal has exactly one rising and one
falling transition, so transition names double as labels.  The class still
carries an explicit label map so composed or hand-built STGs with repeated
labels remain expressible; :meth:`Stg.check_model` rejects them, because
its consistency theorem needs one rising and one falling transition per
signal.
"""

from __future__ import annotations

from repro.obs.trace import TRACER
from repro.petri.marked_graph import MarkedGraph, TokenPaths
from repro.utils.errors import ReproError, StgError

RISE = "+"
FALL = "-"


def transition_name(signal: str, sign: str) -> str:
    """Canonical transition name for a signal edge, e.g. ``('a', '+') -> 'a+'``."""
    if sign not in (RISE, FALL):
        raise StgError(f"sign must be '+' or '-', got {sign!r}")
    return f"{signal}{sign}"


def parse_label(label: str) -> tuple[str, str]:
    """Split a transition label into ``(signal, sign)``."""
    if len(label) < 2 or label[-1] not in (RISE, FALL):
        raise StgError(f"malformed STG label {label!r}")
    return label[:-1], label[-1]


class Stg(MarkedGraph):
    """A marked-graph STG with initial signal values.

    Attributes:
        initial_values: signal -> 0/1 value in the initial state.  In the
            de-synchronization model even (master) latches start
            transparent (1) and odd (slave) latches opaque (0), matching
            a synchronous circuit observed with the clock low.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.initial_values: dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_signal(self, signal: str, initial: int, delay: float = 0.0,
                   ) -> tuple[str, str]:
        """Declare ``signal`` with both of its transitions.

        Returns the ``(rise, fall)`` transition names.
        """
        if signal in self.initial_values:
            raise StgError(f"duplicate signal {signal}")
        self.initial_values[signal] = 1 if initial else 0
        rise = transition_name(signal, RISE)
        fall = transition_name(signal, FALL)
        self.add_transition(rise, delay=delay, label=rise)
        self.add_transition(fall, delay=delay, label=fall)
        return rise, fall

    def signals(self) -> list[str]:
        return sorted(self.initial_values)

    def signal_of(self, transition: str) -> tuple[str, str]:
        label = self.transitions[transition].label or transition
        return parse_label(label)

    # ------------------------------------------------------------------
    # semantic checks
    # ------------------------------------------------------------------
    def check_model(self, bound: int = 2) -> None:
        """Validate the model: marked-graph structure, liveness,
        ``bound``-boundedness and consistency — the properties ref [1]
        establishes for the composed de-synchronization model.

        Each property is decided from the graph, never from its state
        space, by three classical marked-graph theorems over the token
        distance ``d(a -> b)`` (least initial tokens on a path from
        ``a`` to ``b``; :class:`~repro.petri.marked_graph.TokenPaths`):

        1. **Liveness** [Commoner et al. 1971]: a marked graph is live
           iff every directed cycle carries a token.
        2. **Boundedness** [Commoner et al. 1971; Murata 1989]: in a
           live marked graph the most tokens place ``p = u -> v`` ever
           holds is ``M0(p) + d(v -> u)``, the tokens of the
           least-marked cycle through ``p``; a place on no cycle is
           unbounded.
        3. **Consistency** [Murata 1989]: a live marked graph reaches
           every marking its state equation allows, so ``d(a -> b)``
           is the most times ``b`` can fire ahead of ``a``.  Signal
           ``x`` therefore alternates rise and fall iff
           ``(d(x+ -> x-), d(x- -> x+))`` is ``(0, 1)`` when ``x``
           starts at 0 and ``(1, 0)`` when it starts at 1.

        At most one Dijkstra search per transition makes the check
        polynomial.  A failure raises
        :class:`StgError` naming a witness: the token-free cycle, or the
        place or signal and its least-token path.

        The composed model is 1-safe along the canonical schedule but
        boundary latches may transiently run one handshake ahead under
        maximally-reordered interleavings, so the default bound allows
        two tokens per place (see :mod:`repro.stg.patterns`).
        """
        with TRACER.span("model:check", transitions=len(self.transitions),
                         places=len(self.places)) as span:
            try:
                self._check_model(bound)
            except ReproError:
                span.set(verdict="invalid")
                raise
            span.set(verdict="valid")

    def _check_model(self, bound: int) -> None:
        self.check_structure()
        cycle = self.token_free_cycle()
        if cycle is not None:
            raise StgError(f"STG {self.name} is not live: token-free cycle "
                           f"{' -> '.join(cycle + cycle[:1])}")
        paths = TokenPaths(self)
        witness = self.bound_violation(bound, paths)
        if witness is not None:
            raise StgError(f"STG {self.name} is not {bound}-bounded: "
                           f"{witness}")
        for signal, (rise, fall) in self._signal_transitions().items():
            start = self.initial_values[signal]
            for source, target, tokens in ((rise, fall, start),
                                           (fall, rise, 1 - start)):
                carried = paths.distance(source, target)
                if carried == tokens:
                    continue
                actual = (f"there is no path {source} -> {target}"
                          if carried is None else
                          f"the path "
                          f"{' -> '.join(paths.path(source, target))} "
                          f"carries {carried}")
                raise StgError(
                    f"inconsistent STG {self.name}: signal {signal} starts "
                    f"at {start}, so the least-token path {source} -> "
                    f"{target} must carry {tokens} token(s), but {actual}")

    def _signal_transitions(self) -> dict[str, tuple[str, str]]:
        """signal -> (rise, fall) transition names; every declared signal
        must have exactly one of each."""
        edges: dict[str, dict[str, list[str]]] = {
            signal: {RISE: [], FALL: []} for signal in self.initial_values}
        for transition in self.transitions:
            signal, sign = self.signal_of(transition)
            if signal not in edges:
                raise StgError(f"transition {transition} on undeclared "
                               f"signal {signal}")
            edges[signal][sign].append(transition)
        result = {}
        for signal, found in edges.items():
            if len(found[RISE]) != 1 or len(found[FALL]) != 1:
                raise StgError(
                    f"STG {self.name}: signal {signal} has "
                    f"{len(found[RISE])} rising and {len(found[FALL])} "
                    f"falling transitions; consistency is decided for "
                    f"exactly one of each")
            result[signal] = (found[RISE][0], found[FALL][0])
        return result


def compose(components: list[Stg], name: str) -> Stg:
    """Parallel composition of STGs, merging transitions by label.

    This is how the paper builds the global de-synchronization model:
    pairwise latch-interaction patterns share the transitions of common
    latches and their places are simply united.  Initial signal values of
    shared signals must agree.
    """
    if not components:
        raise StgError("cannot compose an empty list of STGs")
    result = Stg(name)
    for component in components:
        for signal, value in component.initial_values.items():
            known = result.initial_values.get(signal)
            if known is None:
                result.add_signal(signal, value)
            elif known != value:
                raise StgError(
                    f"composition conflict: signal {signal} starts at "
                    f"{known} in one component and {value} in another")
        # Merge transition delays (max wins: the slowest implementation
        # of a shared event bounds the composed behaviour).
        for transition in component.transitions.values():
            label = transition.label or transition.name
            if label in result.transitions:
                existing = result.transitions[label]
                if transition.delay > existing.delay:
                    result.transitions[label] = type(existing)(
                        existing.name, transition.delay, existing.label)
    for index, component in enumerate(components):
        for edge in component.edges():
            src_label = component.transitions[edge.source].label or edge.source
            dst_label = component.transitions[edge.target].label or edge.target
            result.connect(src_label, dst_label, tokens=edge.tokens,
                           delay=edge.delay,
                           place=f"c{index}:{edge.place}")
    return result
