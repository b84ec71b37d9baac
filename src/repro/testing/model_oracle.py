"""Explored model validation: the differential oracle for
:meth:`repro.stg.Stg.check_model`.

``Stg.check_model`` decides liveness, boundedness and consistency from
the marked graph's structure.  This module keeps the older, independent
way of deciding the last two — walk every reachable marking — so tests
and ``benchmarks/bench_model.py`` can check that both ways agree.  The
walk is exponential in the model's concurrency, so it runs under a
marking budget and reports ``"capped"`` when the budget runs out.
"""

from __future__ import annotations

from repro.stg.stg import FALL, RISE, Stg
from repro.utils.errors import PetriError, ReproError, StgError

#: Markings the explored check visits before it gives up.
DEFAULT_BUDGET = 100_000

#: Verdicts of :func:`structural_verdict` / :func:`explored_verdict`.
VALID, INVALID, CAPPED = "valid", "invalid", "capped"


class ExplorationCapped(ReproError):
    """The reachability graph has more markings than the budget."""


def explored_consistency(stg: Stg) -> None:
    """Verify rise/fall alternation over the whole reachability graph.

    Walks every reachable marking, tracking the binary signal vector;
    firing ``a+`` from a state where ``a`` is already 1 (or ``a-``
    where it is 0) raises :class:`StgError`.  Also fails if two
    distinct signal vectors are observed for one marking (the marking
    does not determine the state).  The walk visits each reachable
    marking once, so callers bound its cost by bounding reachability
    first (:func:`explored_check_model` does).
    """
    def freeze(marking: dict[str, int]) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(marking.items()))

    start = stg.marking()
    start_state = dict(stg.initial_values)
    seen = {freeze(start): start_state}
    frontier = [(start, start_state)]
    while frontier:
        marking, state = frontier.pop()
        for transition in stg.enabled_transitions(marking):
            signal, sign = stg.signal_of(transition)
            value = state.get(signal)
            if value is None:
                raise StgError(f"transition {transition} on undeclared "
                               f"signal {signal}")
            if sign == RISE and value == 1 or sign == FALL and value == 0:
                raise StgError(
                    f"inconsistent STG {stg.name}: {transition} enabled "
                    f"while {signal}={value}")
            successor = stg.fire(marking, transition)
            new_state = dict(state)
            new_state[signal] = 1 if sign == RISE else 0
            key = freeze(successor)
            recorded = seen.get(key)
            if recorded is None:
                seen[key] = new_state
                frontier.append((successor, new_state))
            elif recorded != new_state:
                raise StgError(
                    f"inconsistent STG {stg.name}: marking reached with "
                    f"two different signal states")


def explored_check_model(stg: Stg, bound: int = 2,
                         budget: int = DEFAULT_BUDGET) -> None:
    """:meth:`Stg.check_model` by exploration: the same four properties,
    in the same order, with boundedness and consistency read off the
    reachability graph.  Raises :class:`ExplorationCapped` past
    ``budget`` markings."""
    stg.check_structure()
    if not stg.is_live():
        raise StgError(f"STG {stg.name} is not live (token-free cycle)")
    try:
        markings = stg.reachable_markings(max_states=budget)
    except PetriError as exc:
        raise ExplorationCapped(str(exc)) from None
    if any(tokens > bound for marking in markings
           for tokens in marking.values()):
        raise StgError(f"STG {stg.name} is not {bound}-bounded")
    explored_consistency(stg)


def structural_verdict(stg: Stg, bound: int = 2) -> tuple[str, str]:
    """``(verdict, message)`` of :meth:`Stg.check_model`."""
    try:
        stg.check_model(bound=bound)
    except ReproError as exc:
        return INVALID, str(exc)
    return VALID, ""


def explored_verdict(stg: Stg, bound: int = 2,
                     budget: int = DEFAULT_BUDGET) -> tuple[str, str]:
    """``(verdict, message)`` of :func:`explored_check_model`."""
    try:
        explored_check_model(stg, bound=bound, budget=budget)
    except ExplorationCapped as exc:
        return CAPPED, str(exc)
    except ReproError as exc:
        return INVALID, str(exc)
    return VALID, ""
