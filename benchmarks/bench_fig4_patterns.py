"""Figure 4 — the pairwise latch synchronization patterns.

Figure 4 gives the two marked-graph fragments from which every
de-synchronization model is composed: (a) even -> odd and (b) odd ->
even, four arcs each plus the auxiliary environment arcs.  The bench
builds both patterns, checks their markings and semantic properties, and
verifies that composing them reproduces the behaviour of a directly
constructed pipeline model (the claim under Figure 2: "the overall clock
generation circuit is obtained through composition").
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_out
from repro.petri import cycle_time, marked_graph_to_dot
from repro.stg import compose, even_to_odd, linear_pipeline, odd_to_even


def _build():
    return even_to_odd("A", "B"), odd_to_even("B", "C")


@pytest.mark.benchmark(group="figures")
def test_fig4_patterns(benchmark):
    fig4a, fig4b = benchmark.pedantic(_build, rounds=1, iterations=1)

    # Both patterns are live, consistent, bounded STGs on their own.
    fig4a.check_model()
    fig4b.check_model()

    # Figure 4(a): request arc marked (the even latch holds data at
    # reset); Figure 4(b): the return-request arc marked instead.
    marks_a = dict(fig4a.initial_marking)
    marks_b = dict(fig4b.initial_marking)
    assert marks_a["A>B:r"] == 1 and "A>B:rf" not in marks_a
    assert marks_b["B>C:rf"] == 1 and "B>C:r" not in marks_b
    # The no-overwrite arc is marked in both.
    assert marks_a["A>B:af"] == 1
    assert marks_b["B>C:af"] == 1

    # Composition by shared transitions (latch B) reproduces the
    # three-latch pipeline model: same liveness/consistency and the
    # same untimed language skeleton (transition sets match).
    composed = compose([fig4a, fig4b], "A-B-C")
    composed.check_structure()
    assert composed.is_live()
    composed.check_model()
    direct = linear_pipeline(["A", "B", "C"])
    assert set(composed.transitions) == set(direct.transitions)

    # Timed: the composed model carries a finite steady cycle.
    timed = compose([even_to_odd("A", "B", data_delay=500.0),
                     odd_to_even("B", "C", data_delay=500.0)], "timed")
    assert cycle_time(timed).cycle_time > 0

    write_out("fig4a.dot", marked_graph_to_dot(fig4a))
    write_out("fig4b.dot", marked_graph_to_dot(fig4b))
