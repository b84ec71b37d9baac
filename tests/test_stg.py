"""Tests for STGs, the Figure-4 patterns, and model composition."""

import pytest

from repro.petri import cycle_time, simulate
from repro.stg import (
    Parity,
    Stg,
    compose,
    even_to_odd,
    linear_pipeline,
    odd_to_even,
    pairwise_pattern,
    parse_label,
    ring,
    transition_name,
)
from repro.testing.model_oracle import explored_consistency
from repro.utils.errors import StgError


class TestLabels:
    def test_transition_name(self):
        assert transition_name("clk", "+") == "clk+"

    def test_bad_sign(self):
        with pytest.raises(StgError):
            transition_name("a", "*")

    def test_parse_label(self):
        assert parse_label("lat3-") == ("lat3", "-")

    def test_parse_bad_label(self):
        with pytest.raises(StgError):
            parse_label("x")


class TestStgBasics:
    def test_add_signal_creates_two_transitions(self):
        stg = Stg("t")
        rise, fall = stg.add_signal("a", initial=0)
        assert rise == "a+"
        assert fall == "a-"
        assert set(stg.transitions) == {"a+", "a-"}

    def test_duplicate_signal(self):
        stg = Stg("t")
        stg.add_signal("a", 0)
        with pytest.raises(StgError):
            stg.add_signal("a", 1)

    def test_consistency_accepts_alternation(self):
        stg = Stg("t")
        stg.add_signal("a", 0)
        stg.connect("a+", "a-", tokens=0)
        stg.connect("a-", "a+", tokens=1)
        stg.check_model()
        explored_consistency(stg)

    def test_consistency_rejects_double_rise(self):
        stg = Stg("t")
        stg.add_signal("a", 1)  # a already high...
        stg.connect("a+", "a-", tokens=0)
        stg.connect("a-", "a+", tokens=1)  # ...but a+ enabled first
        with pytest.raises(StgError, match="inconsistent.*signal a"):
            stg.check_model()
        with pytest.raises(StgError, match="inconsistent"):
            explored_consistency(stg)


class TestParity:
    def test_opposites(self):
        assert Parity.EVEN.opposite is Parity.ODD
        assert Parity.ODD.opposite is Parity.EVEN

    def test_initial_control(self):
        assert Parity.EVEN.initial_control == 1
        assert Parity.ODD.initial_control == 0


class TestPatterns:
    def test_even_to_odd_valid_model(self):
        even_to_odd().check_model()

    def test_odd_to_even_valid_model(self):
        odd_to_even().check_model()

    def test_even_to_odd_marking(self):
        stg = even_to_odd("A", "B")
        marks = dict(stg.initial_marking)
        assert marks["A>B:r"] == 1      # request marked for even pred
        assert "A>B:rf" not in marks    # rf unmarked
        assert marks["A>B:af"] == 1     # no-overwrite always marked
        assert "A>B:a" not in marks     # ack never marked (overlap arc)

    def test_odd_to_even_marking(self):
        stg = odd_to_even("B", "A")
        marks = dict(stg.initial_marking)
        assert "B>A:r" not in marks
        assert marks["B>A:rf"] == 1
        assert marks["B>A:af"] == 1

    def test_self_loop_tokens_by_parity(self):
        stg = even_to_odd("A", "B")
        marks = dict(stg.initial_marking)
        assert marks["self:A:rf"] == 1   # even: next event is closing
        assert marks["self:B:fr"] == 1   # odd: next event is opening

    def test_same_latch_rejected(self):
        with pytest.raises(StgError):
            pairwise_pattern("A", "A", Parity.EVEN)

    def test_pattern_overlap_order(self):
        """The successor opens before the predecessor closes (Figure 3)."""
        stg = even_to_odd("A", "B")
        for transition in stg.transitions.values():
            object.__setattr__  # transitions are frozen; rebuild with delay
        stg = linear_pipeline(["A", "B"], stage_delay=100.0,
                              controller_delay=10.0)
        trace = simulate(stg, rounds=6)
        b_rise = trace.times_of("B+")
        a_fall = trace.times_of("A-")
        # Every A- follows the B+ of the same round: overlapping pulses.
        for rise, fall in zip(b_rise, a_fall):
            assert fall >= rise


class TestPipelineModel:
    def test_figure3_pipeline_checks(self):
        stg = linear_pipeline(["A", "B", "C", "D"], stage_delay=100.0,
                              controller_delay=10.0)
        stg.check_model()

    def test_pipeline_cycle_time(self):
        stg = linear_pipeline(["A", "B", "C", "D"], stage_delay=1000.0,
                              controller_delay=50.0)
        result = cycle_time(stg)
        # Period = matched delay + 3 controller delays (see DESIGN.md).
        assert result.cycle_time == pytest.approx(1150.0, rel=1e-3)

    def test_pipeline_simulation_matches_analysis(self):
        stg = linear_pipeline(["A", "B", "C", "D"], stage_delay=777.0,
                              controller_delay=33.0)
        expected = cycle_time(stg).cycle_time
        trace = simulate(stg, rounds=12)
        for name in ("A+", "B-", "D+"):
            assert trace.steady_period(name, settle=4) == pytest.approx(
                expected, rel=1e-3)

    def test_no_overwrite_property(self):
        """p+ of round k+1 never precedes s- of round k (data would be
        overwritten before capture otherwise)."""
        stg = linear_pipeline(["A", "B", "C"], stage_delay=200.0,
                              controller_delay=10.0)
        trace = simulate(stg, rounds=10)
        for pred, succ in [("A", "B"), ("B", "C")]:
            pred_rises = trace.times_of(f"{pred}+")
            succ_falls = trace.times_of(f"{succ}-")
            for k in range(min(len(pred_rises), len(succ_falls)) - 1):
                assert pred_rises[k + 1] >= succ_falls[k]

    def test_short_pipeline_rejected(self):
        with pytest.raises(StgError):
            linear_pipeline(["A"])


class TestRingModel:
    def test_ff_self_loop(self):
        stg = ring(["M", "S"], controller_delay=50.0,
                   stage_delays=[0.0, 2000.0])
        stg.check_model()
        result = cycle_time(stg)
        assert result.cycle_time == pytest.approx(2150.0, rel=1e-3)

    def test_ring_is_one_safe(self):
        stg = ring(["M", "S"], stage_delays=[0.0, 100.0])
        assert stg.is_safe()

    def test_ring4(self):
        stg = ring(["M1", "S1", "M2", "S2"], stage_delay=500.0,
                   controller_delay=25.0)
        stg.check_model()

    def test_odd_ring_rejected(self):
        with pytest.raises(StgError):
            ring(["A", "B", "C"])

    def test_bad_stage_delays_length(self):
        with pytest.raises(StgError):
            ring(["A", "B"], stage_delays=[1.0])


class TestComposition:
    def test_compose_patterns_into_pipeline(self):
        """Composing (A,B) and (B,C) patterns equals the direct pipeline
        model, modulo duplicated self-loops of the shared latch."""
        ab = even_to_odd("A", "B")
        bc = odd_to_even("B", "C")
        composed = compose([ab, bc], "ABC")
        composed.check_structure()
        assert set(composed.signals()) == {"A", "B", "C"}
        assert composed.is_live()
        composed.check_model()
        explored_consistency(composed)

    def test_compose_conflicting_initial_values(self):
        first = Stg("x")
        first.add_signal("a", 0)
        second = Stg("y")
        second.add_signal("a", 1)
        with pytest.raises(StgError, match="conflict"):
            compose([first, second], "bad")

    def test_compose_empty(self):
        with pytest.raises(StgError):
            compose([], "none")

    def test_compose_keeps_max_delay(self):
        first = Stg("x")
        first.add_signal("a", 0, delay=5.0)
        second = Stg("y")
        second.add_signal("a", 0, delay=9.0)
        merged = compose([first, second], "m")
        assert merged.transitions["a+"].delay == 9.0
