"""Structural model validation against the explored oracle.

``Stg.check_model`` decides liveness, boundedness and consistency from
the marked graph (token distances, no state space);
``repro.testing.model_oracle`` decides the same properties by walking
every reachable marking.  These tests check that the two agree on every
core-tier model the sweep builds and on seeded mutants of them, and that
every rejection names its witness.
"""

import random

import pytest

from repro.corpus import generate, names
from repro.desync import DesyncOptions, HandshakeMode, desynchronize
from repro.desync.pipeline import default_variants, run_pipeline
from repro.faults import campaign_options
from repro.obs.trace import TRACER
from repro.petri import MarkedGraph
from repro.petri.marked_graph import TokenPaths
from repro.stg import Stg, linear_pipeline
from repro.testing.model_oracle import (
    CAPPED,
    INVALID,
    VALID,
    explored_verdict,
    structural_verdict,
)
from repro.utils.errors import PetriError, ReproError, StgError

#: Markings the oracle may visit per core-tier model.  The deep overlap
#: fabrics (fir8, pipe8x2, ...) run past it and are not compared.
CORE_BUDGET = 5_000
#: Markings per mutant; mutants come from the small models only.
MUTANT_BUDGET = 2_000
MUTANT_MAX_TRANSITIONS = 16
MUTANTS_PER_MODEL = 3
MUTANT_SEED = 13


@pytest.fixture(scope="module")
def core_models() -> list[tuple[str, Stg]]:
    """The model of every core-tier sweep cell that builds."""
    models, unbuilt = [], []
    for config in names("core"):
        netlist = generate(config)
        for variant in default_variants():
            options = variant.options_for(netlist)
            options.validate_model = False  # the tests run both checks
            try:
                ctx = run_pipeline(netlist, options,
                                   pipeline=variant.pipeline)
            except ReproError:
                unbuilt.append(variant.name)
                continue
            models.append((f"{config}/{variant.name}", ctx.model))
    # Only per-register clustering on a cyclic register graph is
    # structurally inapplicable.
    assert set(unbuilt) <= {"per-register-serial"}
    return models


def names_witness(stg: Stg, message: str) -> bool:
    """The message names a place or a signal (by name or by one of its
    transitions) and a path between transitions."""
    named = any(place in message for place in stg.places) or any(
        f"signal {signal}" in message or f"{signal}+" in message
        or f"{signal}-" in message for signal in stg.initial_values)
    return named and " -> " in message


def mutate(stg: Stg, rng: random.Random):
    """Apply one seeded mutation in place; return (kind, undo)."""
    kind = rng.choice(("token+", "token-", "flip"))
    if kind == "flip":
        signal = rng.choice(sorted(stg.initial_values))
        value = stg.initial_values[signal]
        stg.initial_values[signal] = 1 - value

        def undo():
            stg.initial_values[signal] = value
        return kind, undo
    marked = sorted(stg.initial_marking)
    if kind == "token-" and marked:
        place = rng.choice(marked)
        delta = -1
    else:
        kind = "token+"
        place = rng.choice(sorted(stg.places))
        delta = 1
    tokens = stg.initial_marking.get(place, 0)
    stg.set_tokens(place, tokens + delta)
    return kind, lambda: stg.set_tokens(place, tokens)


class TestTokenPaths:
    def diamond(self) -> MarkedGraph:
        mg = MarkedGraph("diamond")
        for name in ("a", "b", "c", "d"):
            mg.add_transition(name)
        mg.connect("a", "b", tokens=2)
        mg.connect("a", "c", tokens=0)
        mg.connect("c", "b", tokens=1)
        mg.connect("b", "d", tokens=0)
        return mg

    def test_least_token_distance_and_path(self):
        paths = TokenPaths(self.diamond())
        assert paths.distance("a", "a") == 0
        assert paths.distance("a", "c") == 0
        assert paths.distance("a", "b") == 1
        assert paths.path("a", "b") == ["a", "c", "b"]
        assert paths.distance("a", "d") == 1
        assert paths.path("a", "d") == ["a", "c", "b", "d"]
        assert paths.distance("d", "a") is None
        assert paths.path("d", "a") is None


class TestWitnesses:
    def test_token_free_cycle_is_named(self):
        stg = Stg("dead")
        stg.add_signal("a", 0)
        stg.connect("a+", "a-")
        stg.connect("a-", "a+")
        assert stg.token_free_cycle() in (["a+", "a-"], ["a-", "a+"])
        with pytest.raises(StgError, match=r"not live: token-free cycle "
                                           r"a[+-] -> a[+-] -> a[+-]"):
            stg.check_model()

    def test_place_on_no_cycle_is_unbounded(self):
        stg = Stg("open")
        stg.add_signal("a", 0)
        stg.add_signal("b", 0)
        stg.connect("a+", "a-")
        stg.connect("a-", "a+", tokens=1)
        stg.connect("a+", "b+", place="feed")
        stg.connect("b+", "b-")
        stg.connect("b-", "b+", tokens=1)
        with pytest.raises(StgError, match="place feed .* unbounded: it "
                                           "lies on no cycle"):
            stg.check_model()
        assert explored_verdict(stg, budget=500)[0] == CAPPED

    def test_overfull_cycle_names_place_and_return_path(self):
        stg = linear_pipeline(["A", "B", "C"])
        place = sorted(stg.initial_marking)[0]
        stg.set_tokens(place, stg.initial_marking[place] + 2)
        verdict, message = structural_verdict(stg)
        assert verdict == INVALID
        assert f"place {place}" in message
        assert "return path" in message and names_witness(stg, message)
        assert explored_verdict(stg)[0] == INVALID

    def test_flipped_signal_names_signal_and_path(self):
        stg = linear_pipeline(["A", "B", "C"])
        stg.initial_values["B"] ^= 1
        with pytest.raises(StgError, match="inconsistent .*signal B "
                                           "starts at .* B[+-] -> "):
            stg.check_model()
        assert explored_verdict(stg)[0] == INVALID

    def test_repeated_labels_are_rejected(self):
        stg = Stg("twice")
        stg.add_signal("a", 0)
        stg.add_transition("a+/2", label="a+")
        stg.connect("a+", "a-")
        stg.connect("a-", "a+/2")
        stg.connect("a+/2", "a+", tokens=1)
        with pytest.raises(StgError, match="signal a has 2 rising"):
            stg.check_model()

    def test_is_safe_needs_a_live_graph(self):
        mg = MarkedGraph("dead")
        mg.add_transition("t0")
        mg.add_transition("t1")
        mg.connect("t0", "t1")
        mg.connect("t1", "t0")
        with pytest.raises(PetriError, match="token-free cycle"):
            mg.is_safe()


class TestOracleAgreement:
    def test_every_core_model_validates_and_agrees(self, core_models):
        compared = 0
        for key, model in core_models:
            structural, message = structural_verdict(model)
            assert structural == VALID, (key, message)
            explored, message = explored_verdict(model, budget=CORE_BUDGET)
            if explored != CAPPED:
                assert explored == structural, (key, message)
                compared += 1
        assert len(core_models) >= 100
        assert compared >= 80, compared

    def test_seeded_mutants_agree(self, core_models):
        rng = random.Random(MUTANT_SEED)
        verdicts = {VALID: 0, INVALID: 0}
        kinds = set()
        for key, model in core_models:
            if len(model.transitions) > MUTANT_MAX_TRANSITIONS:
                continue
            for _ in range(MUTANTS_PER_MODEL):
                kind, undo = mutate(model, rng)
                try:
                    structural, message = structural_verdict(model)
                    explored, _ = explored_verdict(model,
                                                   budget=MUTANT_BUDGET)
                    if structural == INVALID:
                        assert names_witness(model, message), message
                    if explored == CAPPED:
                        continue
                    assert structural == explored, (key, kind, message)
                finally:
                    undo()
                verdicts[structural] += 1
                kinds.add((kind, structural))
        assert sum(verdicts.values()) >= 150, verdicts
        assert verdicts[VALID] >= 20 and verdicts[INVALID] >= 20, verdicts
        assert {("token+", VALID), ("token+", INVALID), ("token-", INVALID),
                ("flip", INVALID)} <= kinds


class TestEveryModelValidated:
    def test_sweep_variants_validate(self):
        assert all(variant.options.validate_model
                   for variant in default_variants())

    def test_campaign_validates(self):
        assert campaign_options().validate_model

    def test_deep_overlap_model_validates_in_the_flow(self):
        # pipe12x2's OVERLAP model has more reachable markings than any
        # exploration budget the flow used to allow.
        result = desynchronize(generate("pipe12x2"))
        assert result.provenance[-1].info["model_validated"] is True


class TestModelSpans:
    @pytest.fixture
    def trace(self):
        TRACER.start()
        try:
            yield TRACER
        finally:
            TRACER.stop()

    def test_check_cycle_time_and_hold_spans(self, trace):
        result = desynchronize(generate("pipe4x1"),
                               DesyncOptions(mode=HandshakeMode.SERIAL))
        result.desync_cycle_time()
        result.verify_hold(rounds=4)
        events = {event["name"]: event for event in trace.events()}
        check = events["model:check"]["args"]
        assert check["verdict"] == "valid"
        assert check["transitions"] == len(result.model.transitions)
        assert check["places"] == len(result.model.places)
        assert "model:cycle-time" in events
        assert events["model:hold"]["args"]["rounds"] == 4

    def test_invalid_verdict_recorded(self, trace):
        stg = linear_pipeline(["A", "B"])
        stg.initial_values["A"] ^= 1
        with pytest.raises(StgError):
            stg.check_model()
        check = next(event for event in trace.events()
                     if event["name"] == "model:check")
        assert check["args"]["verdict"] == "invalid"
