"""Classical probability spaces and their one-step frame translation.

The core law checked here: for any finite space and any event, a formula
over outcome names built with `~`, `/\\` and `\\/`, the measure of the
event equals the probability the translated frame assigns to the
translated formula. The bulk of the file exercises that law over a
hundred randomly generated spaces, exactly, with no tolerance.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_text

from ptl.adequacy import (
    ProbabilitySpace,
    check_adequacy,
    denote,
    enumerate_events,
    event_probability,
    indicator_name,
    measure,
    parse_space,
    serialize_space,
    support,
    translate_event,
    translate_space,
    validate_space,
)
from ptl.errors import (
    NameClash,
    ParseError,
    ProbabilityRangeError,
    ProbabilitySumError,
    UnknownOutcome,
)
from ptl.evaluator import truth
from ptl.parser import parse_formula
from ptl.printer import print_formula
from ptl.syntax import conj, disj, free, neg


def space_of(**mass):
    outcomes = tuple(mass)
    return ProbabilitySpace("s", outcomes, {o: Fraction(m) for o, m in mass.items()})


COIN = ProbabilitySpace(
    "coin", ("h", "t"), {"h": Fraction(1, 2), "t": Fraction(1, 2)}
)


# ---------- validation ----------

def test_validate_accepts_the_fixtures():
    for name in ("die.pspace", "biased2.pspace"):
        validate_space(parse_space(corpus_text(name), source=name))


def test_masses_must_sum_to_one():
    bad = space_of(a=Fraction(1, 2), b=Fraction(1, 3))
    with pytest.raises(ProbabilitySumError) as exc:
        validate_space(bad)
    assert exc.value.total == Fraction(5, 6)


def test_masses_must_lie_in_the_unit_interval():
    with pytest.raises(ProbabilityRangeError):
        validate_space(space_of(a=Fraction(3, 2), b=Fraction(-1, 2)))


def test_zero_mass_is_allowed():
    validate_space(space_of(a=Fraction(1), b=Fraction(0)))


def test_every_outcome_needs_a_mass():
    from ptl.errors import ModelError

    broken = ProbabilitySpace("s", ("a", "b"), {"a": Fraction(1)})
    with pytest.raises(ModelError):
        validate_space(broken)


def test_masses_must_name_outcomes():
    broken = ProbabilitySpace("s", ("a",), {"a": Fraction(1), "b": Fraction(0)})
    with pytest.raises(UnknownOutcome):
        validate_space(broken)


def test_outcomes_must_be_distinct():
    from ptl.errors import ModelError

    with pytest.raises(ModelError):
        validate_space(ProbabilitySpace("s", ("a", "a"), {"a": Fraction(1)}))


# ---------- event algebra ----------

def test_denotation_and_measure():
    die = parse_space(corpus_text("die.pspace"))
    evens = disj(free("two"), disj(free("four"), free("six")))
    assert denote(die, evens) == {"two", "four", "six"}
    assert measure(die, evens) == Fraction(1, 2)
    assert measure(die, neg(evens)) == Fraction(1, 2)
    assert measure(die, conj(evens, free("two"))) == Fraction(1, 6)


def test_set_expression_parsing_and_precedence():
    # events are formulas over outcome names; ~ binds tightest, /\ next,
    # \/ loosest: each other grouping of this text denotes another set
    abc = space_of(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(1, 6))
    e = parse_formula(r"~ a /\ b \/ a")
    assert e == disj(conj(neg(free("a")), free("b")), free("a"))
    assert denote(abc, e) == {"a", "b"}
    assert denote(abc, parse_formula(r"~ a /\ (b \/ a)")) == {"b"}
    assert denote(abc, parse_formula(r"~ (a /\ b) \/ a")) == {"a", "b", "c"}
    assert denote(abc, parse_formula(r"~ (a /\ b \/ a)")) == {"b", "c"}


def test_set_expressions_round_trip():
    texts = ["a", "~ a", r"a /\ (b \/ ~ c)", r"~ (~ a \/ b) /\ c", r"a \/ b \/ c"]
    for text in texts:
        e = parse_formula(text)
        assert print_formula(e) == text
        assert parse_formula(print_formula(e)) == e


def test_space_header_is_the_word_space():
    text = "outcomes: a\nmass: a 1\n"
    assert parse_space("space die\n" + text).name == "die"
    with pytest.raises(ParseError, match="unrecognized line 'spaceship die'"):
        parse_space("spaceship die\n" + text)


def test_outcome_names_follow_the_name_rule():
    with pytest.raises(ParseError, match="^s.pspace:2: outcome 'café' is not an identifier"):
        parse_space("space s\noutcomes: café x\nmass: café 1\nmass: x 0\n", source="s.pspace")
    space = parse_space("space s\noutcomes: x' y\nmass: x' 1/3\nmass: y 2/3\n")
    assert space.outcomes == ("x'", "y")
    assert check_adequacy(space).verdict == "satisfied"
    e = parse_formula(r"x' \/ ~ y")
    assert e == disj(free("x'"), neg(free("y")))
    assert parse_formula(print_formula(e)) == e
    assert denote(space, e) == {"x'"}


def test_a_malformed_mass_names_its_file_and_line():
    with pytest.raises(ParseError, match="^s.pspace:3:1: malformed rational 'x'$"):
        parse_space("space s\noutcomes: a\nmass: a x\n", source="s.pspace")


def test_space_files_round_trip():
    for name in ("die.pspace", "biased2.pspace"):
        space = parse_space(corpus_text(name), source=name)
        again = parse_space(serialize_space(space))
        assert again == space


# ---------- translation ----------

def test_translation_shape():
    biased = parse_space(corpus_text("biased2.pspace"))
    model = translate_space(biased)
    # the zero-mass outcome contributes no state and no transition
    assert set(model.states) == {"init", "win", "lose"}
    assert model.initial == "init"
    assert support(biased) == ["win", "lose"]
    # indicators exist exactly for the supported outcomes; a dropped
    # outcome's event is the false proposition
    assert set(model.atoms) == {indicator_name("win"), indicator_name("lose")}
    assert print_formula(translate_event(biased, free("draw"))) == "false"
    assert truth(model, "win", translate_event(biased, free("win")))
    assert not truth(model, "win", translate_event(biased, free("lose")))


def test_translated_indicators_hold_exactly_at_their_outcome():
    die = parse_space(corpus_text("die.pspace"))
    model = translate_space(die)
    for o in die.outcomes:
        for state in support(die):
            assert truth(model, state, translate_event(die, free(o))) == (
                state == o
            )


def test_translation_rejects_reserved_outcome_names():
    with pytest.raises(NameClash):
        translate_space(space_of(init=Fraction(1)))
    with pytest.raises(NameClash):
        translate_space(space_of(sample=Fraction(1)))
    with pytest.raises(NameClash):
        translate_space(space_of(a=Fraction(1, 2), F_a=Fraction(1, 2)))


def test_zero_mass_events_translate_to_the_empty_proposition():
    biased = parse_space(corpus_text("biased2.pspace"))
    assert event_probability(biased, free("draw")) == 0
    assert measure(biased, free("draw")) == 0
    assert event_probability(biased, neg(free("draw"))) == 1


def test_event_probability_equals_measure_on_the_die():
    die = parse_space(corpus_text("die.pspace"))
    model = translate_space(die)
    # every one of the 64 denotable events of a six-outcome space
    for k in range(7):
        for combo in itertools.combinations(die.outcomes, k):
            event = None
            for o in combo:
                event = free(o) if event is None else disj(event, free(o))
            if event is None:
                event = conj(free("one"), neg(free("one")))
            assert measure(die, event) == event_probability(die, event, model)


def test_check_adequacy_passes_and_counts_events():
    die = parse_space(corpus_text("die.pspace"))
    report = check_adequacy(die, depth=2)
    assert report.verdict == "satisfied"
    assert report.details["events_checked"] > 0


def test_a_wrong_probability_is_reported_with_its_event(wrong_probability):
    wrong_probability(29)
    report = check_adequacy(parse_space(corpus_text("die.pspace")), depth=3)
    assert report.to_dict() == {
        "verdict": "violated",
        "witness": {"event": r"~ (one \/ two)", "measure": "2/3", "probability": "17/21"},
        "numeric": "17/21",
        "warnings": [],
        "details": {"events_checked": 29},
        "message": None,
    }


def test_a_witness_over_keyword_named_outcomes_is_reported(wrong_probability):
    # `true` would read back as the constant, so the event shows as a term
    wrong_probability(4)
    space = ProbabilitySpace(
        "k", ("true", "nil", "box"),
        {"true": Fraction(1, 2), "nil": Fraction(1, 3), "box": Fraction(1, 6)},
    )
    report = check_adequacy(space)
    assert report.to_dict() == {
        "verdict": "violated",
        "witness": {"event": repr(neg(free("true"))), "measure": "1/2",
                    "probability": "9/14"},
        "numeric": "9/14",
        "warnings": [],
        "details": {"events_checked": 4},
        "message": None,
    }


# ---------- the adequacy law, at scale ----------

def random_space(rng, index):
    n = rng.randint(1, 6)
    outcomes = tuple(f"o{i}" for i in range(n))
    weights = [rng.randint(0, 9) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    mass = {o: Fraction(w, total) for o, w in zip(outcomes, weights)}
    return ProbabilitySpace(f"r{index}", outcomes, mass)


def random_event(rng, outcomes, depth):
    if depth == 0 or rng.random() < 0.3:
        return free(rng.choice(outcomes))
    shape = rng.randrange(3)
    if shape == 0:
        return neg(random_event(rng, outcomes, depth - 1))
    left = random_event(rng, outcomes, depth - 1)
    right = random_event(rng, outcomes, depth - 1)
    return (disj if shape == 1 else conj)(left, right)


def test_adequacy_on_a_hundred_random_spaces():
    rng = random.Random(424242)
    started = time.monotonic()
    spaces = 0
    comparisons = 0
    while spaces < 100:
        space = random_space(rng, spaces)
        validate_space(space)
        model = translate_space(space)
        # one representative per denotation, closed to depth 3
        for event in enumerate_events(space, depth=3):
            assert measure(space, event) == event_probability(space, event, model)
            comparisons += 1
        # plus raw structural expressions, nesting to depth 3
        for _ in range(40):
            event = random_event(rng, space.outcomes, 3)
            assert measure(space, event) == event_probability(space, event, model)
            comparisons += 1
        spaces += 1
    elapsed = time.monotonic() - started
    assert comparisons >= 100 * 40
    assert elapsed < 30, f"adequacy sweep took {elapsed:.1f}s"


def test_enumerate_events_covers_every_denotation_up_to_depth():
    coin_events = enumerate_events(COIN, depth=2)
    denotations = {frozenset(denote(COIN, e)) for e in coin_events}
    # the full algebra of a two-outcome space
    assert denotations == {
        frozenset(),
        frozenset({"h"}),
        frozenset({"t"}),
        frozenset({"h", "t"}),
    }
    # deduplication keeps one representative per denotation
    assert len(coin_events) == len(denotations)


def enumerate_by_denote(space, depth, max_events):
    """The enumeration with every candidate's denotation taken by `denote`."""
    events = {}
    for o in space.outcomes:
        events.setdefault(denote(space, free(o)), free(o))
    for _ in range(depth):
        if len(events) >= max_events:
            break
        current = list(events.values())
        for e in current:
            events.setdefault(denote(space, neg(e)), neg(e))
        for a in current:
            if len(events) >= max_events:
                break
            for b in current:
                events.setdefault(denote(space, disj(a, b)), disj(a, b))
                events.setdefault(denote(space, conj(a, b)), conj(a, b))
    return list(events.values())[:max_events]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    depth=st.integers(0, 3),
    max_events=st.sampled_from([1, 3, 8, 20, 512]),
)
def test_enumerate_events_matches_denote_on_every_candidate(n, depth, max_events):
    outcomes = tuple(f"o{i}" for i in range(n))
    space = ProbabilitySpace("s", outcomes, {o: Fraction(1, n) for o in outcomes})
    assert enumerate_events(space, depth, max_events) == enumerate_by_denote(
        space, depth, max_events
    )
