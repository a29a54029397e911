"""Classical probability spaces and their one-step frame translation.

The core law checked here: for any finite space and any event built from
singletons with complement, union, and intersection, the measure of the
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
    Complement,
    Intersection,
    ProbabilitySpace,
    Singleton,
    Union,
    check_adequacy,
    denote,
    enumerate_events,
    event_probability,
    indicator_name,
    measure,
    parse_set_expr,
    parse_space,
    render_set_expr,
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
from ptl.printer import print_formula


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
    evens = Union(Singleton("two"), Union(Singleton("four"), Singleton("six")))
    assert denote(die, evens) == {"two", "four", "six"}
    assert measure(die, evens) == Fraction(1, 2)
    assert measure(die, Complement(evens)) == Fraction(1, 2)
    assert measure(die, Intersection(evens, Singleton("two"))) == Fraction(1, 6)


def test_set_expression_parsing_and_precedence():
    e = parse_set_expr("~{a} & {b} | {c}")
    # ~ binds tightest, & next, | loosest
    assert isinstance(e, Union)
    assert isinstance(e.left, Intersection)
    assert isinstance(e.left.left, Complement)


def test_set_expressions_round_trip():
    texts = ["{a}", "~{a}", "{a} & ({b} | ~{c})", "~(~{a} | {b}) & {c}"]
    for text in texts:
        e = parse_set_expr(text)
        again = parse_set_expr(render_set_expr(e))
        assert again == e


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
    e = parse_set_expr("{x'} | ~{y}")
    assert e == Union(Singleton("x'"), Complement(Singleton("y")))
    assert parse_set_expr(render_set_expr(e)) == e


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
    assert print_formula(translate_event(biased, Singleton("draw"))) == "false"
    assert truth(model, "win", translate_event(biased, Singleton("win")))
    assert not truth(model, "win", translate_event(biased, Singleton("lose")))


def test_translated_indicators_hold_exactly_at_their_outcome():
    die = parse_space(corpus_text("die.pspace"))
    model = translate_space(die)
    for o in die.outcomes:
        for state in support(die):
            assert truth(model, state, translate_event(die, Singleton(o))) == (
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
    assert event_probability(biased, Singleton("draw")) == 0
    assert measure(biased, Singleton("draw")) == 0
    assert event_probability(biased, Complement(Singleton("draw"))) == 1


def test_event_probability_equals_measure_on_the_die():
    die = parse_space(corpus_text("die.pspace"))
    model = translate_space(die)
    # every one of the 64 denotable events of a six-outcome space
    for k in range(7):
        for combo in itertools.combinations(die.outcomes, k):
            event = None
            for o in combo:
                event = Singleton(o) if event is None else Union(event, Singleton(o))
            if event is None:
                event = Intersection(Singleton("one"), Complement(Singleton("one")))
            assert measure(die, event) == event_probability(die, event, model)


def test_check_adequacy_passes_and_counts_events():
    die = parse_space(corpus_text("die.pspace"))
    report = check_adequacy(die, depth=2)
    assert report.verdict == "satisfied"
    assert report.details["events_checked"] > 0


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
        return Singleton(rng.choice(outcomes))
    shape = rng.randrange(3)
    if shape == 0:
        return Complement(random_event(rng, outcomes, depth - 1))
    left = random_event(rng, outcomes, depth - 1)
    right = random_event(rng, outcomes, depth - 1)
    return (Union if shape == 1 else Intersection)(left, right)


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
        events.setdefault(denote(space, Singleton(o)), Singleton(o))
    for _ in range(depth):
        if len(events) >= max_events:
            break
        current = list(events.values())
        for e in current:
            events.setdefault(denote(space, Complement(e)), Complement(e))
        for a in current:
            if len(events) >= max_events:
                break
            for b in current:
                events.setdefault(denote(space, Union(a, b)), Union(a, b))
                events.setdefault(denote(space, Intersection(a, b)), Intersection(a, b))
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
