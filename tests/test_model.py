"""Model validation: stochastic frames, valuations, and rigid symbols."""

import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import CORPUS, corpus_text, load_model

from ptl import parse_model, validate_model
from ptl.errors import (
    DuplicateDeclaration,
    DuplicateTransition,
    ModelError,
    ProbabilityRangeError,
    ProbabilitySumError,
    UnknownAction,
    UnknownObject,
    UnknownState,
)
from ptl.model import (
    Frame,
    ModelSpec,
    SymbolDecl,
    TransitionDecl,
    ValuationDecl,
    serialize_model,
    successors,
)
from ptl.printer import print_formula
from ptl.syntax import ACTION, PROP, Arrow, OBJ
from ptl.values import GroundAction


def tiny_spec():
    """Two states, one action, a fair split."""
    spec = ModelSpec(name="tiny")
    spec.states.extend(["u", "v"])
    spec.initial = "u"
    spec.actions.append(SymbolDecl("a", ACTION))
    spec.symbols.append(SymbolDecl("p", PROP))
    spec.transitions.append(TransitionDecl("u", "a", (), "u", Fraction(1, 2)))
    spec.transitions.append(TransitionDecl("u", "a", (), "v", Fraction(1, 2)))
    spec.valuation.append(ValuationDecl("v", "p", ()))
    return spec


def test_valid_model_builds():
    model = validate_model(tiny_spec())
    assert model.states == ("u", "v")
    assert model.initial == "u"
    assert model.holds("v", "p")
    assert not model.holds("u", "p")


def test_successors_and_disabled_actions():
    model = validate_model(tiny_spec())
    a = GroundAction("a")
    assert successors(model, "u", a) == (("u", Fraction(1, 2)), ("v", Fraction(1, 2)))
    # no outgoing transitions: disabled, not an error
    assert successors(model, "v", a) == ()
    with pytest.raises(UnknownState):
        successors(model, "w", a)


def test_probabilities_must_sum_to_one():
    spec = tiny_spec()
    spec.transitions[1] = TransitionDecl("u", "a", (), "v", Fraction(1, 3))
    with pytest.raises(ProbabilitySumError) as exc:
        validate_model(spec)
    assert exc.value.total == Fraction(5, 6)
    assert "5/6" in str(exc.value)


def test_sum_is_checked_per_action_instance():
    # two ground actions at the same state each need their own unit mass
    spec = tiny_spec()
    spec.actions.append(SymbolDecl("b", ACTION))
    spec.transitions.append(TransitionDecl("u", "b", (), "v", Fraction(1)))
    validate_model(spec)
    spec.transitions.append(TransitionDecl("v", "b", (), "u", Fraction(1, 4)))
    with pytest.raises(ProbabilitySumError) as exc:
        validate_model(spec)
    assert exc.value.total == Fraction(1, 4)


def test_perturbed_probabilities_are_rejected_with_the_exact_sum():
    """Any single-transition perturbation must be caught, and the error
    must carry the exact rational sum, not an approximation."""
    rng = random.Random(20240811)
    for _ in range(60):
        spec = tiny_spec()
        which = rng.randrange(2)
        eps = Fraction(rng.randint(1, 9), rng.randint(10, 10**6))
        if rng.random() < 0.5:
            eps = -eps
        old = spec.transitions[which]
        bumped = old.prob + eps
        if bumped <= 0 or bumped > 1:
            continue
        spec.transitions[which] = TransitionDecl(
            old.source, old.action, old.args, old.target, bumped
        )
        with pytest.raises(ProbabilitySumError) as exc:
            validate_model(spec)
        assert exc.value.total == 1 + eps


def test_zero_probability_transitions_are_rejected():
    spec = tiny_spec()
    spec.transitions.append(TransitionDecl("v", "a", (), "u", Fraction(0)))
    with pytest.raises(ProbabilityRangeError) as exc:
        validate_model(spec)
    assert "(0, 1]" in str(exc.value)


def test_probability_above_one_is_rejected():
    spec = tiny_spec()
    spec.transitions = [TransitionDecl("u", "a", (), "v", Fraction(3, 2))]
    with pytest.raises(ProbabilityRangeError):
        validate_model(spec)


def test_duplicate_transition_rejected():
    spec = tiny_spec()
    spec.transitions.append(TransitionDecl("u", "a", (), "v", Fraction(1, 2)))
    with pytest.raises(DuplicateTransition):
        validate_model(spec)


def test_transition_references_must_resolve():
    spec = tiny_spec()
    spec.transitions.append(TransitionDecl("u", "ghost", (), "v", Fraction(1)))
    with pytest.raises(UnknownAction):
        validate_model(spec)

    spec = tiny_spec()
    spec.transitions[0] = TransitionDecl("nowhere", "a", (), "v", Fraction(1, 2))
    with pytest.raises(UnknownState):
        validate_model(spec)

    spec = tiny_spec()
    spec.transitions[0] = TransitionDecl("u", "a", (), "nowhere", Fraction(1, 2))
    with pytest.raises(UnknownState):
        validate_model(spec)


def test_action_arguments_check_arity_and_objects():
    spec = tiny_spec()
    spec.objects.append("o1")
    spec.actions.append(SymbolDecl("pick", Arrow(OBJ, ACTION)))
    spec.transitions.append(TransitionDecl("v", "pick", ("o1",), "u", Fraction(1)))
    validate_model(spec)

    bad = tiny_spec()
    bad.objects.append("o1")
    bad.actions.append(SymbolDecl("pick", Arrow(OBJ, ACTION)))
    bad.transitions.append(TransitionDecl("v", "pick", (), "u", Fraction(1)))
    with pytest.raises(ModelError):
        validate_model(bad)

    bad2 = tiny_spec()
    bad2.actions.append(SymbolDecl("pick", Arrow(OBJ, ACTION)))
    bad2.transitions.append(TransitionDecl("v", "pick", ("mystery",), "u", Fraction(1)))
    with pytest.raises(UnknownObject):
        validate_model(bad2)


def test_valuation_references_must_resolve():
    spec = tiny_spec()
    spec.valuation.append(ValuationDecl("u", "ghost", ()))
    with pytest.raises(ModelError):
        validate_model(spec)

    spec = tiny_spec()
    spec.valuation.append(ValuationDecl("nowhere", "p", ()))
    with pytest.raises(UnknownState):
        validate_model(spec)


def test_wildcard_valuation_rows_cover_every_state():
    spec = tiny_spec()
    spec.valuation.append(ValuationDecl("*", "p", ()))
    model = validate_model(spec)
    assert model.holds("u", "p") and model.holds("v", "p")


def test_duplicate_declarations_rejected():
    spec = tiny_spec()
    spec.states.append("u")
    with pytest.raises(DuplicateDeclaration):
        validate_model(spec)

    spec = tiny_spec()
    spec.symbols.append(SymbolDecl("p", PROP))
    with pytest.raises(DuplicateDeclaration):
        validate_model(spec)


def test_names_must_not_clash_across_kinds():
    spec = tiny_spec()
    spec.objects.append("p")  # already an atom
    with pytest.raises(DuplicateDeclaration):
        validate_model(spec)

    spec = tiny_spec()
    spec.symbols.append(SymbolDecl("u", PROP))  # already a state
    with pytest.raises(DuplicateDeclaration):
        validate_model(spec)


def test_names_must_be_identifiers():
    spec = tiny_spec()
    spec.objects.append("not a name")
    with pytest.raises(ModelError):
        validate_model(spec)

    spec = tiny_spec()
    spec.states.append("left:right")
    with pytest.raises(ModelError):
        validate_model(spec)


def test_initial_state_must_exist():
    spec = tiny_spec()
    spec.initial = "elsewhere"
    with pytest.raises(UnknownState):
        validate_model(spec)


def test_rigid_definitions_become_values(montyhall):
    ty, value = montyhall.rigid["D"]
    from ptl.values import ListV, ObjV

    assert value == ListV((ObjV("d1"), ObjV("d2"), ObjV("d3")))


def test_ground_atoms_enumerates_instances(twotoss):
    atoms = twotoss.ground_atoms()
    from ptl.printer import print_formula

    rendered = {print_formula(a) for a in atoms}
    assert rendered == {"H(c)", "T(c)"}


def test_ground_atoms_ignore_the_spec_after_validation():
    spec = parse_model("model m\nstates s0\ntypes\n  level : num -> prop\nvaluation\n  s0 : level(1)\n")
    model = validate_model(spec)
    spec.valuation.append(ValuationDecl("s0", "level", (Fraction(3),)))
    assert [print_formula(a) for a in model.ground_atoms()] == ["level(1)"]


def test_a_comment_may_follow_a_valuation_atom_directly():
    text = "model m\nstates s0\ntypes\n  p : prop\nvaluation\n  s0 : p{}\n"
    assert validate_model(parse_model(text.format("-- note"))) == validate_model(
        parse_model(text.format(""))
    )


def test_type_env_exposes_signatures(twotoss):
    env = twotoss.type_env()
    assert env["H"] == Arrow(OBJ, PROP)
    assert env["t"] == Arrow(OBJ, ACTION)
    assert env["c"] == OBJ


def test_serialize_is_stable(coin):
    text = serialize_model(coin)
    again = serialize_model(validate_model(parse_model(text, source="again")))
    assert text == again


def test_serialize_orders_the_valuation_by_state_then_atom_then_arguments():
    model = validate_model(parse_model("""model order
types
  r : obj -> prop
  p : prop
objects a b
states s0 s1 s2
valuation
  s2 : r(b), p
  s0 : r(b)
  s1 : p
  s0 : r(a), p
"""))
    valuation = serialize_model(model).split("valuation\n", 1)[1]
    assert valuation == (
        "  s0 : r(a)\n  s0 : r(b)\n  s0 : p\n  s1 : p\n  s2 : r(b)\n  s2 : p\n"
    )


def test_equal_text_gives_equal_models_and_hashes():
    text = corpus_text("coin.ptlm")
    a, b = (validate_model(parse_model(text, source=src)) for src in ("a", "b"))
    assert a == b and a.frame == b.frame
    assert hash(a) == hash(b) and hash(a.frame) == hash(b.frame)
    (key, ((first, _), *rest)), = a.frame.transitions.items()
    moved = {key: ((first, Fraction(2, 3)), *rest)}
    other = dataclasses.replace(a, frame=Frame(a.states, moved))
    assert other.frame != a.frame and other != a
    relabelled = corpus_text("coin.ptlm").replace("st : tails(c)", "st : heads(c)")
    other = validate_model(parse_model(relabelled))
    assert other.frame == a.frame and other != a


class CountingList(list):
    """A list that counts membership tests, to pin how often validation
    scans the declared states and objects."""

    def __init__(self, items):
        super().__init__(items)
        self.contains_calls = 0

    def __contains__(self, item):
        self.contains_calls += 1
        return super().__contains__(item)


COUNTED = """model counted
types
  r : obj -> prop
  p : prop
  D : [obj] = o1 :: o2 :: nil
  home : state = s2
objects o1 o2
states s0 s1 s2
initial s0
actions
  pick : obj -> action
transitions
  s0 --pick(o1)--> s1 @ 1/2
  s0 --pick(o1)--> s2 @ 1/2
  s1 --pick(o2)--> s0 @ 1
  s2 --pick(o1)--> s2 @ 1
valuation
  s1 : r(o1), p
  s2 : r(o2)
  * : r(o1)
"""


def test_validation_does_not_scan_the_state_and_object_lists():
    # a membership test per transition, valuation entry or rigid constant
    # would make validation cost O(|S|·|E|)
    spec = parse_model(COUNTED)
    spec.states, spec.objects = CountingList(spec.states), CountingList(spec.objects)
    model = validate_model(spec)
    assert spec.states.contains_calls + spec.objects.contains_calls <= 1
    assert model == validate_model(parse_model(COUNTED))


def test_transitions_under_one_ground_action_share_one_object():
    model = validate_model(parse_model(COUNTED))
    keys = {(state, str(ga)): ga for state, ga in model.frame.transitions}
    assert keys["s0", "pick(o1)"] is keys["s2", "pick(o1)"]
    assert keys["s0", "pick(o1)"] is not keys["s1", "pick(o2)"]


def _with_pick(spec):
    spec.objects.append("o1")
    spec.actions.append(SymbolDecl("pick", Arrow(OBJ, ACTION)))
    spec.symbols.append(SymbolDecl("r", Arrow(OBJ, PROP)))


def _late_target_and_valuation_object(spec):
    _with_pick(spec)
    spec.transitions.append(TransitionDecl("v", "pick", ("o1",), "u", Fraction(1)))
    spec.transitions.append(TransitionDecl("v", "a", (), "nowhere", Fraction(1)))
    spec.valuation.append(ValuationDecl("u", "r", ("ghost",)))


def _bad_sum_and_undeclared_atom(spec):
    spec.transitions[1] = TransitionDecl("u", "a", (), "v", Fraction(1, 3))
    spec.valuation.append(ValuationDecl("u", "ghost", ()))


def _target_and_object_in_one_transition(spec):
    _with_pick(spec)
    spec.transitions.append(TransitionDecl("v", "pick", ("mystery",), "nowhere", Fraction(1)))


def _arity_after_a_valid_use_of_the_action(spec):
    _with_pick(spec)
    spec.transitions.append(TransitionDecl("v", "pick", ("o1",), "u", Fraction(1)))
    spec.transitions.append(TransitionDecl("u", "pick", (), "v", Fraction(1)))


def _range_before_duplicate(spec):
    spec.transitions.append(TransitionDecl("v", "a", (), "u", Fraction(0)))
    spec.transitions.append(TransitionDecl("u", "a", (), "v", Fraction(1, 2)))


def _duplicate_before_sum(spec):
    spec.transitions.append(TransitionDecl("u", "a", (), "v", Fraction(1, 2)))


def _object_on_a_wildcard_row_before_a_number(spec):
    _with_pick(spec)
    spec.valuation.append(ValuationDecl("*", "r", ("ghost",)))
    spec.valuation.append(ValuationDecl("u", "r", (Fraction(1),)))


@pytest.mark.parametrize(
    "break_spec, message",
    [
        (_late_target_and_valuation_object, "transition to unknown state nowhere"),
        (_bad_sum_and_undeclared_atom,
         "transition probabilities for action a at state u sum to 5/6, expected 1"),
        (_target_and_object_in_one_transition, "transition to unknown state nowhere"),
        (_arity_after_a_valid_use_of_the_action, "action pick takes 1 argument(s), got 0"),
        (_range_before_duplicate,
         "transition probability 0 for action a at state v is outside (0, 1]"),
        (_duplicate_before_sum, "duplicate transition u --a--> v"),
        (_object_on_a_wildcard_row_before_a_number,
         "atom argument ghost is not a declared object"),
    ],
)
def test_the_first_of_two_faults_is_reported(break_spec, message):
    spec = tiny_spec()
    break_spec(spec)
    with pytest.raises(ModelError) as exc:
        validate_model(spec)
    assert (str(exc.value), exc.value.span) == (message, None)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".ptlm"))
)
def test_validated_frames_group_transitions_in_declaration_order(name):
    spec = parse_model(corpus_text(name), source=name)
    expected: dict = {}
    for t in spec.transitions:
        key = (t.source, GroundAction(t.action, t.args))
        expected.setdefault(key, []).append((t.target, t.prob))
    model = validate_model(spec)
    assert list(model.frame.transitions.items()) == [(k, tuple(v)) for k, v in expected.items()]
    assert model.valuation == {
        (state, entry.atom, entry.args)
        for entry in spec.valuation
        for state in (spec.states if entry.state == "*" else [entry.state])
    }
