"""Reports: witnesses, entailment, independence, and the product shortcut."""

import json
from fractions import Fraction

import pytest

from conftest import load_formulas

import ptl.checker
import ptl.evaluator
from ptl import parse, parse_model, validate_model
from ptl.checker import (
    ERROR,
    SATISFIED,
    VIOLATED,
    CheckReport,
    Theory,
    check_independent,
    check_shortcut,
    entails,
    globally_satisfies,
    satisfies,
)
from ptl.errors import LengthMismatch, PtlError
from ptl.evaluator import evaluate
from ptl.values import GroundAction


# ---------- satisfies ----------

def test_satisfied_comparison_records_its_probability(coin):
    report = satisfies(coin, "s0", parse("Q[toss(c)](heads(c)) = 1/2"))
    assert report.verdict == SATISFIED
    assert report.ok
    assert report.numeric == Fraction(1, 2)


def test_violated_comparison_still_records_the_probability(coin):
    report = satisfies(coin, "s0", parse("Q[toss(c)](heads(c)) = 2/3"))
    assert report.verdict == VIOLATED
    assert not report.ok
    assert report.numeric == Fraction(1, 2)


def test_bare_probability_formula_is_recorded(coin):
    report = satisfies(coin, "s0", parse("Q[toss(c)](heads(c))"))
    assert report.verdict == SATISFIED
    assert report.numeric == Fraction(1, 2)


def test_satisfies_rejects_an_undeclared_state(coin):
    # an atom-only formula never asks the frame about the state
    report = satisfies(coin, "zz", parse("heads(c)"))
    assert report.verdict == ERROR
    assert report.message == "unknown state zz"


def test_witness_drills_through_box(twosucc):
    report = satisfies(twosucc, "s0", parse("box[a] in(u)"))
    assert report.verdict == VIOLATED
    assert report.witness is not None
    # the failure is located at the offending successor, not the root
    assert report.witness["state"] == "v"
    assert report.witness["trail"]


def test_witness_drills_through_quantifiers_and_conjunction(montyhall):
    formula = parse("forall w : state . @w (~ (P(d1) /\\ O(d3) /\\ C(d1)))")
    report = satisfies(montyhall, "s0", formula)
    assert report.verdict == VIOLATED
    assert report.witness["state"] == "c1_p1_o3"
    steps = [step.get("step") for step in report.witness["trail"]]
    assert "instantiate" in steps


def test_witness_prints_the_failing_body_with_its_instantiated_variable(coin):
    # the trail binds x, so the body prints as text, not as a repr
    report = satisfies(coin, "s0", parse("forall x : obj . heads(x)"))
    assert report.witness["trail"] == [
        {"step": "instantiate", "var": "x", "value": "c"},
        {"step": "fails", "state": "s0", "formula": "heads(x)"},
    ]


def test_error_verdict_on_disabled_q(coin):
    report = satisfies(coin, "sh", parse("Q[toss(c)](heads(c)) = 1/2"))
    assert report.verdict == "error"
    assert "toss" in report.message


def test_each_comparison_side_is_evaluated_once(coin, successor_calls):
    report = satisfies(coin, "s0", parse("Q[toss(c)](heads(c)) = 1/2"))
    assert report.details == {"lhs": "1/2", "rhs": "1/2"}
    assert len(successor_calls) == 1
    successor_calls.clear()
    report = satisfies(
        coin, "s0", parse("Q[toss(c)](heads(c)) < Q[toss(c)](tails(c))")
    )
    assert report.verdict == VIOLATED
    assert report.details == {"lhs": "1/2", "rhs": "1/2"}
    assert len(successor_calls) == 2


@pytest.mark.parametrize(
    "text",
    [
        "Q[toss(c); toss(c)](heads(c)) = Q[toss(c)](heads(c)) / 0",
        "Q[toss(c)](heads(c)) / 0 = Q[toss(c); toss(c)](heads(c))",
        "Q[toss(c)](heads(c)) / 0 < Q[toss(c); toss(c)](heads(c))",
    ],
)
def test_a_comparison_reports_the_error_evaluate_raises_first(coin, text):
    formula = parse(text)
    with pytest.raises(PtlError) as raised:
        evaluate(coin, "s0", formula)
    report = satisfies(coin, "s0", formula)
    assert report.verdict == ERROR
    assert report.message == str(raised.value)


@pytest.mark.parametrize("modal", ["box[toss(c)]", "dia[toss(c)]", "dia[toss(c)]{1/2}"])
def test_a_q_under_any_modal_operator_makes_its_side_the_numeric_one(coin, modal):
    # the left side's Q sits under the modal operator, inside an argument
    # the lambda ignores; it still marks the left side as the probability
    text = f"(lam b : prop . 1/3)({modal} (Q[](heads(c)) = 1)) < Q[toss(c)](heads(c))"
    report = satisfies(coin, "s0", parse(text))
    assert report.verdict == SATISFIED
    assert report.numeric == Fraction(1, 3)


def test_a_comparison_of_non_numbers_records_no_sides(twotoss):
    report = satisfies(twotoss, "s0", parse("s0 = s0"))
    assert report.verdict == SATISFIED
    assert report.numeric is None and report.details == {}


def test_globally_satisfies_reports_the_first_bad_state(twosucc):
    report = globally_satisfies(twosucc, parse("~ hit"))
    assert report.verdict == VIOLATED
    assert report.details["violating_state"] == "u"
    good = globally_satisfies(twosucc, parse("hit \\/ in(s0)"))
    assert good.verdict == SATISFIED


# ---------- witness trails ----------

# s3 is declared first, so a quantifier over states meets it before s0
SHAPES = validate_model(parse_model("""model shapes
objects c d
states s3 s0 s1 s2
actions
  a : action
types
  p : prop
  q : obj -> prop
transitions
  s0 --a--> s1 @ 1/2
  s0 --a--> s2 @ 1/2
  s1 --a--> s3 @ 1
  s2 --a--> s3 @ 1
  s3 --a--> s3 @ 1
valuation
  s3 : p, q(c), q(d)
  s0 : p, q(c)
  s1 : p, q(c)
  s2 : q(d)
"""))


def fails(state, formula):
    return {"step": "fails", "state": state, "formula": formula}


def violated(state, *trail, numeric=None, details=None):
    """The whole report of a violation with this witness."""
    return {
        "verdict": VIOLATED,
        "witness": {"state": state, "trail": list(trail)},
        "numeric": numeric,
        "warnings": [],
        "details": details or {},
        "message": None,
    }


def test_witness_descends_through_every_descending_shape():
    # forall: w := s3 holds, s0 is the first failing instance; ->: p holds
    # at s0; /\: q(c) holds, so the right conjunct; box: s1 is a good
    # successor, s2 the first bad one
    formula = parse("forall w : state . @w (p -> (q(c) /\\ box[a] (q(c) \\/ in(w))))")
    assert satisfies(SHAPES, "s1", formula).to_dict() == violated(
        "s2",
        {"step": "instantiate", "var": "w", "value": "s0"},
        {"step": "at", "state": "s0"},
        {"step": "box", "action": "a", "state": "s2"},
        fails("s2", "q(c) \\/ in(w)"),
    )


def test_witness_takes_the_left_conjunct_when_it_fails():
    report = satisfies(SHAPES, "s2", parse("q(c) /\\ box[a] ~ p"))
    assert report.to_dict() == violated("s2", fails("s2", "q(c)"))


def test_witness_of_an_implication_with_a_true_antecedent():
    report = satisfies(SHAPES, "s1", parse("p /\\ (q(c) -> (p /\\ (p -> box[a] ~ q(d))))"))
    assert report.to_dict() == violated(
        "s3", {"step": "box", "action": "a", "state": "s3"}, fails("s3", "~ q(d)")
    )


# (formula false at s0, its trail from s0); all but forall over bool end at once
NON_DESCENDING = [
    ("exists x : obj . q(x) /\\ ~ p", [fails("s0", "exists x : obj . q(x) /\\ ~ p")]),
    ("~ p", [fails("s0", "~ p")]),
    ("q(d) \\/ ~ p", [fails("s0", "q(d) \\/ ~ p")]),
    ("p <-> q(d)", [fails("s0", "p <-> q(d)")]),
    ("dia[a] (p /\\ q(d))", [fails("s0", "dia[a] (p /\\ q(d))")]),
    ("dia[a]{1/3} q(c)", [fails("s0", "dia[a]{1/3} q(c)")]),
    ("forall b : bool . b",
     [{"step": "instantiate", "var": "b", "value": "false"}, fails("s0", "b")]),
    ("Q[a](q(c)) = 1", [fails("s0", "Q[a](q(c)) = 1")]),
]


@pytest.mark.parametrize("text, trail", NON_DESCENDING, ids=[t for t, _ in NON_DESCENDING])
def test_witness_of_a_shape_at_the_root(text, trail):
    # a top-level comparison also records its sides
    comparing = text.startswith("Q")
    report = satisfies(SHAPES, "s0", parse(text))
    assert report.to_dict() == violated(
        "s0", *trail,
        numeric="1/2" if comparing else None,
        details={"lhs": "1/2", "rhs": "1"} if comparing else None,
    )


@pytest.mark.parametrize("text, trail", NON_DESCENDING, ids=[t for t, _ in NON_DESCENDING])
def test_witness_of_a_shape_under_descending_ones(text, trail):
    # w := s3 satisfies the implication vacuously; under it no comparison
    # is top-level, so no sides are recorded
    formula = parse(f"forall w : state . @w (in(s0) -> ({text}))")
    assert satisfies(SHAPES, "s1", formula).to_dict() == violated(
        "s0",
        {"step": "instantiate", "var": "w", "value": "s0"},
        {"step": "at", "state": "s0"},
        *trail,
    )


def test_a_global_witness_at_the_last_state():
    # ~ p fails at s3, s0 and s1, so s2 is the first state whose box runs
    report = globally_satisfies(SHAPES, parse("~ p -> box[a] ~ q(c)"))
    expected = violated(
        "s3", {"step": "box", "action": "a", "state": "s3"}, fails("s3", "~ q(c)")
    )
    expected["details"] = {"violating_state": "s2"}
    assert report.to_dict() == expected


@pytest.fixture
def compile_calls(monkeypatch):
    """Every compile_expr call, recursive ones included."""
    original, count = ptl.evaluator.compile_expr, [0]

    def counted(model, expr):
        count[0] += 1
        return original(model, expr)

    monkeypatch.setattr(ptl.evaluator, "compile_expr", counted)
    monkeypatch.setattr(ptl.checker, "compile_expr", counted)
    return count


def test_a_witness_compiles_nothing(montyhall, compile_calls):
    formula = load_formulas("montyhall.ptl")["failed_any_pick"]
    ptl.evaluator.compile_expr(montyhall, formula)
    assert compile_calls[0] == 21
    compile_calls[0] = 0
    report = satisfies(montyhall, "s0", formula)
    assert report.witness["state"] == "c1_p1_o3"
    assert compile_calls[0] == 21


def test_a_late_global_witness_compiles_the_formula_once(compile_calls):
    formula = parse("~ p -> box[a] ~ q(c)")
    ptl.evaluator.compile_expr(SHAPES, formula)
    once, compile_calls[0] = compile_calls[0], 0
    assert globally_satisfies(SHAPES, formula).details == {"violating_state": "s2"}
    assert compile_calls[0] == once


# ---------- entailment ----------

def theory_of(*pairs):
    return Theory("t", dict(pairs))


def test_entailment_over_a_model_family(twotoss):
    theory = theory_of(("fair", parse("Q[t(c)](H(c)) = 1/2")))
    conclusion = parse("dia[t(c)]{1/2} H(c)")
    report = entails([twotoss], theory, conclusion)
    assert report.verdict == SATISFIED
    assert report.details["models_checked"] == 1
    assert report.details["models_satisfying_theory"] == 1


def test_entailment_violated_names_the_countermodel(dice12):
    # localize to the start state so the theory is evaluable everywhere
    theory = theory_of(("sixth", parse("@s0 (Q[roll](Picked(3)) = 1/6)")))
    conclusion = parse("@s0 (dia[roll]{1/6} Picked(3))")
    report = entails([dice12], theory, conclusion)
    assert report.verdict == VIOLATED
    assert report.details["model"] == "dice12"


def test_entailment_is_vacuous_without_a_satisfying_model(coin):
    theory = theory_of(("biased", parse("Q[toss(c)](heads(c)) = 9/10")))
    report = entails([coin], theory, parse("false"))
    assert report.verdict == SATISFIED
    assert any("vacuous" in w for w in report.warnings)


def test_entailment_only_draws_on_theory_models(twotoss):
    # a biased sibling fails the fairness theory and is set aside
    from conftest import corpus_text
    from ptl import parse_model, validate_model

    biased_text = (
        corpus_text("twotoss.ptlm")
        .replace("model twotoss", "model skewed")
        .replace("sh @ 1/2", "sh @ 1/3")
        .replace("st @ 1/2", "st @ 2/3")
    )
    skewed = validate_model(parse_model(biased_text, source="skewed"))
    theory = theory_of(("fair", parse("Q[t(c)](H(c)) = 1/2")))
    conclusion = parse("dia[t(c)]{1/2} H(c)")
    report = entails([skewed, twotoss], theory, conclusion)
    assert report.verdict == SATISFIED
    assert report.details["models_checked"] == 2
    assert report.details["models_satisfying_theory"] == 1


def test_entailment_surfaces_evaluation_errors(coin):
    # the one-shot coin cannot evaluate an unlocalized Q at its leaves
    theory = theory_of(("fair", parse("Q[toss(c)](heads(c)) = 1/2")))
    report = entails([coin], theory, parse("true"))
    assert report.verdict == "error"
    assert "axiom fair" in report.message


# ---------- independence ----------

def test_repeated_fair_tosses_are_independent(twotoss):
    t = GroundAction("t", ("c",))
    report = check_independent(twotoss, t, t, [parse("H(c)")])
    assert report.verdict == SATISFIED


def test_flipping_coin_steps_are_dependent(magicalcoin):
    t = GroundAction("t")
    report = check_independent(magicalcoin, t, t, [parse("H")])
    assert report.verdict == VIOLATED
    w = report.witness
    assert w["from_state"] == "s0"
    assert report.details["expected"] != report.details["actual"]


def test_independence_defaults_to_all_ground_atoms(twotoss):
    t = GroundAction("t", ("c",))
    report = check_independent(twotoss, t, t)
    assert report.verdict == SATISFIED


LATE = """model late
states s0 s1 s2 s3 s4
actions
  a : action
  b : action
types
  p : prop
  q : prop
transitions
  s0 --a--> s3 @ 1/2
  s0 --a--> s4 @ 1/2
  s1 --a--> s4 @ 1/2
  s1 --a--> s3 @ 1/2
  s2 --a--> s3 @ 1/3
  s2 --a--> s4 @ 2/3
  s3 --a--> s3 @ 1
  s4 --a--> s4 @ 1
  s0 --b--> s1 @ 1
  s1 --b--> s0 @ 1/2
  s1 --b--> s2 @ 1/2
  s2 --b--> s2 @ 1
valuation
  s3 : p
  * : q
"""


def test_independence_reports_a_late_violation_from_reused_values():
    # s0 and s1 agree; s1's value is first met as s0's b-successor and
    # read again as s1's own, before s2 breaks it for the second prop
    model = validate_model(parse_model(LATE))
    a, b = GroundAction("a"), GroundAction("b")
    report = check_independent(model, a, b, [parse("q"), parse("p")])
    assert report.verdict == VIOLATED
    assert report.witness == {
        "state": "s2",
        "trail": [
            {"step": "box", "action": "b", "state": "s2"},
            {"step": "fails", "state": "s2", "formula": "Q[a](p) = 1/2"},
        ],
        "from_state": "s1",
        "prop": "p",
    }
    assert report.numeric == Fraction(1, 3)
    assert report.details == {"expected": "1/2", "actual": "1/3"}


def test_independence_computes_each_q_value_once(successor_calls):
    model = validate_model(parse_model(LATE))
    report = check_independent(model, GroundAction("a"), GroundAction("b"), [parse("q")])
    assert report.verdict == SATISFIED
    # per state, one lookup of its b-successors and one for its Q[a](q)
    assert sorted(successor_calls) == sorted(model.states * 2)


def test_independence_over_a_disabled_action_fails_where_first_met():
    text = LATE.replace("  s2 --a--> s3 @ 1/3\n  s2 --a--> s4 @ 2/3\n", "")
    model = validate_model(parse_model(text))
    report = check_independent(model, GroundAction("a"), GroundAction("b"),
                               [parse("q"), parse("p")])
    assert report.verdict == ERROR
    assert report.message == "action a has no transitions at state s2"


# ---------- the product shortcut ----------

def test_shortcut_agrees_on_independent_steps(twotoss):
    t = GroundAction("t", ("c",))
    report = check_shortcut(twotoss, [t, t], [parse("H(c)"), parse("T(c)")])
    assert report.verdict == SATISFIED
    assert report.numeric == Fraction(1, 4)
    assert report.details["product"] == "1/4"


def test_shortcut_fails_when_one_draw_carries_both_events(bag5):
    # five objects: the shape and color of a single draw are dependent
    d = GroundAction("d")
    report = check_shortcut(bag5, [d], [parse("S"), parse("B")])
    assert report.verdict == VIOLATED
    assert report.numeric == Fraction(1, 5)
    assert report.details["product"] == "6/25"


def test_shortcut_holds_across_two_draws_with_replacement(bag5):
    d = GroundAction("d")
    report = check_shortcut(bag5, [d, d], [parse("S"), parse("B")])
    assert report.verdict == SATISFIED
    assert report.numeric == Fraction(6, 25)
    assert not report.warnings


def test_shortcut_single_action_warns_about_coincidence(bag4):
    d = GroundAction("d")
    report = check_shortcut(bag4, [d], [parse("S"), parse("B")])
    assert report.verdict == SATISFIED
    assert report.numeric == Fraction(1, 4)
    assert any("coincidental" in w for w in report.warnings)


def test_shortcut_rejects_mismatched_lengths(twotoss):
    t = GroundAction("t", ("c",))
    with pytest.raises(LengthMismatch):
        check_shortcut(twotoss, [t, t], [parse("H(c)")])


# ---------- report serialization ----------

def test_report_round_trips_through_json(coin):
    report = satisfies(coin, "s0", parse("Q[toss(c)](heads(c)) = 2/3"))
    blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    back = CheckReport.from_dict(json.loads(blob))
    assert back.verdict == report.verdict
    assert back.numeric == report.numeric
    assert back.witness == report.witness
    assert back.warnings == report.warnings


def test_report_numeric_stays_rational_in_json(magicalcoin):
    report = satisfies(magicalcoin, "s0", parse("Q[t; t](H; T) = 1/2"))
    data = report.to_dict()
    assert data["numeric"] == "1/2"
    assert CheckReport.from_dict(data).numeric == Fraction(1, 2)
