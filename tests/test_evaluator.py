"""Evaluation semantics.

Two heavier pieces live here: a brute-force two-step tree oracle for the
sequence probabilities of the self-flipping coin, and a generated-model
suite checking the complement and additivity laws on well over a
thousand (model, trace, formula) instances.
"""

import random
from fractions import Fraction

import pytest

from conftest import load_model

from ptl import parse
from ptl.checker import ERROR, VIOLATED, satisfies
from ptl.errors import DisabledAction, DivisionByZero, EvalError, UnknownState
from ptl.evaluator import eval_arith, eval_q, eval_q_trace, evaluate, truth
from ptl.model import (
    ModelSpec,
    SymbolDecl,
    TransitionDecl,
    ValuationDecl,
    successors,
    validate_model,
)
from ptl.syntax import ACTION, BOT, PLUS, PROP, TOP, app, conj, disj, neg, rat, sym
from ptl.values import BoolV, GroundAction, RatV


def value(model, state, text):
    return evaluate(model, state, parse(text))


def holds(model, state, text):
    return truth(model, state, parse(text))


# ---------- propositional and hybrid forms ----------


@pytest.mark.parametrize(
    "entry",
    [
        lambda m, s: evaluate(m, s, parse("heads(c)")),
        lambda m, s: truth(m, s, parse("heads(c)")),
        lambda m, s: eval_arith(m, s, parse("1/2")),
        lambda m, s: eval_q(m, s, [], parse("heads(c)")),
        lambda m, s: eval_q_trace(m, s, [], []),
    ],
    ids=["evaluate", "truth", "eval_arith", "eval_q", "eval_q_trace"],
)
def test_entry_points_reject_an_undeclared_state(coin, entry):
    # none of these formulas asks the frame about the state
    with pytest.raises(UnknownState, match="^unknown state zz$"):
        entry(coin, "zz")

def test_atoms_and_connectives(twotoss):
    assert holds(twotoss, "sh", "H(c)")
    assert not holds(twotoss, "sh", "T(c)")
    assert holds(twotoss, "sh", "H(c) /\\ ~ T(c)")
    assert holds(twotoss, "sh", "T(c) -> false")
    assert holds(twotoss, "sh", "H(c) <-> ~ T(c)")
    assert holds(twotoss, "sh", "true \\/ false")


def test_connectives_do_not_short_circuit(coin):
    # both sides are always evaluated, so a disabled Q poisons the whole
    # conjunction even under 'false /\ ...'
    with pytest.raises(DisabledAction):
        holds(coin, "sh", "false /\\ Q[toss(c)](heads(c)) = 1")


@pytest.mark.parametrize(
    "text",
    [
        "forall w : state . @w (heads(c) /\\ Q[toss(c)](heads(c)) = 1/2)",
        "exists w : state . @w (~ heads(c) \\/ Q[toss(c)](heads(c)) = 1/2)",
    ],
)
def test_quantifiers_do_not_short_circuit(coin, text):
    # the s0 instance already decides the value, but the sh instance is
    # still evaluated, so its disabled Q surfaces whatever the domain order
    with pytest.raises(DisabledAction):
        holds(coin, "s0", text)
    report = satisfies(coin, "s0", parse(text))
    assert report.verdict == ERROR
    assert report.message == "action toss(c) has no transitions at state sh"


def nested_not(n):
    e = sym(TOP)
    for _ in range(n):
        e = neg(e)
    return e


def plus_chain(n):
    # left-nested, as the parser folds `+`
    e = rat(1)
    for _ in range(n - 1):
        e = app(sym(PLUS), e, rat(1))
    return e


@pytest.mark.parametrize(
    "term, value",
    [
        (nested_not(450), BoolV(True)),
        (conj(*[sym(TOP)] * 450), BoolV(True)),
        (plus_chain(450), RatV(Fraction(450))),
    ],
    ids=["not", "and", "plus"],
)
def test_evaluate_takes_450_levels_of_nesting(coin, term, value):
    # at the default recursion limit, built directly as core terms, so
    # neither the parser nor the typechecker is involved
    assert evaluate(coin, "s0", term) == value


def test_the_witness_names_the_first_failing_instance(coin):
    report = satisfies(coin, "s0", parse("forall w : state . @w in(s0)"))
    assert report.verdict == VIOLATED
    assert report.witness["trail"][0] == {
        "step": "instantiate", "var": "w", "value": "sh"
    }


def test_hybrid_state_test(twotoss):
    assert holds(twotoss, "s0", "in(s0)")
    assert not holds(twotoss, "sh", "in(s0)")


def test_at_jumps_to_the_named_state(twotoss):
    assert holds(twotoss, "s0", "@sh H(c)")
    assert holds(twotoss, "sh", "@s0 (~ H(c) /\\ ~ T(c))")


def test_quantifier_domains(twotoss):
    assert holds(twotoss, "sh", "forall x : obj . (H(x) \\/ ~ H(x))")
    assert holds(twotoss, "s0", "exists s : state . @s H(c)")
    assert holds(twotoss, "s0", "forall b : bool . b = b")
    assert not holds(twotoss, "s0", "exists s : state . (H(c) /\\ in(s))")


def test_membership_bounded_quantifiers(montyhall):
    assert holds(montyhall, "c1", "exists d in D . C(d)")
    assert holds(montyhall, "c1", "forall d in (D - d1) . ~ C(d)")


def test_lambda_application(twotoss):
    assert holds(twotoss, "sh", "(lam x : obj . H(x))(c)")
    assert value(twotoss, "s0", "(lam n : num . n * n)(3)") == RatV(Fraction(9))


# ---------- arithmetic ----------

def test_arithmetic_is_exact(twotoss):
    assert value(twotoss, "s0", "1/3 + 1/3 + 1/3") == RatV(Fraction(1))
    assert value(twotoss, "s0", "2 * 3/4") == RatV(Fraction(3, 2))
    assert value(twotoss, "s0", "0.1 + 0.2") == RatV(Fraction(3, 10))
    assert holds(twotoss, "s0", "1/3 < 17/50")


def test_division_by_zero(twotoss):
    with pytest.raises(DivisionByZero):
        value(twotoss, "s0", "Q[t(c)](H(c)) / 0")


def test_list_values(montyhall):
    assert value(montyhall, "s0", "|D|") == RatV(Fraction(3))
    assert value(montyhall, "s0", "|(D - d1) - d2|") == RatV(Fraction(1))
    assert holds(montyhall, "s0", "d1 in D")
    assert holds(montyhall, "s0", "D - d1 = d2 :: d3 :: nil")
    assert holds(montyhall, "s0", "~ (d1 in (D - d1))")


# ---------- modalities ----------

def test_box_dia_on_live_actions(twosucc):
    assert holds(twosucc, "s0", "box[a] hit")
    assert holds(twosucc, "s0", "dia[a] hit")


def test_box_is_vacuously_true_when_disabled(coin):
    assert holds(coin, "sh", "box[toss(c)] heads(c)")
    assert not holds(coin, "sh", "dia[toss(c)] heads(c)")
    assert not holds(coin, "sh", "dia[toss(c)]{1/2} heads(c)")


def test_annotated_diamond_matches_exact_edge_probability(twosucc):
    assert holds(twosucc, "s0", "dia[a]{1/3} hit")
    assert holds(twosucc, "s0", "dia[a]{2/3} hit")
    assert not holds(twosucc, "s0", "dia[a]{1/6} hit")
    # the probability annotation is an arbitrary numeric term
    assert holds(twosucc, "s0", "dia[a]{1/6 + 1/6} hit")


def test_annotated_diamond_is_about_edges_not_sums(dice12):
    # each face carries 1/12; the number 3 is on two faces, so the
    # aggregate is 1/6 but no single edge is
    assert value(dice12, "s0", "Q[roll](Picked(3))") == RatV(Fraction(1, 6))
    assert holds(dice12, "s0", "dia[roll]{1/12} Picked(3)")
    assert not holds(dice12, "s0", "dia[roll]{1/6} Picked(3)")


# ---------- Q ----------

def test_q_sums_matching_successors(coin):
    assert value(coin, "s0", "Q[toss(c)](heads(c))") == RatV(Fraction(1, 2))
    assert value(coin, "s0", "Q[toss(c)](heads(c) \\/ tails(c))") == RatV(Fraction(1))
    assert value(coin, "s0", "Q[toss(c)](heads(c) /\\ tails(c))") == RatV(Fraction(0))


def test_q_errors_on_disabled_actions(coin):
    with pytest.raises(DisabledAction):
        value(coin, "sh", "Q[toss(c)](heads(c))")


def test_q_trace_multiplies_along_paths(twotoss):
    assert value(twotoss, "s0", "Q[t(c); t(c)](H(c); H(c))") == RatV(Fraction(1, 4))
    assert value(twotoss, "s0", "Q[t(c); t(c)](H(c); T(c))") == RatV(Fraction(1, 4))
    assert value(twotoss, "s0", "Q[t(c)](H(c)) * Q[t(c)](T(c))") == RatV(Fraction(1, 4))


def test_q_trace_errors_when_a_later_step_is_disabled(coin):
    with pytest.raises(DisabledAction):
        value(coin, "s0", "Q[toss(c); toss(c)](heads(c); heads(c))")


# ---------- the self-flipping coin, against a brute-force oracle ----------

def two_step_oracle(model, start, act, prop1, prop2):
    """P(prop1 after one step, prop2 after two) by expanding the full
    two-level successor tree by hand."""
    total = Fraction(0)
    for w1, p1 in successors(model, start, act):
        for w2, p2 in successors(model, w1, act):
            if truth(model, w1, prop1) and truth(model, w2, prop2):
                total += p1 * p2
    return total


def test_flipping_coin_sequences_match_the_tree(magicalcoin):
    t = GroundAction("t")
    H, T = parse("H"), parse("T")
    cases = [
        ((H, T), Fraction(1, 2)),
        ((T, H), Fraction(1, 2)),
        ((H, H), Fraction(0)),
        ((T, T), Fraction(0)),
    ]
    for (p1, p2), expected in cases:
        oracle = two_step_oracle(magicalcoin, "s0", t, p1, p2)
        assert oracle == expected
        assert eval_q_trace(magicalcoin, "s0", [t, t], [p1, p2]) == expected


def test_flipping_coin_single_step_is_fair(magicalcoin):
    assert value(magicalcoin, "s0", "Q[t](H)") == RatV(Fraction(1, 2))
    assert value(magicalcoin, "s0", "Q[t](T)") == RatV(Fraction(1, 2))
    # the per-step marginals after the first toss are degenerate
    assert value(magicalcoin, "sh", "Q[t](T)") == RatV(Fraction(1))


# ---------- generated models: complement and additivity laws ----------

def random_model(rng):
    n_states = rng.randint(2, 5)
    states = [f"s{i}" for i in range(n_states)]
    spec = ModelSpec(name="gen")
    spec.states.extend(states)
    spec.initial = "s0"
    for act in ("a", "b"):
        spec.actions.append(SymbolDecl(act, ACTION))
    atoms = [f"p{i}" for i in range(rng.randint(1, 3))]
    for p in atoms:
        spec.symbols.append(SymbolDecl(p, PROP))
    for s in states:
        for act in ("a", "b"):
            if rng.random() < 0.25:
                continue  # leave the action disabled here
            targets = rng.sample(states, rng.randint(1, min(3, n_states)))
            weights = [rng.randint(1, 6) for _ in targets]
            total = sum(weights)
            for t, w in zip(targets, weights):
                spec.transitions.append(
                    TransitionDecl(s, act, (), t, Fraction(w, total))
                )
    for s in states:
        for p in atoms:
            if rng.random() < 0.5:
                spec.valuation.append(ValuationDecl(s, p, ()))
    return validate_model(spec)


def random_prop(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms + [sym(TOP), sym(BOT)])
    shape = rng.randrange(3)
    if shape == 0:
        return neg(random_prop(rng, atoms, depth - 1))
    left = random_prop(rng, atoms, depth - 1)
    right = random_prop(rng, atoms, depth - 1)
    return (conj if shape == 1 else disj)(left, right)


def enabled_actions(model, state):
    return sorted(
        {ga for (s, ga) in model.frame.transitions if s == state},
        key=lambda ga: ga.head,
    )


def fully_enabled_second_steps(model, state, first):
    """Actions enabled at every first-step successor, so a two-step trace
    never walks off the frame."""
    succ = successors(model, state, first)
    out = []
    for ga in enabled_actions(model, succ[0][0]):
        if all(successors(model, w, ga) for w, _ in succ):
            out.append(ga)
    return out


def test_complement_and_additivity_laws_on_generated_models():
    rng = random.Random(996633)
    checks = 0
    for _ in range(130):
        model = random_model(rng)
        atoms = model.ground_atoms()
        for state in model.states:
            acts = enabled_actions(model, state)
            if not acts:
                continue
            act = rng.choice(acts)
            phi = random_prop(rng, atoms, 2)
            psi = random_prop(rng, atoms, 2)

            q = lambda p: eval_q(model, state, [act], p)
            # complement: the masses of a proposition and its negation
            # add to exactly one
            assert q(phi) + q(neg(phi)) == 1
            checks += 1
            # additivity in inclusion-exclusion form
            assert q(disj(phi, psi)) + q(conj(phi, psi)) == q(phi) + q(psi)
            checks += 1
            # monotone bounds for good measure
            assert 0 <= q(phi) <= 1
            checks += 1

            for second in fully_enabled_second_steps(model, state, act)[:2]:
                tr = [act, second]
                hit = eval_q_trace(model, state, tr, [phi, psi])
                miss = eval_q_trace(model, state, tr, [phi, neg(psi)])
                # marginalizing the second step recovers the one-step mass
                assert hit + miss == q(phi)
                checks += 1
                assert eval_q_trace(model, state, tr, [sym(TOP), sym(TOP)]) == 1
                checks += 1
    assert checks >= 1000, f"only {checks} law instances were generated"
