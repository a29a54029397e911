"""Global checks of state-independent formulas.

`@` moves evaluation to a state of its own, so a formula whose every read
of the current state sits under `@` (`forall w : state . @w phi`, `@s0
phi`) has one value, or one error, at all states. `globally_satisfies`
checks such a formula at the first state only, and any formula is
compiled once per check. Here the syntactic facts are pinned by a truth
table, the savings by counting successor lookups and compiles, and the
unchanged reports by a differential test against a loop over every state.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_q_kernel import frames, random_frame

import ptl.checker
import ptl.evaluator
from ptl import parse, parse_model, validate_model
from ptl.checker import ERROR, SATISFIED, VIOLATED, CheckReport, globally_satisfies, satisfies
from ptl.errors import UnknownState
from ptl.evaluator import compile_expr, evaluate, truth
from ptl.syntax import STATE
from ptl.values import StateV

SMALL = validate_model(parse_model("""model small
states s0 s1
actions
  a : action
types
  p : prop
  q : prop
transitions
  s0 --a--> s1 @ 1
valuation
  s1 : p
"""))


TRUTH_TABLE = [
    ("forall w : state . @w (p -> dia[a] q)", True, False),
    ("@s0 Q[a](p) = 1", True, True),
    ("1/2 < 1", True, False),
    ("p", False, False),
    ("in(s0)", False, False),
    ("forall w : state . (in(w) -> @w p)", False, False),
    ("p \\/ forall w : state . @w q", False, False),
    ("box[a] true", False, False),
    ("|p :: nil| = 1", False, False),
    ("p /\\ @s0 (Q[a](p) = 1)", False, True),
]


# ids of the form text-independent, so the rows that predate has_q keep their ids
@pytest.mark.parametrize(
    "text, independent, has_q", TRUTH_TABLE, ids=[f"{t}-{i}" for t, i, _ in TRUTH_TABLE]
)
def test_state_independent_truth_table(text, independent, has_q):
    _, *facts, _ = compile_expr(SMALL, parse(text))
    assert facts == [independent, has_q]


def test_the_numeric_side_is_the_one_with_a_q_not_the_one_that_reads_the_state():
    # both sides read the state at s0, only the right one through a Q
    report = satisfies(SMALL, "s0", parse("|p :: nil| < Q[a](p) + 1"))
    assert report.verdict == SATISFIED
    assert report.numeric == 2
    assert report.details == {"lhs": "1", "rhs": "2"}


def every_state(model, formula):
    """The global report as a loop over every state computes it."""
    for state in model.states:
        report = satisfies(model, state, formula)
        if report.verdict == ERROR:
            report.message = f"at state {state}: {report.message}"
            return report.to_dict()
        if report.verdict == VIOLATED:
            report.details["violating_state"] = state
            return report.to_dict()
    return CheckReport(SATISFIED, details={"states_checked": len(model.states)}).to_dict()


# ---------- cost ----------


def test_a_state_independent_formula_is_checked_at_one_state(successor_calls):
    # holds at every state, so a loop over all 60 states makes 60 * 60 =
    # 3600 lookups; with p in place of true, forall stops at the first w
    # without a p-successor and the count says little
    model, _, _ = random_frame(60, 3, seed=11)
    formula = parse("forall w : state . @w dia[a] true")
    report = globally_satisfies(model, formula)
    assert len(successor_calls) <= 60
    assert report.to_dict() == every_state(model, formula)


@pytest.fixture
def compiles(monkeypatch):
    """The number of compile_expr calls not made by compile_expr itself."""
    original, depth, count = ptl.evaluator.compile_expr, [0], [0]

    def counted(model, expr):
        count[0] += depth[0] == 0
        depth[0] += 1
        try:
            return original(model, expr)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ptl.evaluator, "compile_expr", counted)
    monkeypatch.setattr(ptl.checker, "compile_expr", counted)
    return count


def test_a_global_check_compiles_its_formula_once(compiles):
    # the formula reads the current state, so it runs at every state; a
    # comparison compiles as its relation, left side and right side
    formula = parse("Q[a](p) < 2")
    counts = []
    for n in (6, 60):
        model, _, _ = random_frame(n, 3, seed=5)
        compiles[0] = 0
        assert globally_satisfies(model, formula).details == {"states_checked": n}
        counts.append(compiles[0])
    assert counts == [3, 3]


# ---------- reports are unchanged ----------


@st.composite
def formulas(draw, bound=(), depth=3):
    """Formula text over atoms p and q, actions a and b, the states s0 and
    s1 and the bound state variables."""
    here = ("s0", "s1") + bound
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["p", "q", "true", "false"] + [f"in({s})" for s in here]))
    sub = formulas(bound, depth - 1)
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return f"~ ({draw(sub)})"
    if kind == 1:
        op = draw(st.sampled_from(["/\\", "\\/", "->"]))
        return f"({draw(sub)}) {op} ({draw(sub)})"
    if kind == 2:
        return f"@{draw(st.sampled_from(here))} ({draw(sub)})"
    if kind == 3:
        w = f"w{len(bound)}"
        quant = draw(st.sampled_from(["forall", "exists"]))
        return f"{quant} {w} : state . ({draw(formulas(bound + (w,), depth - 1))})"
    if kind in (4, 5):
        modal = draw(st.sampled_from(["box", "dia"]))
        return f"{modal}[{draw(st.sampled_from(['a', 'b']))}] ({draw(sub)})"
    word = "; ".join(draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2)))
    rel = draw(st.sampled_from(["=", "<"]))
    return f"Q[{word}]({draw(sub)}) {rel} {draw(st.sampled_from(['0', '1/2', '1']))}"


@st.composite
def global_formulas(draw):
    """Mostly the global idioms: `forall w : state . @w phi` and `@s phi`."""
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return draw(formulas())
    if shape == 1:
        return f"@{draw(st.sampled_from(['s0', 's1']))} ({draw(formulas())})"
    body = draw(formulas(("w",)))
    guard = "in(w) -> " if shape == 3 else ""
    return f"forall w : state . ({guard}@w ({body}))"


@settings(max_examples=300, deadline=None)
@given(frame=frames(), text=global_formulas())
def test_global_reports_match_a_loop_over_every_state(frame, text):
    model = frame[0]
    formula = parse(text)
    assert globally_satisfies(model, formula).to_dict() == every_state(model, formula), text


def test_an_error_is_reported_at_the_first_state():
    # a is disabled at s0, and t is declared first
    model = validate_model(parse_model("""model late
states t s0
actions
  a : action
types
  p : prop
transitions
  t --a--> s0 @ 1
"""))
    report = globally_satisfies(model, parse("@s0 Q[a](p) = 1"))
    assert report.verdict == ERROR
    assert report.message == "at state t: action a has no transitions at state s0"


# ---------- @ checks the state it moves to ----------


def test_at_rejects_an_undeclared_state_from_the_environment(coin):
    formula = parse("@x heads(c)")
    env = {"x": StateV("zz")}
    with pytest.raises(UnknownState, match="^unknown state zz$"):
        evaluate(coin, "s0", formula, env)
    with pytest.raises(UnknownState, match="^unknown state zz$"):
        truth(coin, "s0", formula, env)
    # a rigid state constant built around validation reaches @ the same way
    far = dataclasses.replace(coin, rigid={**coin.rigid, "far": (STATE, StateV("zz"))})
    report = satisfies(far, "s0", parse("@far heads(c)"))
    assert (report.verdict, report.message) == (ERROR, "unknown state zz")
