"""Well-typed formulas go wrong in two ways only.

Once a formula typechecks against a model, evaluating it at any state may
still meet a disabled action under Q (`DisabledAction`) or a division by
zero (`DivisionByZero`). Any other error, or any exception that is not a
`PtlError`, means the typechecker let through a term the evaluator cannot
interpret. Formulas are drawn over the random frames of `test_q_kernel`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_q_kernel import frames

from ptl import parse
from ptl.errors import DisabledAction, DivisionByZero, ParseError, TypeError_
from ptl.evaluator import evaluate
from ptl.typecheck import infer_type


@st.composite
def props(draw, acts, scope, depth):
    """A proposition over atoms p and q, the frame's actions and the bound
    variables in scope: (name, kind) with kind state, num, bool or prop."""
    states = ["s0", "s1"] + [x for x, k in scope if k == "state"]
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(
            ["p", "q", "true", "false"] + [f"in({s})" for s in states]
            + [x for x, k in scope if k == "prop"]
        ))
    sub = props(acts, scope, depth - 1)
    num = nums(acts, scope, depth - 1)
    act = st.sampled_from(acts)
    fresh = f"x{len(scope)}"
    kind = draw(st.integers(0, 14))
    if kind == 0:
        return f"~ ({draw(sub)})"
    if kind == 1:
        op = draw(st.sampled_from(["/\\", "\\/", "->", "<->"]))
        return f"({draw(sub)}) {op} ({draw(sub)})"
    if kind == 2:
        return f"@{draw(st.sampled_from(states))} ({draw(sub)})"
    if kind == 3:
        q, ty = draw(st.sampled_from(["forall", "exists"])), draw(st.sampled_from(["state", "bool"]))
        body = draw(props(acts, scope + ((fresh, ty),), depth - 1))
        return f"{q} {fresh} : {ty} . ({body})"
    if kind == 4:
        return f"{draw(st.sampled_from(['box', 'dia']))}[{draw(act)}] ({draw(sub)})"
    if kind == 5:
        prob = draw(st.sampled_from(["1/2", "1/3", "1/4", "2/3", "1"]) | num)
        return f"dia[{draw(act)}]{{{prob}}} ({draw(sub)})"
    if kind == 6:
        rel = draw(st.sampled_from(["=", "<", ">", "!="]))
        return f"({draw(num)}) {rel} ({draw(num)})"
    if kind == 7:
        return f"{draw(st.sampled_from(states))} in ({draw(lists(scope, depth - 1))})"
    if kind == 8:
        return f"({draw(lists(scope, depth - 1))}) = ({draw(lists(scope, depth - 1))})"
    if kind == 9:
        bools = [x for x, k in scope if k == "bool"] or ["true = true"]
        return f"({draw(st.sampled_from(bools))}) = ({draw(st.sampled_from(bools))})"
    if kind == 10:
        ty = draw(st.sampled_from(["state", "num", "prop"]))
        arg = {"state": st.sampled_from(states), "num": num, "prop": sub}[ty]
        body = draw(props(acts, scope + ((fresh, ty),), depth - 1))
        return f"(lam {fresh} : {ty} . {body})({draw(arg)})"
    # kinds 11-13 are rejected by the typechecker: functions do not compare,
    # and a prop is a truth value, so no lambda has type prop and no prop is
    # applied to a state
    if kind == 11:
        return f"(lam {fresh} : state . {draw(sub)}) = (lam {fresh} : state . {draw(sub)})"
    if kind == 12:
        bools = [x for x, k in scope if k == "bool"] or ["true"]
        return f"(lam {fresh} : state . {draw(st.sampled_from(bools))}) = ({draw(sub)})"
    if kind == 13:
        s = draw(st.sampled_from(states))
        return f"(({draw(sub)})({s})) = (({draw(sub)})({s}))"
    word = "; ".join(draw(st.lists(act, min_size=1, max_size=3)))
    return f"Q[{word}]({draw(sub)}) {draw(st.sampled_from(['=', '<']))} {draw(num)}"


@st.composite
def nums(draw, acts, scope, depth):
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["0", "1", "1/2", "2"] + [x for x, k in scope if k == "num"]))
    sub = nums(acts, scope, depth - 1)
    kind = draw(st.integers(0, 4))
    if kind == 0:
        word = draw(st.lists(st.sampled_from(acts), max_size=3))
        count = len(word) if word and draw(st.booleans()) else 1
        tests = "; ".join(draw(props(acts, scope, depth - 1)) for _ in range(count))
        return f"Q[{'; '.join(word)}]({tests})"
    if kind == 1:
        op = draw(st.sampled_from(["+", "*", "/"]))
        return f"({draw(sub)}) {op} ({draw(sub)})"
    if kind == 2:
        return f"|{draw(lists(scope, depth - 1))}|"
    fresh = f"x{len(scope)}"
    body = draw(nums(acts, scope + ((fresh, "num"),), depth - 1))
    return f"(lam {fresh} : num . {body})({draw(sub)})"


@st.composite
def lists(draw, scope, depth):
    """Lists of states."""
    item = st.sampled_from(["s0", "s1"] + [x for x, k in scope if k == "state"])
    if depth <= 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(["nil"]) | item.map(lambda s: f"{s} :: nil"))
    inner = draw(lists(scope, depth - 1))
    if draw(st.booleans()):
        return f"{draw(item)} :: ({inner})"
    return f"({inner}) - {draw(item)}"


@settings(max_examples=300, deadline=None)
@given(frame=frames(), data=st.data())
def test_well_typed_formulas_raise_only_disabled_actions_and_zero_divisions(frame, data):
    model = frame[0]
    text = data.draw(props(tuple(model.actions), (), 4), label="formula")
    try:
        formula = parse(text)
        infer_type(formula, model.type_env())
    except (ParseError, TypeError_):
        return  # a literal 1/0, or one of kinds 11-13
    for state in model.states:
        try:
            evaluate(model, state, formula)
        except (DisabledAction, DivisionByZero):
            pass
