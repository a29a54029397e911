"""The probability operator: one node, one kernel.

Both surface forms, Q[a1; ...; ak](F) and Q[a1; ...; ak](F1; ...; Fk),
parse to the same Q node. Here the kernel is checked against a plain
path-enumeration reference on generated frames: equal values, or the same
error class and message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptl import Q, alpha_eq, evaluate, parse, parse_model, print_formula, validate_model
from ptl.errors import DisabledAction, LengthMismatch
from ptl.values import GroundAction

ACTIONS = ("a", "b")
ATOMS = ("p", "q")


# ---------- generated frames and propositions ----------


@st.composite
def frames(draw):
    """(model, transitions, valuation): 2-6 states, 1-2 actions, some
    (state, action) pairs disabled, a random valuation."""
    n = draw(st.integers(2, 6))
    states = [f"s{i}" for i in range(n)]
    actions = ACTIONS[: draw(st.integers(1, 2))]
    transitions = {}
    for s in states:
        for a in actions:
            if draw(st.integers(0, 3)) == 0:
                continue  # disabled here
            targets = draw(
                st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True)
            )
            weights = [draw(st.integers(1, 4)) for _ in targets]
            transitions[s, a] = [
                (t, Fraction(w, sum(weights))) for t, w in zip(targets, weights)
            ]
    valuation = {s: draw(st.frozensets(st.sampled_from(ATOMS))) for s in states}

    lines = ["model g", "states " + " ".join(states), "initial s0", "actions"]
    lines += [f"  {a} : action" for a in actions]
    lines += ["types"] + [f"  {p} : prop" for p in ATOMS] + ["transitions"]
    for (s, a), succ in transitions.items():
        lines += [f"  {s} --{a}--> {t} @ {rho}" for t, rho in succ]
    lines.append("valuation")
    lines += [f"  {s} : {', '.join(sorted(v))}" for s, v in valuation.items() if v]
    model = validate_model(parse_model("\n".join(lines) + "\n"))
    return model, transitions, valuation


def props():
    """(text, truth function over a state's atom set)."""
    leaves = st.sampled_from(
        [(p, lambda v, p=p: p in v) for p in ATOMS]
        + [("true", lambda v: True), ("false", lambda v: False)]
    )

    def extend(inner):
        neg = inner.map(lambda f: (f"~ {f[0]}", lambda v, g=f[1]: not g(v)))
        both = st.tuples(inner, inner).map(
            lambda fs: (
                f"({fs[0][0]} /\\ {fs[1][0]})",
                lambda v, g=fs[0][1], h=fs[1][1]: g(v) and h(v),
            )
        )
        return neg | both

    return st.recursive(leaves, extend, max_leaves=3)


# ---------- the reference ----------


def prefixes(transitions, state, word):
    """Every path of the action word from state, in declaration order, as
    (states, probability, disabled); a path that meets a disabled action
    stops there with that action."""
    if not word:
        yield [state], Fraction(1), None
        return
    succ = transitions.get((state, word[0]))
    if not succ:
        yield [state], Fraction(1), word[0]
        return
    for w, rho in succ:
        for rest, p, disabled in prefixes(transitions, w, word[1:]):
            yield [state] + rest, rho * p, disabled


def reference(transitions, valuation, state, word, tests):
    """Q by path enumeration. tests pairs with word (trace form) or is a
    single test of the last state. A path counts only while every test
    on it holds; the first live path that meets a disabled action is the
    error."""
    if len(tests) not in (1, len(word)):
        raise LengthMismatch(f"{len(word)} actions but {len(tests)} propositions")
    total = Fraction(0)
    for path, p, disabled in prefixes(transitions, state, word):
        if len(tests) == len(word):
            checks = zip(path[1:], tests)  # one test after each action
        else:
            checks = [(path[-1], tests[0])] if disabled is None else []
        if not all(test(valuation[w]) for w, test in checks):
            continue
        if disabled is not None:
            raise DisabledAction(path[-1], GroundAction(disabled))
        total += p
    return total


def outcome(run):
    try:
        return run()
    except (DisabledAction, LengthMismatch) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    frame=frames(),
    data=st.data(),
    word=st.lists(st.sampled_from(ACTIONS), max_size=4),
)
def test_kernel_agrees_with_path_enumeration(frame, data, word):
    model, transitions, valuation = frame
    word = [a for a in word if a in model.actions]
    state = data.draw(st.sampled_from(model.states))
    k = len(word)
    single = data.draw(props())
    trace = data.draw(st.lists(props(), min_size=k, max_size=k))
    for fs in ([single], trace) if k else ([single],):
        text = f"Q[{'; '.join(word)}]({'; '.join(f for f, _ in fs)})"
        got = outcome(lambda: evaluate(model, state, parse(text)).value)
        want = outcome(
            lambda: reference(transitions, valuation, state, word, [t for _, t in fs])
        )
        assert got == want, text


# ---------- pinned cases on the one-shot coin ----------


def test_trace_prunes_before_the_disabled_action(coin):
    # no path survives `false`, so the disabled second toss is never taken
    e = parse("Q[toss(c); toss(c)](false; heads(c))")
    assert evaluate(coin, "s0", e).value == 0


def test_single_form_takes_every_action(coin):
    with pytest.raises(DisabledAction):
        evaluate(coin, "s0", parse("Q[toss(c); toss(c)](heads(c))"))


def test_empty_word_is_an_indicator(coin):
    e = parse("Q[](heads(c))")
    for state in coin.states:
        assert evaluate(coin, state, e).value == int(coin.holds(state, "heads", ("c",)))


def test_untypechecked_length_mismatch_surfaces_at_evaluation(coin):
    e = parse("Q[toss(c); toss(c)](heads(c); tails(c); heads(c))")
    with pytest.raises(LengthMismatch, match="2 actions but 3 propositions"):
        evaluate(coin, "s0", e)


# ---------- printing ----------


@settings(max_examples=100, deadline=None)
@given(
    word=st.lists(st.sampled_from(["t", "toss(c)", "pick(b, x)"]), max_size=4),
    data=st.data(),
)
def test_q_terms_round_trip_through_the_printer(word, data):
    k = len(word)
    n = data.draw(st.sampled_from([1, k] if k else [1]))
    ps = data.draw(st.lists(props(), min_size=n, max_size=n))
    e = parse(f"Q[{'; '.join(word)}]({'; '.join(f for f, _ in ps)})")
    assert isinstance(e, Q) and len(e.actions) == k and len(e.props) == n
    text = print_formula(e)
    assert alpha_eq(parse(text), e)
    assert print_formula(parse(text)) == text
