"""The probability operator: one node, one kernel.

Both surface forms, Q[a1; ...; ak](F) and Q[a1; ...; ak](F1; ...; Fk),
parse to the same Q node. Here the kernel is checked against a plain
path-enumeration reference on generated frames: equal values, or the same
error class and message. Its cost is checked by counting successor
lookups, which the (state, step) memo bounds by states times steps, and
its depth by horizons far past the recursion limit. Its integer sums over
one common denominator are checked against backward induction over plain
Fractions, on both sides of the 64-bit cut-off.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptl import Q, alpha_eq, evaluate, parse, parse_model, print_formula, validate_model
from ptl.errors import DisabledAction, LengthMismatch
from ptl.values import GroundAction, ObjV

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
    word=st.lists(st.sampled_from(ACTIONS), max_size=6),
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


def load(text):
    return validate_model(parse_model(text))


def repeat(action, k):
    return "; ".join([action] * k)


# ---------- cost and depth ----------


def random_frame(n, branching, seed):
    """(model, transitions): n states, one action with `branching`
    successors each, p true at about half the states."""
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n)]
    transitions = {}
    for s in states:
        targets = rng.sample(states, branching)
        weights = [rng.randint(1, 4) for _ in targets]
        transitions[s] = [(t, Fraction(w, sum(weights))) for t, w in zip(targets, weights)]
    marked = [s for s in states if rng.random() < 0.5]
    lines = ["model r", "states " + " ".join(states), "actions", "  a : action",
             "types", "  p : prop", "transitions"]
    lines += [f"  {s} --a--> {t} @ {rho}" for s, succ in transitions.items() for t, rho in succ]
    lines += ["valuation"] + [f"  {s} : p" for s in marked]
    return load("\n".join(lines) + "\n"), transitions, set(marked)


def backward(transitions, marked, k):
    """Q[a^k](p) at every state, one layer at a time."""
    v = {s: Fraction(int(s in marked)) for s in transitions}
    for _ in range(k):
        v = {s: sum(rho * v[t] for t, rho in succ) for s, succ in transitions.items()}
    return v


def test_q_looks_up_each_cell_at_most_once(successor_calls):
    # path enumeration makes about 29 500 lookups here; the memo allows
    # one per (state, step)
    n, k = 50, 10
    model, transitions, marked = random_frame(n, 3, seed=7)
    want = backward(transitions, marked, k)
    for state in ("s0", "s17"):
        successor_calls.clear()
        assert evaluate(model, state, parse(f"Q[{repeat('a', k)}](p)")).value == want[state]
        assert len(successor_calls) <= n * k
        successor_calls.clear()
        trace = parse(f"Q[{repeat('a', k)}]({repeat('~ false', k)})")
        assert evaluate(model, state, trace).value == 1
        assert len(successor_calls) <= n * k


LOOP = """model loop
states s0 s1
actions
  a : action
types
  p : prop
transitions
  s0 --a--> s0 @ 1/2
  s0 --a--> s1 @ 1/2
  s1 --a--> s1 @ 1
valuation
  s1 : p
"""


def test_horizons_far_past_the_recursion_limit():
    model = load(LOOP)
    k = 10000
    assert evaluate(model, "s0", parse(f"Q[{repeat('a', k)}](p)")).value == 1 - Fraction(1, 2**k)
    assert evaluate(model, "s0", parse(f"Q[{repeat('a', k)}]({repeat('true', k)})")).value == 1


# ---------- error order and memo scoping ----------


FORK = """model fork
states s0 s1 s2
actions
  a : action
  b : action
types
  r : prop
transitions
  s0 --a--> s2 @ 1/2
  s0 --a--> s1 @ 1/2
valuation
  s2 : r
"""


def test_the_first_declared_live_successor_names_the_disabled_action():
    # both successors lack b; s2's transition is declared first, although
    # s1 is the first declared state
    model = load(FORK)
    with pytest.raises(DisabledAction, match="at state s2$"):
        evaluate(model, "s0", parse("Q[a; b](true)"))
    # pruned by ~ r, the path through s2 never takes b
    with pytest.raises(DisabledAction, match="at state s1$"):
        evaluate(model, "s0", parse("Q[a; b](~ r; true)"))


OBJECTS = """model objs
objects o1 o2
states s0 s1 s2 s3
actions
  a : action
types
  P : obj -> prop
transitions
  s0 --a--> s1 @ 1/4
  s0 --a--> s2 @ 3/4
  s1 --a--> s3 @ 1
  s2 --a--> s3 @ 1/2
  s2 --a--> s1 @ 1/2
  s3 --a--> s3 @ 1
valuation
  s3 : P(o1)
  s1 : P(o2)
"""


def test_each_quantifier_binding_gets_its_own_memo():
    # both paths through s1 and s3 share cells, and the value differs per
    # object, so a memo shared across bindings gives one of them the
    # other's value
    model = load(OBJECTS)
    q = "Q[a; a](P(x))"
    assert evaluate(model, "s0", parse(q), {"x": ObjV("o1")}).value == Fraction(5, 8)
    assert evaluate(model, "s0", parse(q), {"x": ObjV("o2")}).value == Fraction(3, 8)
    per_binding = parse(
        f"forall x : obj . ((x = o1 -> {q} = 5/8) /\\ (x = o2 -> {q} = 3/8))"
    )
    assert evaluate(model, "s0", per_binding).value is True
    assert evaluate(model, "s0", parse(f"exists x : obj . {q} = 3/8")).value is True


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


# ---------- fraction-free sums: integer weights over one denominator ----------


SMALL = (2, 3, 4, 5, 6, 12)
# four primes near 2**30: any three of them multiply past 64 bits
LARGE = (1000000007, 1000000009, 1000000021, 1000000033)


def frame_text(transitions, marked):
    """A .ptlm text over actions a and b and atoms p and q, from
    {(state, action): [(target, rho)]} and {state: atoms}."""
    states = list(marked)
    lines = ["model w", "states " + " ".join(states), "actions", "  a : action",
             "  b : action", "types", "  p : prop", "  q : prop", "transitions"]
    lines += [f"  {s} --{a}--> {t} @ {rho}"
              for (s, a), succ in transitions.items() for t, rho in succ]
    lines += ["valuation"] + [f"  {s} : {', '.join(sorted(v))}"
                              for s, v in marked.items() if v]
    return "\n".join(lines) + "\n"


@st.composite
def weighted_frames(draw):
    """(model, transitions, marked): 2-5 states, both actions enabled
    everywhere, each distribution over one denominator drawn from SMALL,
    so that L fits in 64 bits; in half the frames the first four take the
    LARGE primes instead, so that it mostly does not."""
    n = draw(st.integers(2, 5))
    states = [f"s{i}" for i in range(n)]
    large = draw(st.booleans())
    transitions = {}
    for j, (s, a) in enumerate(itertools.product(states, ACTIONS)):
        d = LARGE[j] if large and j < len(LARGE) else draw(st.sampled_from(SMALL))
        targets = draw(st.lists(st.sampled_from(states), min_size=1,
                                max_size=min(3, d), unique=True))
        cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=len(targets) - 1,
                                    max_size=len(targets) - 1, unique=True)))
        shares = [hi - lo for lo, hi in zip([0] + cuts, cuts + [d])]
        transitions[s, a] = [(t, Fraction(w, d)) for t, w in zip(targets, shares)]
    marked = {s: draw(st.frozensets(st.sampled_from(ATOMS))) for s in states}
    return load(frame_text(transitions, marked)), transitions, marked


def induction(transitions, marked, word, tests):
    """Q at every state by backward induction over plain Fractions: tests
    is one atom for the last state, or one atom after each action."""
    trace = len(tests) == len(word)
    v = {s: Fraction(tests[-1] in atoms) for s, atoms in marked.items()}
    for i in reversed(range(len(word))):
        v = {s: sum((rho * v[t] for t, rho in transitions[s, word[i]]), Fraction(0))
             * (1 if not (trace and i) else int(tests[i - 1] in marked[s]))
             for s in marked}
    return v


def scale_of(transitions):
    """The frame's (L, mult), computed here from the declared edges."""
    denominators = {rho.denominator for succ in transitions.values() for _, rho in succ}
    lcm = math.lcm(*denominators)
    if lcm.bit_length() > 64:
        return 1, None
    return lcm, {d: lcm // d for d in denominators}


@settings(max_examples=150, deadline=None)
@given(frame=weighted_frames(), data=st.data(),
       word=st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=5))
def test_fraction_free_kernel_agrees_with_fraction_induction(frame, data, word):
    model, transitions, marked = frame
    assert model.frame.scale == scale_of(transitions)
    for tests in ([data.draw(st.sampled_from(ATOMS))],
                  data.draw(st.lists(st.sampled_from(ATOMS), min_size=len(word),
                                     max_size=len(word)))):
        want = induction(transitions, marked, word, tests)
        e = parse(f"Q[{'; '.join(word)}]({'; '.join(tests)})")
        for state in model.states:
            got = evaluate(model, state, e).value
            assert type(got) is Fraction and got == want[state], (state, tests)


def two_denominator_frame(d1, d2):
    """(model, transitions, marked): three states, a with denominator d1,
    b with d2, p at s2 only."""
    marked = {"s0": frozenset(), "s1": frozenset(), "s2": frozenset({"p"})}
    transitions = {}
    for s in marked:
        transitions[s, "a"] = [("s1", Fraction(1, d1)), ("s2", Fraction(d1 - 1, d1))]
        transitions[s, "b"] = [("s0", Fraction(d2 - 2, d2)), ("s2", Fraction(2, d2))]
    return load(frame_text(transitions, marked)), transitions, marked


def assert_q_matches_induction(model, transitions, marked, word):
    want = induction(transitions, marked, word, ["p"])
    e = parse(f"Q[{'; '.join(word)}](p)")
    for state in model.states:
        assert evaluate(model, state, e).value == want[state]


WORD = ["a", "b", "b", "a", "b", "a"]


def test_prime_denominators_past_64_bits_keep_fraction_weights():
    model, transitions, marked = two_denominator_frame(LARGE[0] * LARGE[1], LARGE[2])
    assert model.frame.scale == (1, None)
    assert_q_matches_induction(model, transitions, marked, WORD)


@pytest.mark.parametrize("d1, d2, lcm", [
    (2**32 - 1, 2**32 + 1, 2**64 - 1),  # coprime: L is the largest 64-bit value
    (2**64, 4, None),  # L = 2**64 needs 65 bits
])
def test_the_64_bit_boundary_of_the_common_denominator(d1, d2, lcm):
    model, transitions, marked = two_denominator_frame(d1, d2)
    if lcm is None:
        assert model.frame.scale == (1, None)
    else:
        assert model.frame.scale == (lcm, {d1: lcm // d1, d2: lcm // d2})
    assert_q_matches_induction(model, transitions, marked, WORD)


def test_a_frame_without_transitions_has_scale_one():
    model = load("model bare\nstates s0 s1\nactions\n  a : action\n"
                 "types\n  p : prop\nvaluation\n  s1 : p\n")
    assert model.frame.scale == (1, {})
    assert evaluate(model, "s0", parse("Q[](p)")).value == 0
    assert evaluate(model, "s1", parse("Q[](p)")).value == 1
    with pytest.raises(DisabledAction):
        evaluate(model, "s1", parse("Q[a](p)"))


def test_frame_equality_and_hash_ignore_the_scale():
    model, _, _ = two_denominator_frame(6, 4)
    frame = model.frame
    other = dataclasses.replace(frame)
    object.__setattr__(other, "scale", (1, None))
    assert frame == other and hash(frame) == hash(other)
    assert "scale" not in repr(frame)


def test_dia_compares_the_exact_edge_probability():
    # L = 12 here: a's edge of 1/4 weighs 3 in the kernel, never in dia{p}
    model, _, _ = two_denominator_frame(4, 6)
    assert model.frame.scale[0] == 12
    assert evaluate(model, "s0", parse("dia[a]{3/4} p")).value is True
    assert evaluate(model, "s0", parse("dia[a]{6/8} p")).value is True
    for p in ("3", "9", "1/4"):
        assert evaluate(model, "s0", parse(f"dia[a]{{{p}}} p")).value is False
