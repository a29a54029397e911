"""Reference answers computed without ptl.

Every workload output is compared against one of these. None of them
imports ptl: they work on the benchmark's own description of the inputs
(transition tables, valuations and formula trees built by the
generators), so a defect in ptl's parser, evaluator or checker cannot
also hide in its reference.

A frame here is ``Frame(name, states, val, table)``: ``states`` in declaration
order, ``val[s]`` the set of atoms true at ``s``, and ``table[s, act]``
the successors of ``s`` under ``act`` as ``(target, Fraction)`` pairs in
declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Frame:
    name: str
    states: tuple[str, ...]
    val: dict[str, frozenset[str]]
    table: dict[tuple[str, str], tuple[tuple[str, Fraction], ...]]


# ---------- deep_q: bounded reachability by backward induction ----------


def _layers(frame: Frame, start: str, word: tuple[str, ...]) -> list[set[str]]:
    layers = [{start}]
    for act in word:
        layers.append({w for s in layers[-1] for w, _ in frame.table[s, act]})
    return layers


def q_single(frame: Frame, start: str, word: tuple[str, ...], prop: str) -> Fraction:
    """Probability that ``prop`` holds after taking ``word`` from ``start``:
    v_k = 1_prop, v_i(s) = sum_w P_{a_i}(s, w) v_{i+1}(w), over the states
    reachable at each step only."""
    layers = _layers(frame, start, word)
    v = {s: Fraction(int(prop in frame.val[s])) for s in layers[-1]}
    for i in reversed(range(len(word))):
        v = {
            s: sum((p * v[w] for w, p in frame.table[s, word[i]]), Fraction(0))
            for s in layers[i]
        }
    return v[start]


def q_trace(
    frame: Frame, start: str, word: tuple[str, ...], props: tuple[str, ...]
) -> Fraction:
    """Probability that ``props[i]`` holds right after step ``i``, for
    every step of ``word``."""
    layers = _layers(frame, start, word)
    v = {s: Fraction(1) for s in layers[-1]}
    for i in reversed(range(len(word))):
        v = {
            s: sum(
                (p * v[w] for w, p in frame.table[s, word[i]] if props[i] in frame.val[w]),
                Fraction(0),
            )
            for s in layers[i]
        }
    return v[start]


# ---------- global: a labeller for the generated formula fragment ----------
#
# Formulas are tuples:
#   ("atom", a) ("not", F) ("and"|"or"|"imp", F, G) ("box"|"dia", act, F)
#   ("at", x, F) ("forall", x, F) ("eq", N, M)
# and numeric terms ("q", act, F) ("rat", Fraction) ("plus", N, M).
# ``x`` in "at" is a state name or a variable bound by forall over
# states. label() returns the set of states where a formula holds.


def _free_vars(f) -> frozenset[str]:
    tag = f[0]
    if tag in ("atom", "rat"):
        return frozenset()
    if tag == "not":
        return _free_vars(f[1])
    if tag in ("and", "or", "imp", "eq", "plus"):
        return _free_vars(f[1]) | _free_vars(f[2])
    if tag in ("box", "dia", "q"):
        return _free_vars(f[2])
    if tag == "at":
        return frozenset({f[1]}) | _free_vars(f[2])
    if tag == "forall":
        return _free_vars(f[2]) - {f[1]}
    raise ValueError(f"unknown formula {f!r}")


def label(frame: Frame, f, env: dict[str, str] | None = None) -> frozenset[str]:
    env = env or {}
    states = frozenset(frame.states)
    tag = f[0]
    if tag == "atom":
        return frozenset(s for s in frame.states if f[1] in frame.val[s])
    if tag == "not":
        return states - label(frame, f[1], env)
    if tag in ("and", "or", "imp"):
        left, right = label(frame, f[1], env), label(frame, f[2], env)
        if tag == "and":
            return left & right
        if tag == "or":
            return left | right
        return (states - left) | right
    if tag in ("box", "dia"):
        body = label(frame, f[2], env)
        test = all if tag == "box" else any
        return frozenset(
            s for s in frame.states if test(w in body for w, _ in frame.table[s, f[1]])
        )
    if tag == "at":
        target = env.get(f[1], f[1])
        return states if target in label(frame, f[2], env) else frozenset()
    if tag == "forall":
        var, body = f[1], f[2]
        if var not in _free_vars(body):
            return label(frame, body, env)
        return frozenset.intersection(
            *(label(frame, body, {**env, var: v}) for v in frame.states))
    if tag == "eq":
        left, right = number(frame, f[1], env), number(frame, f[2], env)
        return frozenset(s for s in frame.states if left[s] == right[s])
    raise ValueError(f"unknown formula {f!r}")


def number(frame: Frame, n, env: dict[str, str]) -> dict[str, Fraction]:
    tag = n[0]
    if tag == "rat":
        return {s: n[1] for s in frame.states}
    if tag == "plus":
        left, right = number(frame, n[1], env), number(frame, n[2], env)
        return {s: left[s] + right[s] for s in frame.states}
    if tag == "q":
        body = label(frame, n[2], env)
        return {
            s: sum((p for w, p in frame.table[s, n[1]] if w in body), Fraction(0))
            for s in frame.states
        }
    raise ValueError(f"unknown term {n!r}")


def first_violation(frame: Frame, f) -> str | None:
    """The first state in declaration order where ``f`` fails, or None
    when it holds everywhere."""
    holds = label(frame, f)
    return next((s for s in frame.states if s not in holds), None)


def entailment(frames: list[Frame], theory: list, conclusion) -> str | None:
    """Name of the first frame that satisfies every axiom globally but not
    the conclusion, or None when the entailment holds over the family."""
    for frame in frames:
        if all(first_violation(frame, ax) is None for ax in theory):
            if first_violation(frame, conclusion) is not None:
                return frame.name
    return None


def independence(frame: Frame, a: str, b: str, props: list) -> tuple[str, str] | None:
    """First (state, b-successor) pair, in declaration order, where
    Q[a](prop) differs from its value before b; None if there is none."""
    values = [number(frame, ("q", a, p), {}) for p in props]
    for s in frame.states:
        for q in values:
            for w, _ in frame.table[s, b]:
                if q[w] != q[s]:
                    return s, w
    return None


# ---------- adequacy: distinct denotations of the event enumeration ----------


def event_count(outcomes: tuple[str, ...], depth: int) -> int:
    """Distinct outcome sets reached from the singletons by ``depth``
    rounds of complement, pairwise union and pairwise intersection, each
    round combining only the sets known at its start."""
    universe = frozenset(outcomes)
    sets = {frozenset({o}) for o in outcomes}
    for _ in range(depth):
        current = list(sets)
        sets.update(universe - x for x in current)
        for x in current:
            for y in current:
                sets.add(x | y)
                sets.add(x & y)
    return len(sets)
