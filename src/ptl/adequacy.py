"""Finite classical probability spaces and their frame translation.

A space is a list of named outcomes with exact rational masses summing
to 1. Outcome names follow the one name rule of every input format,
`syntax.NAME`, so each is also a valid state name, and `.pspace` comments
are those of `parser.strip_comment`.

An event is a propositional formula over outcome names: each outcome is
the free symbol of its name, and events combine with `~`, `/\\` and `\\/`.
`parse_formula` reads event text and `print_formula` writes it. An
outcome named like a keyword (`true`, `nil`, `box`) is still an event,
built with `syntax.free`, but its text does not read back, so a witness
shows such an event as a term (see `evaluator.describe`).

`translate_space` turns a space into a one-step frame: a fresh initial
state with a single `sample` action whose transitions land, with the
outcome's mass, in a state labeled by that outcome's indicator atom.
Outcomes of mass zero get no state; they are unreachable and no formula
needs to mention them. `translate_event` renames an event's outcomes to
their indicator atoms, and `check_adequacy` verifies exact agreement
between event measure and one-step probability across an enumerated
family of events.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .checker import SATISFIED, VIOLATED, CheckReport
from .errors import (
    DuplicateDeclaration,
    ModelError,
    NameClash,
    ParseError,
    ProbabilityRangeError,
    ProbabilitySumError,
    PtlError,
    SourceSpan,
    UnknownOutcome,
)
from .evaluator import describe, eval_q
from .model import (
    Model,
    ModelSpec,
    SymbolDecl,
    TransitionDecl,
    ValuationDecl,
    validate_model,
)
from .parser import parse_rational, strip_comment
from .syntax import ACTION, BOT, NAME, PROP, App, Expr, Sym, Symbol, conj, disj, free, neg, sym
from .values import GroundAction, render_rational

SAMPLE = GroundAction("sample", ())
INITIAL = "init"


@dataclass(frozen=True)
class ProbabilitySpace:
    name: str
    outcomes: tuple[str, ...]
    mass: dict[str, Fraction]

    def __hash__(self):
        return hash((self.name, self.outcomes))


def validate_space(space: ProbabilitySpace) -> None:
    if not space.outcomes:
        raise ModelError(f"space {space.name} has no outcomes")
    seen = set()
    for o in space.outcomes:
        if o in seen:
            raise DuplicateDeclaration(f"outcome '{o}' declared twice")
        seen.add(o)
    for o, m in space.mass.items():
        if o not in seen:
            raise UnknownOutcome(f"mass assigned to undeclared outcome '{o}'")
        if not 0 <= m <= 1:
            raise ProbabilityRangeError.mass(space.name, o, m)
    for o in space.outcomes:
        if o not in space.mass:
            raise ModelError(f"outcome '{o}' has no mass assigned")
    total = sum(space.mass.values())
    if total != 1:
        raise ProbabilitySumError.masses(space.name, total)


# ---------- events as formulas ----------


def denote(space: ProbabilitySpace, event: Expr) -> frozenset[str]:
    """The subset of outcomes an event stands for."""
    match event:
        case Sym(Symbol(name=o, kind="free")):
            if o not in space.outcomes:
                raise UnknownOutcome(f"'{o}' is not an outcome of {space.name}")
            return frozenset({o})
        case App(Sym(Symbol(name="~", kind="logical")), inner):
            return frozenset(space.outcomes) - denote(space, inner)
        case App(App(Sym(Symbol(name="\\/", kind="logical")), left), right):
            return denote(space, left) | denote(space, right)
        case App(App(Sym(Symbol(name="/\\", kind="logical")), left), right):
            return denote(space, left) & denote(space, right)
    raise ModelError(f"unknown event form {event!r}")


def measure(space: ProbabilitySpace, event: Expr) -> Fraction:
    return sum((space.mass[o] for o in denote(space, event)), Fraction(0))


# ---------- space files ----------


def parse_space(text: str, source: str = "<space>") -> ProbabilitySpace:
    """Read the line format::

        space die
        outcomes: one two three
        mass: one 1/2
        mass: two 1/3
        mass: three 1/6
    """
    name: str | None = None
    outcomes: list[str] = []
    mass: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue

        def fail(msg: str):
            return ParseError(f"{source}:{lineno}: {msg}")

        parts = line.split()
        if parts[0] == "space":
            if len(parts) != 2 or name is not None:
                raise fail("expected a single 'space <name>' line")
            name = parts[1]
        elif line.startswith("outcomes:"):
            for o in line[len("outcomes:"):].split():
                if not NAME.fullmatch(o):
                    raise fail(f"outcome '{o}' is not an identifier")
                outcomes.append(o)
        elif line.startswith("mass:"):
            parts = line[len("mass:"):].split()
            if len(parts) != 2:
                raise fail("expected 'mass: <outcome> <rational>'")
            o, m = parts
            if o in mass:
                raise fail(f"mass for '{o}' given twice")
            mass[o] = parse_rational(m, SourceSpan(source, lineno, 1))
        else:
            raise fail(f"unrecognized line '{line}'")
    if name is None:
        raise ParseError(f"{source}: missing 'space <name>' line")
    return ProbabilitySpace(name, tuple(outcomes), mass)


def serialize_space(space: ProbabilitySpace) -> str:
    lines = [f"space {space.name}", "outcomes: " + " ".join(space.outcomes)]
    lines += [
        f"mass: {o} {render_rational(space.mass[o])}" for o in space.outcomes
    ]
    return "\n".join(lines) + "\n"


# ---------- translation ----------


def indicator_name(outcome: str) -> str:
    return f"F_{outcome}"


def support(space: ProbabilitySpace) -> list[str]:
    return [o for o in space.outcomes if space.mass[o] > 0]


def translate_space(space: ProbabilitySpace, name: str | None = None) -> Model:
    """Build the one-step frame of a space. Raises NameClash when outcome
    names collide with the generated state, action or indicator names."""
    validate_space(space)
    positive = support(space)
    reserved = {INITIAL, SAMPLE.head} | {indicator_name(o) for o in positive}
    for o in space.outcomes:
        if o in reserved:
            raise NameClash(
                f"outcome '{o}' collides with a generated name of the translation"
            )
    spec = ModelSpec(
        name=name or space.name,
        symbols=[SymbolDecl(indicator_name(o), PROP) for o in positive],
        states=[INITIAL] + positive,
        initial=INITIAL,
        actions=[SymbolDecl(SAMPLE.head, ACTION)],
        transitions=[
            TransitionDecl(INITIAL, SAMPLE.head, (), o, space.mass[o])
            for o in positive
        ],
        valuation=[ValuationDecl(o, indicator_name(o), ()) for o in positive],
    )
    return validate_model(spec)


def translate_event(space: ProbabilitySpace, event: Expr) -> Expr:
    """The formula that holds exactly at the states of the event's
    positive-mass outcomes. A zero-mass outcome becomes falsum: no state
    carries its indicator, so the measure stays untouched."""
    match event:
        case Sym(Symbol(name=o, kind="free")):
            if o not in space.outcomes:
                raise UnknownOutcome(f"'{o}' is not an outcome of {space.name}")
            if space.mass[o] == 0:
                return sym(BOT)
            return free(indicator_name(o))
        case App(Sym(Symbol(name="~", kind="logical")), inner):
            return neg(translate_event(space, inner))
        case App(App(Sym(Symbol(name="\\/", kind="logical")), left), right):
            return disj(translate_event(space, left), translate_event(space, right))
        case App(App(Sym(Symbol(name="/\\", kind="logical")), left), right):
            return conj(translate_event(space, left), translate_event(space, right))
    raise ModelError(f"unknown event form {event!r}")


def event_probability(space: ProbabilitySpace, event: Expr, model: Model | None = None) -> Fraction:
    """One-step probability of the translated event in the translated frame."""
    if model is None:
        model = translate_space(space)
    return eval_q(model, INITIAL, [SAMPLE], translate_event(space, event))


def enumerate_events(
    space: ProbabilitySpace, depth: int = 2, max_events: int = 512
) -> list[Expr]:
    """Events over the space, one per distinct denotation.

    Starts from the singletons and closes under complement, union and
    intersection for `depth` rounds, building only events whose
    denotation is new. Small spaces reach the full event algebra. Each
    candidate's denotation is combined from the stored denotations of its
    operands, never re-derived through `denote`. Raises PtlError for a
    negative depth or a cap below 1."""
    if depth < 0:
        raise PtlError(f"event depth must be at least 0, got {depth}")
    if max_events < 1:
        raise PtlError(f"max_events must be at least 1, got {max_events}")
    everything = frozenset(space.outcomes)
    events: dict[frozenset[str], Expr] = {}
    for o in space.outcomes:
        events.setdefault(frozenset({o}), free(o))
    for _ in range(depth):
        if len(events) >= max_events:
            break
        current = list(events.items())
        for d, e in current:
            if everything - d not in events:
                events[everything - d] = neg(e)
        for da, a in current:
            if len(events) >= max_events:
                break
            for db, b in current:
                if da | db not in events:
                    events[da | db] = disj(a, b)
                if da & db not in events:
                    events[da & db] = conj(a, b)
    return list(events.values())[:max_events]


def check_adequacy(
    space: ProbabilitySpace, depth: int = 2, max_events: int = 512, model: Model | None = None
) -> CheckReport:
    """Measure each enumerated event both ways and compare exactly, in
    `model`, the space's translation (built here when not given)."""
    if model is None:
        model = translate_space(space)
    checked = 0
    for event in enumerate_events(space, depth, max_events):
        m = measure(space, event)
        q = event_probability(space, event, model)
        checked += 1
        if m != q:
            return CheckReport(
                VIOLATED,
                witness={
                    "event": describe(event),
                    "measure": render_rational(m),
                    "probability": render_rational(q),
                },
                numeric=q,
                details={"events_checked": checked},
            )
    return CheckReport(
        SATISFIED,
        details={
            "events_checked": checked,
            "outcomes": len(space.outcomes),
            "support": len(support(space)),
        },
    )
