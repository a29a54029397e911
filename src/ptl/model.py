"""Finite probabilistic labeled frames and their validation.

A frame is a finite state set with, per state and ground action, a list of
successor states carrying exact rational probabilities that must sum to 1.
A model adds a finite object universe, signatures for uninterpreted symbols,
rigid interpretations for non-boolean constants, and a closed-world
valuation of ground atoms per state: atoms not listed are false.

Models are immutable after validation and safe to share between threads:
the frame's state index is a frozenset built once, and the evaluator keeps
its Q memo per call, never on the model. `validate_model` is a pure
function of the spec; validating the same spec twice yields equal models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DuplicateDeclaration,
    DuplicateTransition,
    ModelError,
    ProbabilityRangeError,
    ProbabilitySumError,
    SourceSpan,
    UnknownAction,
    UnknownObject,
    UnknownState,
)
from .syntax import (
    ACTION,
    NAME,
    NUM,
    OBJ,
    STATE,
    App,
    Arrow,
    Expr,
    ListT,
    RatLit,
    Sym,
    Type,
    action_arity,
    atom_arg_types,
    free,
    is_atom_signature,
    spine,
)
from .typecheck import check_type
from .values import GroundAction, ListV, ObjV, RatV, StateV, Value

AtomArgs = tuple[object, ...]  # object names (str) and numbers (Fraction)


# ---------- parsed, unvalidated form ----------
# a declaration read from a file carries its line; one built in code has none


@dataclass
class SymbolDecl:
    name: str
    type: Type
    definition: Expr | None = None
    line: int | None = field(default=None, compare=False)


@dataclass
class TransitionDecl:
    source: str
    action: str
    args: tuple[str, ...]
    target: str
    prob: Fraction
    line: int | None = field(default=None, compare=False)


@dataclass
class ValuationDecl:
    state: str  # a state name, or "*" for every state
    atom: str
    args: AtomArgs
    line: int | None = field(default=None, compare=False)


@dataclass
class ModelSpec:
    name: str = ""
    symbols: list[SymbolDecl] = field(default_factory=list)
    objects: list[str] = field(default_factory=list)
    states: list[str] = field(default_factory=list)
    initial: str | None = None
    actions: list[SymbolDecl] = field(default_factory=list)
    transitions: list[TransitionDecl] = field(default_factory=list)
    valuation: list[ValuationDecl] = field(default_factory=list)
    source: str = "<model>"


# ---------- validated form ----------


@dataclass(frozen=True)
class Frame:
    """States plus the probabilistic transition structure, not to be
    mutated. `state_index` is the state set, for O(1) membership tests.
    `scale` is (L, mult): L is the lcm of the transition denominators and
    mult[d] = L // d, so an edge weighs the integer rho·L. Past 64 bits it
    is (1, None)."""

    states: tuple[str, ...]
    transitions: dict[tuple[str, GroundAction], tuple[tuple[str, Fraction], ...]] = field(
        default_factory=dict
    )
    state_index: frozenset[str] = field(init=False, compare=False, repr=False)
    scale: tuple[int, dict[int, int] | None] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "state_index", frozenset(self.states))
        denominators = {rho.denominator for succ in self.transitions.values() for _, rho in succ}
        lcm = math.lcm(*denominators)
        scale = (lcm, {d: lcm // d for d in denominators}) if lcm.bit_length() <= 64 else (1, None)
        object.__setattr__(self, "scale", scale)

    def require(self, state: str) -> None:
        """Raise UnknownState unless the state is declared."""
        if state not in self.state_index:
            raise UnknownState(f"unknown state {state}")

    def successors(self, state: str, action: GroundAction) -> tuple[tuple[str, Fraction], ...]:
        self.require(state)
        return self.transitions.get((state, action), ())

    def __hash__(self):
        return hash(self.states)


@dataclass(frozen=True)
class Model:
    name: str
    frame: Frame
    objects: tuple[str, ...]
    initial: str | None
    atoms: dict[str, tuple[Type, ...]]  # atom name -> argument types
    rigid: dict[str, tuple[Type, Value]]
    actions: dict[str, int]  # action name -> obj arity
    valuation: frozenset[tuple[str, str, AtomArgs]]
    # the valuation's atom instances with a numeric argument, in declaration
    # order: their argument types do not enumerate them
    numeric_instances: tuple[tuple[str, AtomArgs], ...] = field(compare=False, repr=False)

    @property
    def states(self) -> tuple[str, ...]:
        return self.frame.states

    def holds(self, state: str, atom: str, args: AtomArgs = ()) -> bool:
        return (state, atom, args) in self.valuation

    def type_env(self) -> dict[str, Type]:
        env: dict[str, Type] = {}
        for name in self.objects:
            env[name] = OBJ
        for name in self.states:
            env[name] = STATE
        for name, (ty, _) in self.rigid.items():
            env[name] = ty
        for name, arg_types in self.atoms.items():
            env[name] = _arrow_chain(arg_types)
        for name, arity in self.actions.items():
            env[name] = _arrow_chain((OBJ,) * arity, ACTION)
        return env

    def ground_atoms(self) -> list[Expr]:
        """The finite formula family used when independence checks get no
        explicit propositions: every ground atom instance of the model."""
        out = [
            _atom_expr(name, combo)
            for name, arg_types in self.atoms.items() if all(ty == OBJ for ty in arg_types)
            for combo in itertools.product(self.objects, repeat=len(arg_types))
        ]
        return out + [_atom_expr(name, args) for name, args in self.numeric_instances]

    def __hash__(self):
        return hash((self.name, self.frame.states))


def _arrow_chain(args: tuple[Type, ...], result: Type = None) -> Type:
    from .syntax import PROP

    ty = PROP if result is None else result
    for a in reversed(args):
        ty = Arrow(a, ty)
    return ty


def _atom_expr(name: str, args: AtomArgs) -> Expr:
    e: Expr = free(name)
    for a in args:
        e = App(e, RatLit(a) if isinstance(a, Fraction) else free(a))
    return e


# ---------- validation ----------

RIGID_DATA = (OBJ, NUM, STATE)


def _is_rigid_data(ty: Type) -> bool:
    if isinstance(ty, ListT):
        return _is_rigid_data(ty.elem)
    return ty in RIGID_DATA


def validate_model(spec: ModelSpec) -> Model:
    """Check every declaration and cross-reference; raises ModelError
    subclasses, never returns a partially valid model. Membership is tested
    against sets, so the cost is linear in the spec; the first error is the
    same as with lists. An error about a line of a file names the line."""
    if not spec.states:
        raise ModelError("a model needs at least one state")
    states, objects = set(spec.states), set(spec.objects)

    def at(decl: SymbolDecl | TransitionDecl | ValuationDecl | None) -> SourceSpan | None:
        return None if decl is None or decl.line is None else SourceSpan(spec.source, decl.line, 1)

    names: dict[str, str] = {}

    def declare(name: str, kind: str, decl: SymbolDecl | None = None) -> None:
        if not NAME.fullmatch(name):
            raise ModelError(f"{kind} name {name!r} is not an identifier", at(decl))
        if name in names:
            raise DuplicateDeclaration(
                f"{kind} '{name}' already declared as {names[name]}", at(decl)
            )
        names[name] = kind

    for s in spec.states:
        declare(s, "state")
    for o in spec.objects:
        declare(o, "object")

    atoms: dict[str, tuple[Type, ...]] = {}
    rigid_decls: list[SymbolDecl] = []
    for decl in spec.symbols:
        declare(decl.name, "symbol", decl)
        if is_atom_signature(decl.type):
            if decl.definition is not None:
                raise ModelError(f"atom '{decl.name}' cannot have a definition", at(decl))
            atoms[decl.name] = atom_arg_types(decl.type)
        elif _is_rigid_data(decl.type):
            if decl.definition is None:
                raise ModelError(f"rigid symbol '{decl.name}' needs a definition", at(decl))
            rigid_decls.append(decl)
        else:
            raise ModelError(
                f"'{decl.name} : {decl.type}' is neither an atom signature "
                "nor first-order data", at(decl)
            )

    actions: dict[str, int] = {}
    for decl in spec.actions:
        declare(decl.name, "action", decl)
        arity = action_arity(decl.type)
        if arity is None:
            raise ModelError(f"'{decl.name} : {decl.type}' is not an action signature", at(decl))
        actions[decl.name] = arity

    if spec.initial is not None and spec.initial not in states:
        raise UnknownState(f"initial state {spec.initial} is not declared")

    rigid: dict[str, tuple[Type, Value]] = {}
    ground_env = {o: OBJ for o in spec.objects} | {s: STATE for s in spec.states}
    for decl in rigid_decls:
        check_type(decl.definition, decl.type, ground_env)
        rigid[decl.name] = (decl.type, _eval_ground(decl.definition, objects, states, at(decl)))

    # one GroundAction per distinct (action, args), checked when first met
    ground: dict[tuple[str, tuple[str, ...]], GroundAction] = {}
    transitions: dict[tuple[str, GroundAction], list[TransitionDecl]] = {}
    seen_edges: set[tuple[str, GroundAction, str]] = set()
    for t in spec.transitions:
        if t.source not in states:
            raise UnknownState(f"transition from unknown state {t.source}", at(t))
        if t.target not in states:
            raise UnknownState(f"transition to unknown state {t.target}", at(t))
        ga = ground.get((t.action, t.args))
        if ga is None:
            if t.action not in actions:
                raise UnknownAction(f"transition under undeclared action {t.action}", at(t))
            if len(t.args) != actions[t.action]:
                raise UnknownAction(
                    f"action {t.action} takes {actions[t.action]} argument(s), "
                    f"got {len(t.args)}", at(t)
                )
            for a in t.args:
                if a not in objects:
                    raise UnknownObject(f"action argument {a} is not a declared object", at(t))
            ga = ground[t.action, t.args] = GroundAction(t.action, t.args)
        # exact, since a Fraction's denominator is positive
        if not 0 < t.prob.numerator <= t.prob.denominator:
            raise ProbabilityRangeError.transition(t.source, str(ga), t.prob, at(t))
        edge = (t.source, ga, t.target)
        if edge in seen_edges:
            raise DuplicateTransition(
                f"duplicate transition {t.source} --{ga}--> {t.target}", at(t)
            )
        seen_edges.add(edge)
        transitions.setdefault((t.source, ga), []).append(t)

    for (state, ga), succ in transitions.items():
        total = sum(t.prob for t in succ)
        if total != 1:
            raise ProbabilitySumError.transitions(state, str(ga), total, at(succ[0]))

    valuation: set[tuple[str, str, AtomArgs]] = set()
    numeric_instances: dict[tuple[str, AtomArgs], None] = {}
    for entry in spec.valuation:
        if entry.state != "*" and entry.state not in states:
            raise UnknownState(f"valuation for unknown state {entry.state}", at(entry))
        if entry.atom not in atoms:
            raise ModelError(f"valuation mentions undeclared atom {entry.atom}", at(entry))
        arg_types = atoms[entry.atom]
        if len(entry.args) != len(arg_types):
            raise ModelError(
                f"atom {entry.atom} takes {len(arg_types)} argument(s), "
                f"got {len(entry.args)}", at(entry)
            )
        for a, ty in zip(entry.args, arg_types):
            if ty == OBJ:
                if not isinstance(a, str) or a not in objects:
                    raise UnknownObject(f"atom argument {a} is not a declared object", at(entry))
            elif not isinstance(a, Fraction):
                raise ModelError(f"atom argument {a} should be a number", at(entry))
        args = tuple(entry.args)
        targets = spec.states if entry.state == "*" else [entry.state]
        for s in targets:
            valuation.add((s, entry.atom, args))
        if any(isinstance(a, Fraction) for a in args):
            numeric_instances[entry.atom, args] = None

    frame = Frame(
        states=tuple(spec.states),
        transitions={k: tuple((t.target, t.prob) for t in v) for k, v in transitions.items()},
    )
    return Model(
        name=spec.name or "model",
        frame=frame,
        objects=tuple(spec.objects),
        initial=spec.initial,
        atoms=atoms,
        rigid=rigid,
        actions=actions,
        valuation=frozenset(valuation),
        numeric_instances=tuple(numeric_instances),
    )


def _eval_ground(term: Expr, objects: set[str], states: set[str], span: SourceSpan | None) -> Value:
    """Interpret a rigid definition: object and state constants, rational
    literals, and list constructors only."""
    match term:
        case RatLit(v):
            return RatV(v)
        case Sym(s) if s.kind == "free":
            if s.name in objects:
                return ObjV(s.name)
            if s.name in states:
                return StateV(s.name)
            raise UnknownObject(f"'{s.name}' in a rigid definition is not declared", span)
        case Sym(s) if s.kind == "list" and s.name == "nil":
            return ListV(())
        case App():
            head, args = spine(term)
            if (
                isinstance(head, Sym)
                and head.symbol.kind == "list"
                and head.symbol.name == "::"
                and len(args) == 2
            ):
                item = _eval_ground(args[0], objects, states, span)
                rest = _eval_ground(args[1], objects, states, span)
                assert isinstance(rest, ListV)
                return ListV((item,) + rest.items)
    raise ModelError("rigid definitions may only use constants, nil and ::", span)


def successors(
    model: Model, state: str, action: GroundAction
) -> tuple[tuple[str, Fraction], ...]:
    """Successor states with probabilities, in declaration order; empty
    when the action is disabled at the state."""
    if action.head not in model.actions:
        raise UnknownAction(f"unknown action {action.head}")
    return model.frame.successors(state, action)


def serialize_model(model: Model) -> str:
    """Canonical .ptlm text; parse(serialize(m)) validates to a model equal
    to m."""
    from .values import render_rational, render_value

    lines: list[str] = [f"model {model.name}", ""]
    if model.atoms or model.rigid:
        lines.append("types")
        for name, arg_types in model.atoms.items():
            sig = " -> ".join([str(t) for t in arg_types] + ["prop"])
            lines.append(f"  {name} : {sig}")
        for name, (ty, value) in model.rigid.items():
            lines.append(f"  {name} : {ty} = {render_value(value)}")
        lines.append("")
    if model.objects:
        lines.append("objects " + " ".join(model.objects))
        lines.append("")
    lines.append("states " + " ".join(model.states))
    if model.initial is not None:
        lines.append(f"initial {model.initial}")
    lines.append("")
    if model.actions:
        lines.append("actions")
        for name, arity in model.actions.items():
            sig = " -> ".join(["obj"] * arity + ["action"])
            lines.append(f"  {name} : {sig}")
        lines.append("")
    if model.frame.transitions:
        lines.append("transitions")
        for (state, ga), succ in model.frame.transitions.items():
            for target, prob in succ:
                lines.append(
                    f"  {state} --{ga}--> {target} @ {render_rational(prob)}"
                )
        lines.append("")
    # declared state order, then declared atom order, then arguments
    state_order = {name: i for i, name in enumerate(model.states)}
    atom_order = {name: i for i, name in enumerate(model.atoms)}
    entries = sorted(model.valuation, key=lambda entry: (
        state_order[entry[0]], atom_order[entry[1]], tuple(str(a) for a in entry[2])
    ))
    if entries:
        lines.append("valuation")
        for state, atom, args in entries:
            rendered = [
                render_rational(a) if isinstance(a, Fraction) else str(a) for a in args
            ]
            call = atom if not args else f"{atom}({', '.join(rendered)})"
            lines.append(f"  {state} : {call}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
