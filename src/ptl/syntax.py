"""Types, symbols and the term language.

The type grammar has four base types (bool, obj, num, state) plus arrow and
list constructors. Propositions and actions are plain abbreviations:

    prop   = state -> bool
    action = state -> [state]

Both are canonicalized structurally; no distinct "prop" node is ever stored,
so type equality is ordinary structural equality.

Terms are a simply typed lambda calculus over builtin constants, extended
with a probability node. The modal operators box, dia and dia{p} are
builtin constants like @: each takes an action (and dia{p} a probability)
and maps a proposition to a proposition evaluated at successors. Sugared
binder forms produced by the parser (predicate bounds, list-membership
bounds) are expanded by `desugar` before typechecking or evaluation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import SourceSpan

# The one rule for a name in every input format: formula identifiers, def
# names, model declarations, ground terms, outcomes and CLI arguments.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")

# ---------- types ----------


class Type:
    __slots__ = ()


@dataclass(frozen=True)
class Base(Type):
    kind: str  # one of: bool, obj, num, state

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class Arrow(Type):
    """Function type: src -> dst."""

    src: Type
    dst: Type

    def __str__(self) -> str:
        if self == PROP:
            return "prop"
        if self == ACTION:
            return "action"
        left = f"({self.src})" if isinstance(self.src, Arrow) else str(self.src)
        return f"{left} -> {self.dst}"


@dataclass(frozen=True)
class ListT(Type):
    """List type: [elem]."""

    elem: Type

    def __str__(self) -> str:
        return f"[{self.elem}]"


BOOL = Base("bool")
OBJ = Base("obj")
NUM = Base("num")
STATE = Base("state")
PROP = Arrow(STATE, BOOL)
ACTION = Arrow(STATE, ListT(STATE))

BASE_TYPES = {"bool": BOOL, "obj": OBJ, "num": NUM, "state": STATE,
              "prop": PROP, "action": ACTION}

# Quantifiers can only be evaluated by exhausting the domain of the bound
# variable, so only finitely enumerable base types are admitted.
ENUMERABLE = (BOOL, OBJ, STATE)


def is_atom_signature(ty: Type) -> bool:
    """Atoms are flexible symbols: zero or more obj/num arguments into prop."""
    while isinstance(ty, Arrow) and ty != PROP:
        if ty.src not in (OBJ, NUM):
            return False
        ty = ty.dst
    return ty == PROP


def atom_arg_types(ty: Type) -> tuple[Type, ...]:
    """The argument types of an atom signature, before its prop result."""
    args: list[Type] = []
    while ty != PROP:
        assert isinstance(ty, Arrow)
        args.append(ty.src)
        ty = ty.dst
    return tuple(args)


def action_arity(ty: Type) -> int | None:
    """Number of obj arguments of an action signature, or None if the type
    is not an action signature."""
    n = 0
    while isinstance(ty, Arrow) and ty != ACTION:
        if ty.src != OBJ:
            return None
        ty = ty.dst
        n += 1
    return n if ty == ACTION else None


# ---------- symbols ----------


@dataclass(frozen=True)
class Symbol:
    """A named constant or variable occurrence.

    kind is one of: var (bound variable), free (resolved against a model's
    type environment), logical, rel, arith, list, hybrid, modal, quant.
    Polymorphic builtins carry type None; their instance type is determined
    at each use site.
    """

    name: str
    type: Type | None = None
    kind: str = "free"


TOP = Symbol("true", PROP, "logical")
BOT = Symbol("false", PROP, "logical")
NOT = Symbol("~", Arrow(PROP, PROP), "logical")
AND = Symbol("/\\", Arrow(PROP, Arrow(PROP, PROP)), "logical")
OR = Symbol("\\/", Arrow(PROP, Arrow(PROP, PROP)), "logical")
IMP = Symbol("->", Arrow(PROP, Arrow(PROP, PROP)), "logical")
IFF = Symbol("<->", Arrow(PROP, Arrow(PROP, PROP)), "logical")
EQ = Symbol("=", None, "rel")  # tau -> tau -> prop
LT = Symbol("<", Arrow(NUM, Arrow(NUM, PROP)), "rel")
PLUS = Symbol("+", Arrow(NUM, Arrow(NUM, NUM)), "arith")
TIMES = Symbol("*", Arrow(NUM, Arrow(NUM, NUM)), "arith")
DIV = Symbol("/", Arrow(NUM, Arrow(NUM, NUM)), "arith")
NIL = Symbol("nil", None, "list")  # [tau]
CONS = Symbol("::", None, "list")  # tau -> [tau] -> [tau]
MEMBER = Symbol("in", None, "list")  # tau -> [tau] -> prop
LENGTH = Symbol("|.|", None, "list")  # [tau] -> num
DIFF = Symbol("-", None, "list")  # [tau] -> tau -> [tau]
AT = Symbol("@", Arrow(STATE, Arrow(PROP, PROP)), "hybrid")
IN_STATE = Symbol("in", Arrow(STATE, PROP), "hybrid")
# box: every successor under the action satisfies the body (vacuously true
# when the action is disabled); dia: some successor does; dia{p}: some
# successor reached with exactly probability p does
BOX = Symbol("box", Arrow(ACTION, Arrow(PROP, PROP)), "modal")
DIA = Symbol("dia", Arrow(ACTION, Arrow(PROP, PROP)), "modal")
DIA_P = Symbol("dia{p}", Arrow(ACTION, Arrow(NUM, Arrow(PROP, PROP))), "modal")
FORALL = Symbol("forall", None, "quant")  # (tau -> prop) -> prop
EXISTS = Symbol("exists", None, "quant")

# the operand count of every builtin, keyed by (name, kind)
ARITY = {(s.name, s.kind): n for n, symbols in (
    (0, (TOP, BOT, NIL)),
    (1, (NOT, LENGTH, IN_STATE, FORALL, EXISTS)),
    (2, (AND, OR, IMP, IFF, EQ, LT, PLUS, TIMES, DIV, CONS, MEMBER, DIFF, AT, BOX, DIA)),
    (3, (DIA_P,)),
) for s in symbols}

# precedence levels, loosest first: binders and `lam` (bodies extend right)
# at IFF_PREC, `~`, `@`, `box` and `dia` at PREFIX_PREC, calls at APP_PREC
(IFF_PREC, IMP_PREC, OR_PREC, AND_PREC, PREFIX_PREC, REL_PREC, CONS_PREC,
 DIFF_PREC, ADD_PREC, MUL_PREC, APP_PREC) = range(11)

# each binary operator, as read by the parser and written by the printer:
# (level, lowest level of an unparenthesized left operand, of a right one);
# a slot equal to the level groups on that side, relations on neither
BINARY = {
    IFF: (IFF_PREC, IMP_PREC, IFF_PREC),
    IMP: (IMP_PREC, OR_PREC, IMP_PREC),
    OR: (OR_PREC, AND_PREC, OR_PREC),
    AND: (AND_PREC, PREFIX_PREC, AND_PREC),
    EQ: (REL_PREC, CONS_PREC, CONS_PREC),
    LT: (REL_PREC, CONS_PREC, CONS_PREC),
    MEMBER: (REL_PREC, CONS_PREC, CONS_PREC),
    CONS: (CONS_PREC, ADD_PREC, CONS_PREC),
    DIFF: (DIFF_PREC, DIFF_PREC, ADD_PREC),
    PLUS: (ADD_PREC, ADD_PREC, MUL_PREC),
    TIMES: (MUL_PREC, MUL_PREC, APP_PREC),
    DIV: (MUL_PREC, MUL_PREC, APP_PREC),
}


# ---------- terms ----------


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Sym(Expr):
    symbol: Symbol
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RatLit(Expr):
    """Exact rational literal, kept in lowest terms by Fraction."""

    value: Fraction
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Lam(Expr):
    """Typed abstraction; the binder always carries its type."""

    param: Symbol
    body: Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Q(Expr):
    """The probability operator Q[a1; ...; ak](F1; ...; Fn), type num.

    props has one entry or one per action. The propositions line up with
    the tail of the action word: a single F is tested after the last action
    (at the state itself when k = 0), and in the trace form each Fi must
    hold right after ai. A path is dropped as soon as a test fails."""

    actions: tuple[Expr, ...]
    props: tuple[Expr, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


# Sugared binder forms; only the parser builds these, desugar removes them.


@dataclass(frozen=True)
class PredBinder(Expr):
    """forall x : P . body with P a unary predicate over objects."""

    quant: str  # forall | exists
    var: str
    pred: str
    body: Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MemberBinder(Expr):
    """forall x in L . body with L a list of objects."""

    quant: str
    var: str
    bound: Expr
    body: Expr
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


# ---------- construction helpers ----------


def rat(n: int | Fraction, d: int = 1) -> RatLit:
    return RatLit(Fraction(n, d))


def app(fn: Expr, *args: Expr) -> Expr:
    out = fn
    for a in args:
        out = App(out, a)
    return out


def sym(s: Symbol) -> Sym:
    return Sym(s)


def var(name: str, ty: Type) -> Sym:
    return Sym(Symbol(name, ty, "var"))


def free(name: str) -> Sym:
    return Sym(Symbol(name, None, "free"))


def neg(e: Expr) -> Expr:
    return App(Sym(NOT), e)


def conj(*es: Expr) -> Expr:
    out = es[-1]
    for e in reversed(es[:-1]):
        out = app(Sym(AND), e, out)
    return out


def disj(*es: Expr) -> Expr:
    out = es[-1]
    for e in reversed(es[:-1]):
        out = app(Sym(OR), e, out)
    return out


def imp(a: Expr, b: Expr) -> Expr:
    return app(Sym(IMP), a, b)


def eq(a: Expr, b: Expr) -> Expr:
    return app(Sym(EQ), a, b)


def lt(a: Expr, b: Expr) -> Expr:
    return app(Sym(LT), a, b)


def quant(q: str, name: str, ty: Type, body: Expr) -> Expr:
    head = FORALL if q == "forall" else EXISTS
    return App(Sym(head), Lam(Symbol(name, ty, "var"), body))


def cons_list(items: list[Expr]) -> Expr:
    out: Expr = Sym(NIL)
    for item in reversed(items):
        out = app(Sym(CONS), item, out)
    return out


def spine(e: Expr) -> tuple[Expr, list[Expr]]:
    """Decompose nested applications into head and argument list."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


# ---------- desugaring ----------


def desugar(e: Expr) -> Expr:
    """Expand sugared binders; idempotent on core terms.

    forall x : P . H  becomes  forall x : obj . P(x) -> H
    exists x : P . H  becomes  exists x : obj . P(x) /\\ H
    and the list-membership bounds expand the same way with an `x in L`
    guard. Bound variables introduced by sugar are typed obj.
    """
    match e:
        case Sym() | RatLit():
            return e
        case App(fn, arg):
            return App(desugar(fn), desugar(arg), span=e.span)
        case Lam(param, body):
            return Lam(param, desugar(body), span=e.span)
        case Q(actions, props):
            return Q(
                tuple(desugar(a) for a in actions),
                tuple(desugar(p) for p in props),
                span=e.span,
            )
        case PredBinder(q, x, pred, body):
            guard = App(free(pred), var(x, OBJ))
            return quant(q, x, OBJ, _guarded(q, guard, desugar(body)))
        case MemberBinder(q, x, bound, body):
            guard = app(Sym(MEMBER), var(x, OBJ), desugar(bound))
            return quant(q, x, OBJ, _guarded(q, guard, desugar(body)))
    raise TypeError(f"not an expression: {e!r}")


def _guarded(q: str, guard: Expr, body: Expr) -> Expr:
    if q == "forall":
        return imp(guard, body)
    return conj(guard, body)


# ---------- alpha equivalence ----------


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Expr, b: Expr, la: dict[str, int], lb: dict[str, int], depth: int) -> bool:
    match a, b:
        case Sym(sa), Sym(sb):  # a bound occurrence matches only a bound one
            ia = la.get(sa.name) if sa.kind == "var" else None
            ib = lb.get(sb.name) if sb.kind == "var" else None
            return ia == ib if ia is not None or ib is not None else sa == sb
        case RatLit(va), RatLit(vb):
            return va == vb
        case App(fa, aa), App(fb, ab):
            return _alpha(fa, fb, la, lb, depth) and _alpha(aa, ab, la, lb, depth)
        case Lam(pa, ba), Lam(pb, bb):
            if pa.type != pb.type:
                return False
            return _alpha(
                ba, bb, {**la, pa.name: depth}, {**lb, pb.name: depth}, depth + 1
            )
        case Q(aa, pa), Q(ab, pb):
            return (
                len(aa) == len(ab)
                and len(pa) == len(pb)
                and all(_alpha(x, y, la, lb, depth) for x, y in zip(aa, ab))
                and all(_alpha(x, y, la, lb, depth) for x, y in zip(pa, pb))
            )
        case _:
            return False
