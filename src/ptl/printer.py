"""Pretty printer; inverse of the parser on parseable terms.

print_formula(parse(text)) reparses to an alpha-equal term, and rationals
survive the round trip bit-exactly (1/2 prints as 1/2, never 0.5). Terms
that the surface grammar cannot express raise ValueError rather than
printing something that would not reparse: a quantifier over a non-lambda,
a negative literal, an untyped binder, a `Q` without a proposition, a
predicate bound named like a type, a name the parser would not read as
one, a variable outside its binder or a free name a binder would capture.
Operators are written by the parser's table, `syntax.BINARY`.
"""

from __future__ import annotations

from .parser import KEYWORDS
from .syntax import (
    APP_PREC,
    ARITY,
    BASE_TYPES,
    BINARY,
    CONS_PREC,
    IFF_PREC,
    MUL_PREC,
    NAME,
    PREFIX_PREC,
    App,
    Expr,
    Lam,
    MemberBinder,
    PredBinder,
    Q,
    RatLit,
    Sym,
    Symbol,
    app,
    spine,
)
from .values import render_rational


def print_formula(e: Expr, bound: frozenset[str] = frozenset()) -> str:
    """e as text; bound names the variables bound outside e, such as the
    instantiations of a witness trail."""
    return _print(e, IFF_PREC, bound)


def _print(e: Expr, level: int, bound: frozenset[str]) -> str:
    text, my_level = _render(e, bound)
    if my_level < level:
        return f"({text})"
    return text


def _render(e: Expr, bound: frozenset[str]) -> tuple[str, int]:
    match e:
        case RatLit(v):  # `p/q` reads as a division, so it binds like one
            if v < 0:
                raise ValueError(f"negative literal {v} is not printable")
            return render_rational(v), APP_PREC if v.denominator == 1 else MUL_PREC
        case Sym(s):
            if s.kind in ("var", "free"):
                return _occurrence(s, bound), APP_PREC
            if ARITY.get((s.name, s.kind)) == 0:  # true, false, nil
                return s.name, APP_PREC
            raise ValueError(f"builtin '{s.name}' is not printable unapplied")
        case Lam(param, body):
            body_text = _print(body, IFF_PREC, bound | {param.name})
            return f"lam {_binder(param)} . {body_text}", IFF_PREC
        case Q(actions, props):
            if not props:
                raise ValueError("Q without a proposition is not printable")
            inner_a = "; ".join(_print(a, IFF_PREC, bound) for a in actions)
            inner_p = "; ".join(_print(p, IFF_PREC, bound) for p in props)
            return f"Q[{inner_a}]({inner_p})", APP_PREC
        case PredBinder(q, x, pred, body):
            if pred in BASE_TYPES:  # would read back as a typed binder
                raise ValueError(f"predicate bound '{pred}' is a type name")
            body_text = _print(body, IFF_PREC, bound | {x})
            return f"{q} {_name(x)} : {_name(pred)} . {body_text}", IFF_PREC
        case MemberBinder(q, x, members, body):
            body_text = _print(body, IFF_PREC, bound | {x})
            return f"{q} {_name(x)} in {_print(members, CONS_PREC, bound)} . {body_text}", IFF_PREC
        case App():
            return _render_app(e, bound)
    raise ValueError(f"unprintable term {e!r}")


def _name(name: str) -> str:
    """A variable, free or bound name, if the parser reads it back as one."""
    if name in KEYWORDS or not NAME.fullmatch(name):
        raise ValueError(f"name {name!r} is not printable")
    return name


def _occurrence(s: Symbol, bound: frozenset[str]) -> str:
    """A variable's name under a binder of that name, a free one under none."""
    if (s.kind == "var") != (s.name in bound):
        raise ValueError(f"'{s.name}' would not read back as a {s.kind} name")
    return _name(s.name)


def _binder(param: Symbol) -> str:
    """`x : type` for a typed binder; an untyped one has no surface form."""
    if param.type is None:
        raise ValueError(f"binder '{param.name}' has no type")
    return f"{_name(param.name)} : {param.type}"


def _render_app(e: App, bound: frozenset[str]) -> tuple[str, int]:
    head, args = spine(e)
    n = ARITY.get((head.symbol.name, head.symbol.kind)) if isinstance(head, Sym) else None
    if n is not None and len(args) > n:  # a builtin applied further prints as a call
        head, args = app(head, *args[:n]), args[n:]
    if isinstance(head, Sym):
        s = head.symbol
        if s.kind == "quant" and len(args) == 1:
            if not isinstance(args[0], Lam):
                raise ValueError(f"{s.name} applied to a non-lambda is not printable")
            lam = args[0]
            body_text = _print(lam.body, IFF_PREC, bound | {lam.param.name})
            return f"{s.name} {_binder(lam.param)} . {body_text}", IFF_PREC
        if s.kind == "hybrid" and s.name == "@" and len(args) == 2:
            state = args[0]
            if not (isinstance(state, Sym) and state.symbol.kind in ("var", "free")):
                raise ValueError("@ takes a state name in surface syntax")
            body_text = _print(args[1], PREFIX_PREC, bound)
            return f"@{_occurrence(state.symbol, bound)} {body_text}", PREFIX_PREC
        if s.kind == "modal" and len(args) == n:
            action, *prob, body = args  # dia{p} has a probability
            keyword = "box" if s.name == "box" else "dia"
            ann = "".join(f"{{{_print(p, IFF_PREC, bound)}}}" for p in prob)
            body_text = _print(body, PREFIX_PREC, bound)
            return f"{keyword}[{_print(action, IFF_PREC, bound)}]{ann} {body_text}", PREFIX_PREC
        if s.kind == "hybrid" and s.name == "in" and len(args) == 1:
            return f"in({_print(args[0], IFF_PREC, bound)})", APP_PREC
        if s.kind == "logical" and s.name == "~" and len(args) == 1:
            return f"~ {_print(args[0], PREFIX_PREC, bound)}", PREFIX_PREC
        if s.kind == "list" and s.name == "|.|" and len(args) == 1:
            return f"|{_print(args[0], IFF_PREC, bound)}|", APP_PREC
        slots = BINARY.get(s)
        if slots is not None:
            if len(args) == 2:
                level, left, right = slots
                lhs, rhs = _print(args[0], left, bound), _print(args[1], right, bound)
                return f"{lhs} {s.name} {rhs}", level
            raise ValueError(f"builtin '{s.name}' printed with {len(args)} arguments")
    # plain application: f(a, b, ...) call syntax
    if isinstance(head, Sym) and head.symbol.kind in ("var", "free"):
        fn_text = _occurrence(head.symbol, bound)
    else:
        fn_text = f"({_print(head, IFF_PREC, bound)})"
    rendered = ", ".join(_print(a, IFF_PREC, bound) for a in args)
    return f"{fn_text}({rendered})", APP_PREC
