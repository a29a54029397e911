"""Pretty printer; inverse of the parser on parseable terms.

print_formula(parse(text)) reparses to an alpha-equal term, and rationals
survive the round trip bit-exactly (1/2 prints as 1/2, never 0.5). Terms
that the surface grammar cannot express, such as a quantifier applied to
something other than a lambda, raise ValueError rather than printing
something that would not reparse.
"""

from __future__ import annotations

from .syntax import (
    ARITY,
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

# precedence levels, loosest first; binders live at IFF (they extend right)
IFF, IMP, OR, AND, PREFIX, REL, CONS, ADD, MUL, APP = range(10)

_BINARY = {
    "<->": (IFF, IFF + 1, IFF),  # level, left slot, right slot (right-assoc)
    "->": (IMP, IMP + 1, IMP),
    "\\/": (OR, OR + 1, OR),
    "/\\": (AND, AND + 1, AND),
    "=": (REL, CONS, CONS),
    "<": (REL, CONS, CONS),
    "::": (CONS, ADD, CONS),
    # the parser only reaches a list difference with add-level operands, so
    # a cons or another difference on the left must be parenthesized
    "-": (CONS, ADD, ADD),
    "+": (ADD, ADD, MUL),
    "*": (MUL, MUL, APP),
    "/": (MUL, MUL, APP),
}


def print_formula(e: Expr) -> str:
    return _print(e, IFF)


def _print(e: Expr, level: int) -> str:
    text, my_level = _render(e)
    if my_level < level:
        return f"({text})"
    return text


def _render(e: Expr) -> tuple[str, int]:
    match e:
        case RatLit(v):  # `p/q` reads as a division, so it binds like one
            return render_rational(v), APP if v.denominator == 1 else MUL
        case Sym(s):
            if s.kind == "list" and s.name == "nil":
                return "nil", APP
            if s.kind == "logical" and s.name in ("true", "false"):
                return s.name, APP
            if s.kind in ("var", "free"):
                return s.name, APP
            raise ValueError(f"builtin '{s.name}' is not printable unapplied")
        case Lam(param, body):
            return f"lam {param.name} : {param.type} . {_print(body, IFF)}", IFF
        case Q(actions, props):
            inner_a = "; ".join(_print(a, IFF) for a in actions)
            inner_p = "; ".join(_print(p, IFF) for p in props)
            return f"Q[{inner_a}]({inner_p})", APP
        case PredBinder(q, x, pred, body):
            return f"{q} {x} : {pred} . {_print(body, IFF)}", IFF
        case MemberBinder(q, x, bound, body):
            return f"{q} {x} in {_print(bound, CONS)} . {_print(body, IFF)}", IFF
        case App():
            return _render_app(e)
    raise ValueError(f"unprintable term {e!r}")


def _render_app(e: App) -> tuple[str, int]:
    head, args = spine(e)
    n = ARITY.get((head.symbol.name, head.symbol.kind)) if isinstance(head, Sym) else None
    if n is not None and len(args) > n:  # a builtin applied further prints as a call
        head, args = app(head, *args[:n]), args[n:]
    if isinstance(head, Sym):
        s = head.symbol
        if s.kind in ("quant",) and len(args) == 1:
            return _render_quant(s, args[0])
        if s.kind == "hybrid" and s.name == "@" and len(args) == 2:
            state = args[0]
            if not (isinstance(state, Sym) and state.symbol.kind in ("var", "free")):
                raise ValueError("@ takes a state name in surface syntax")
            return f"@{state.symbol.name} {_print(args[1], PREFIX)}", PREFIX
        if s.kind == "modal" and len(args) == n:
            action, *prob, body = args  # dia{p} has a probability
            keyword = "box" if s.name == "box" else "dia"
            ann = "".join(f"{{{_print(p, IFF)}}}" for p in prob)
            return f"{keyword}[{_print(action, IFF)}]{ann} {_print(body, PREFIX)}", PREFIX
        if s.kind == "hybrid" and s.name == "in" and len(args) == 1:
            return f"in({_print(args[0], IFF)})", APP
        if s.kind == "logical" and s.name == "~" and len(args) == 1:
            return f"~ {_print(args[0], PREFIX)}", PREFIX
        if s.kind == "list" and s.name == "|.|" and len(args) == 1:
            return f"|{_print(args[0], IFF)}|", APP
        if s.kind == "list" and s.name == "in" and len(args) == 2:
            left = _print(args[0], CONS)
            right = _print(args[1], CONS)
            return f"{left} in {right}", REL
        if s.name in _BINARY and s.kind in ("logical", "rel", "arith", "list"):
            if len(args) == 2:
                level, lslot, rslot = _BINARY[s.name]
                return (
                    f"{_print(args[0], lslot)} {s.name} {_print(args[1], rslot)}",
                    level,
                )
            raise ValueError(f"builtin '{s.name}' printed with {len(args)} arguments")
    # plain application: f(a, b, ...) call syntax
    if isinstance(head, Sym) and head.symbol.kind in ("var", "free"):
        fn_text = head.symbol.name
    else:
        fn_text = f"({_print(head, IFF)})"
    rendered = ", ".join(_print(a, IFF) for a in args)
    return f"{fn_text}({rendered})", APP


def _render_quant(s: Symbol, arg: Expr) -> tuple[str, int]:
    if not isinstance(arg, Lam):
        raise ValueError(f"{s.name} applied to a non-lambda is not printable")
    return (
        f"{s.name} {arg.param.name} : {arg.param.type} . {_print(arg.body, IFF)}",
        IFF,
    )
