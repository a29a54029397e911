"""Bidirectional type inference for core terms.

`infer_type(expr, env)` returns the type of a desugared expression, where
env maps free identifiers (a model's declared symbols, usually) to types.
Polymorphic builtins (equality, list operations, quantifiers) get their
instance types from their arguments, so no unification variables are
needed; the one genuinely underdetermined term, a bare `nil`, is resolved
in checking position.
"""

from __future__ import annotations

from .errors import LengthMismatch, TypeMismatch, UnboundSymbol, UnenumerableQuantifier
from .syntax import (
    ACTION,
    ARITY,
    ENUMERABLE,
    NUM,
    PROP,
    App,
    Arrow,
    Base,
    Expr,
    Lam,
    ListT,
    NIL,
    Q,
    RatLit,
    Sym,
    Type,
    spine,
)

TypeEnv = dict[str, Type]

# prop and action are arrows from state, but their terms evaluate to a truth
# value or an action at the current state: no lambda has one of these types,
# no term of them is applied, and they compare like base types
READ_AT_STATE = (PROP, ACTION)


def infer_type(expr: Expr, env: TypeEnv) -> Type:
    match expr:
        case RatLit():
            return NUM
        case Sym(s):
            if s.kind == "var":
                # binders put their parameter into env; the stamped type
                # only backs up variables checked in isolation
                if s.name in env:
                    return env[s.name]
                if s.type is None:
                    raise TypeMismatch("typed variable", f"untyped '{s.name}'", expr.span)
                return s.type
            if s.kind == "free":
                if s.name not in env:
                    raise UnboundSymbol(s.name, expr.span)
                return env[s.name]
            if s.type is not None:
                return s.type
            # polymorphic builtin with no argument to fix its instance
            raise TypeMismatch(
                "applied occurrence", f"bare builtin '{s.name}'", expr.span
            )
        case Lam(param, body):
            if param.type is None:
                raise TypeMismatch("typed binder", f"'{param.name}'", expr.span)
            inner = dict(env)
            inner[param.name] = param.type
            ty = Arrow(param.type, infer_type(body, inner))
            if ty in READ_AT_STATE:
                raise TypeMismatch("function", f"lambda of type {ty}", expr.span)
            return ty
        case App():
            return _infer_app(expr, env)
        case Q(actions, props):
            if len(props) not in (1, len(actions)):
                raise LengthMismatch(
                    f"trace probability with {len(actions)} actions "
                    f"but {len(props)} propositions",
                    expr.span,
                )
            for a in actions:
                check_type(a, ACTION, env)
            for p in props:
                check_type(p, PROP, env)
            return NUM
    raise TypeMismatch("core expression", type(expr).__name__, getattr(expr, "span", None))


def check_type(expr: Expr, expected: Type, env: TypeEnv) -> None:
    # nil and unannotated lambdas cannot be inferred in isolation
    match expr, expected:
        case Sym(s), ListT():
            if s.kind == "list" and s.name == "nil":
                return
        case Lam(param, body), Arrow(src, dst) if expected not in READ_AT_STATE:
            if param.type is not None and param.type != src:
                raise TypeMismatch(str(src), str(param.type), expr.span)
            inner = dict(env)
            inner[param.name] = src
            check_type(body, dst, inner)
            return
    found = infer_type(expr, env)
    if found != expected:
        raise TypeMismatch(str(expected), str(found), getattr(expr, "span", None))


def _infer_app(expr: Expr, env: TypeEnv) -> Type:
    head, args = spine(expr)
    if isinstance(head, Sym) and head.symbol.kind not in ("var", "free"):
        return _infer_builtin(expr, head, args, env)
    fn_type = infer_type(expr.fn, env)
    if not isinstance(fn_type, Arrow) or fn_type in READ_AT_STATE:
        raise TypeMismatch("function", str(fn_type), expr.span)
    check_type(expr.arg, fn_type.src, env)
    return fn_type.dst


def _infer_builtin(expr: Expr, head: Sym, args: list[Expr], env: TypeEnv) -> Type:
    s = head.symbol
    if s.type is not None:
        # monomorphic: peel the arrow one argument at a time
        ty: Type = s.type
        for a in args:
            if not isinstance(ty, Arrow) or ty in READ_AT_STATE:
                raise TypeMismatch("function", str(ty), expr.span)
            check_type(a, ty.src, env)
            ty = ty.dst
        return ty

    name, span = s.name, expr.span
    count = ARITY.get((name, s.kind))
    if count is not None and len(args) != count:
        operands = ("no operands", "one operand", "two operands")[count]
        raise TypeMismatch(operands, f"{len(args)} for '{name}'", span)
    if name == "=":
        # a bare nil on the left takes its instance from the right
        first, second = args[::-1] if args[0] == Sym(NIL) else args
        ty = infer_type(first, env)
        check_type(second, ty, env)
        _compared(ty, name, span)
        return PROP
    if name == "::":
        elem = infer_type(args[0], env)
        check_type(args[1], ListT(elem), env)
        return ListT(elem)
    if name == "in" and s.kind == "list":
        elem = infer_type(args[0], env)
        check_type(args[1], ListT(elem), env)
        _compared(elem, name, span)
        return PROP
    if name == "|.|":
        ty = infer_type(args[0], env)
        if not isinstance(ty, ListT):
            raise TypeMismatch("list", str(ty), span)
        return NUM
    if name == "-":
        ty = infer_type(args[0], env)
        if not isinstance(ty, ListT):
            raise TypeMismatch("list", str(ty), span)
        check_type(args[1], ty.elem, env)
        _compared(ty.elem, name, span)
        return ty
    if name in ("forall", "exists"):
        fn_type = infer_type(args[0], env)
        if not (isinstance(fn_type, Arrow) and fn_type.dst == PROP):
            raise TypeMismatch("predicate", str(fn_type), span)
        if not isinstance(args[0], Lam):  # the evaluator enumerates a lambda's binder
            raise TypeMismatch("lambda", f"{fn_type} for '{name}'", span)
        if fn_type.src not in ENUMERABLE:
            raise UnenumerableQuantifier(
                f"cannot quantify over {fn_type.src}; "
                "only bool, obj and state have enumerable domains",
                span,
            )
        return PROP
    raise TypeMismatch("known builtin", name, span)


def _compared(ty: Type, name: str, span) -> None:
    """`=`, `in` and `-` compare values, and only base types, prop, action
    and lists of these have values that compare."""
    elem = ty
    while isinstance(elem, ListT):
        elem = elem.elem
    if not (isinstance(elem, Base) or elem in READ_AT_STATE):
        raise TypeMismatch("first-order operands", f"{ty} for '{name}'", span)
