"""Evaluation of well-typed terms against a model and a current state.

Everything is interpreted at the current state: flexible symbols (atoms and
the probability operator) consult it, rigid symbols ignore it, and the modal
nodes plus @ shift it for their bodies. Lambdas capture the state where they
are interpreted, so a function value keeps denoting the same function even
if it flows across a modality.

The probability operator and @ are intensional: their proposition argument
is re-evaluated at other states. Q is its own node; @ is a special form on
the application spine and must be fully applied. All arithmetic is exact;
no floats anywhere.

Connectives evaluate both operands and quantifiers every instance (no
short-circuiting): a disabled action inside a probability query is a
modeling mistake and should surface as a DisabledAction error, not be
masked by operand order or by the order of a quantifier's domain.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    DisabledAction,
    DivisionByZero,
    EvalError,
    LengthMismatch,
    UnboundVariable,
    UnenumerableQuantifier,
)
from .printer import print_formula
from .syntax import (
    BOOL,
    OBJ,
    STATE,
    App,
    Box,
    Diamond,
    DiamondAnn,
    Expr,
    Lam,
    Q,
    RatLit,
    Sym,
    Symbol,
    Type,
)
from .values import (
    FALSE,
    TRUE,
    ActionV,
    BoolV,
    ClosureV,
    GroundAction,
    ListV,
    NativeV,
    ObjV,
    RatV,
    StateV,
    Value,
    atom_arg_key,
    render_value,
    values_equal,
)
from .model import Model

Env = dict[str, Value]


def evaluate(model: Model, state: str, expr: Expr, env: Env | None = None) -> Value:
    """Interpret a desugared, well-typed expression at a state."""
    model.frame.require(state)
    return _eval(model, state, expr, env or {})


def _eval(model: Model, state: str, expr: Expr, env: Env) -> Value:
    match expr:
        case RatLit(v):
            return RatV(v)
        case Sym(s):
            return _symbol_value(model, state, s, env, expr)
        case Lam(param, body):
            return ClosureV(param, body, dict(env), state)
        case Box(action_e, body):
            ga = _ground_action(model, state, action_e, env)
            succ = model.frame.successors(state, ga)
            return BoolV(all(_truth(model, w, body, env) for w, _ in succ))
        case Diamond(action_e, body):
            ga = _ground_action(model, state, action_e, env)
            succ = model.frame.successors(state, ga)
            return BoolV(any(_truth(model, w, body, env) for w, _ in succ))
        case DiamondAnn(action_e, prob_e, body):
            ga = _ground_action(model, state, action_e, env)
            p = _rational(model, state, prob_e, env)
            succ = model.frame.successors(state, ga)
            return BoolV(
                any(rho == p and _truth(model, w, body, env) for w, rho in succ)
            )
        case Q(actions, props):
            return RatV(_q(model, state, actions, props, env))
        case App():
            return _apply_expr(model, state, expr, env)
    raise EvalError(f"cannot evaluate {type(expr).__name__}; desugar first")


def state_independent(model: Model, expr: Expr) -> bool:
    """True when `_eval` gives expr the same value, or raises the same
    error, at every state. Only atoms, `in`, the modal nodes and Q read
    the current state; `@` moves its body to a state of its own, closures
    run at their captured state, and quantifier domains and rigid values
    are plain data. A sufficient test, not a complete one."""
    match expr:
        case RatLit():
            return True
        case Sym(s):
            return not (
                (s.kind == "free" and s.name in model.atoms)
                or (s.kind == "hybrid" and s.name == "in")
            )
        case App(App(Sym(Symbol("@", _, "hybrid")), state_e), _):
            return state_independent(model, state_e)
        case App(fn, arg):
            return state_independent(model, fn) and state_independent(model, arg)
        case Lam(_, body):
            return state_independent(model, body)
    return False  # Box, Diamond, DiamondAnn, Q, and undesugared nodes


def _apply_expr(model: Model, state: str, expr: App, env: Env) -> Value:
    # intensional special forms first: their proposition argument is
    # evaluated at other states, not here
    match expr:
        case App(App(Sym(Symbol("@", _, "hybrid")), state_e), body):
            v = _eval(model, state, state_e, env)
            if not isinstance(v, StateV):
                raise EvalError(f"@ needs a state, got {render_value(v)}")
            model.frame.require(v.name)
            return _eval(model, v.name, body, env)
        case App(Sym(Symbol("@", _, "hybrid")), _):
            raise EvalError("'@' must be fully applied")
    fn = _eval(model, state, expr.fn, env)
    arg = _eval(model, state, expr.arg, env)
    return apply_value(model, fn, arg)


def apply_value(model: Model, fn: Value, arg: Value) -> Value:
    match fn:
        case ClosureV(param, body, cenv, cstate):
            inner = dict(cenv)
            inner[param.name] = arg
            return _eval(model, cstate, body, inner)
        case NativeV(f):
            return f(arg)
    raise EvalError(f"{render_value(fn)} is not a function")


def _truth(model: Model, state: str, expr: Expr, env: Env) -> bool:
    v = _eval(model, state, expr, env)
    if not isinstance(v, BoolV):
        raise EvalError(f"expected a truth value, got {render_value(v)}")
    return v.value


def _rational(model: Model, state: str, expr: Expr, env: Env) -> Fraction:
    v = _eval(model, state, expr, env)
    if not isinstance(v, RatV):
        raise EvalError(f"expected a number, got {render_value(v)}")
    return v.value


def eval_arith(model: Model, state: str, expr: Expr, env: Env | None = None) -> Fraction:
    """Evaluate a numeric expression (arithmetic over probability queries
    included) to an exact rational."""
    model.frame.require(state)
    return _rational(model, state, expr, env or {})


# ---------- the probability operator ----------


def eval_q(
    model: Model,
    state: str,
    actions: list[GroundAction],
    prop: Expr,
    env: Env | None = None,
) -> Fraction:
    """Probability that prop holds after executing the actions in order.

    Empty action list: a 1/0 indicator of prop at the state. An action with
    no transitions at the state it is taken from raises DisabledAction;
    silently treating it as probability 0 would mask modeling mistakes.
    """
    model.frame.require(state)
    return _q(model, state, actions, (prop,), env)


def eval_q_trace(
    model: Model,
    state: str,
    actions: list[Expr | GroundAction],
    props: list[Expr],
    env: Env | None = None,
) -> Fraction:
    """Trace probability: the chance that each proposition holds right
    after its own action. Base case: the empty trace has probability 1."""
    model.frame.require(state)
    return _q(model, state, actions, props, env, trace=True)


def _q(
    model: Model,
    state: str,
    actions: Sequence[Expr | GroundAction],
    props: Sequence[Expr],
    env: Env | None,
    trace: bool = False,
) -> Fraction:
    """The one Q kernel. The value of a cell (w, i), the mass of the rest
    of the word from state w after i actions, depends on nothing else, so
    each cell is computed once and memoised for this call: a k-step query
    costs O(k·|E|), not one walk per path. The walk is depth-first in
    declaration order on an explicit stack, so it meets the first error a
    path-by-path walk would meet and has no horizon limit.

    Each action is grounded at the state where it is taken, and the
    propositions are tested where `syntax.Q` lines them up, so prop j is
    tested after `first + j` actions; a failing test drops the cell before
    its successors are looked up. `trace` demands one proposition per
    action."""
    if len(props) != len(actions) and (trace or len(props) != 1):
        raise LengthMismatch(
            f"{len(actions)} actions but {len(props)} propositions"
        )
    env = env or {}
    k = len(actions)
    first = k + 1 - len(props)
    successors = model.frame.successors

    def open_cell(w: str, i: int) -> int | Sequence[tuple[str, Fraction]]:
        """The 0/1 value of a cell that needs no successors, else its
        successors."""
        if i >= first and not _truth(model, w, props[i - first], env):
            return 0
        if i == k:
            return 1
        act = actions[i]
        ga = act if isinstance(act, GroundAction) else _ground_action(model, w, act, env)
        succ = successors(w, ga)
        if not succ:
            raise DisabledAction(w, ga)
        return succ

    root = open_cell(state, 0)
    if isinstance(root, int):
        return Fraction(root)
    memo: dict[tuple[str, int], Fraction | int] = {}
    # one frame per open cell: [state, step, successors, next successor, mass so far]
    stack = [[state, 0, root, 0, 0]]
    while stack:
        top = stack[-1]
        w, i, succ, j, total = top
        n = i + 1
        while j < len(succ):
            v, rho = succ[j]
            p = memo.get((v, n))
            if p is None:
                p = open_cell(v, n)
                if not isinstance(p, int):  # walk it, then come back to read it
                    top[3], top[4] = j, total
                    stack.append([v, n, p, 0, 0])
                    break
                memo[v, n] = p
            if p:  # dropped paths cost no rational arithmetic
                total += rho * p
            j += 1
        else:
            stack.pop()
            memo[w, i] = total
    return Fraction(memo[state, 0])


def _ground_action(model: Model, state: str, expr: Expr, env: Env) -> GroundAction:
    v = _eval(model, state, expr, env)
    if not isinstance(v, ActionV):
        raise EvalError(f"expected an action, got {render_value(v)}")
    return v.action


# ---------- symbol denotations ----------


def _symbol_value(model: Model, state: str, s: Symbol, env: Env, expr: Expr) -> Value:
    if s.kind == "var":
        if s.name not in env:
            raise UnboundVariable(f"variable '{s.name}' is not bound", expr.span)
        return env[s.name]
    if s.kind == "free":
        return _free_value(model, state, s.name, env, expr)
    return _builtin_value(model, state, s, expr)


def _free_value(model: Model, state: str, name: str, env: Env, expr: Expr) -> Value:
    if name in env:  # parser resolves scopes, but envs from callers win
        return env[name]
    if name in model.atoms:
        arg_types = model.atoms[name]
        if not arg_types:
            return BoolV(model.holds(state, name))
        return _curry(
            len(arg_types),
            lambda args: BoolV(
                model.holds(state, name, tuple(atom_arg_key(a) for a in args))
            ),
        )
    if name in model.actions:
        arity = model.actions[name]
        if arity == 0:
            return ActionV(GroundAction(name))
        return _curry(arity, lambda args: ActionV(
            GroundAction(name, tuple(_object_name(a) for a in args))
        ))
    if name in model.rigid:
        return model.rigid[name][1]
    if name in model.objects:
        return ObjV(name)
    if name in model.states:
        return StateV(name)
    raise UnboundVariable(f"'{name}' has no interpretation in model {model.name}", expr.span)


def _object_name(v: Value) -> str:
    if not isinstance(v, ObjV):
        raise EvalError(f"action arguments must be objects, got {render_value(v)}")
    return v.name


def _curry(arity: int, fin, collected: tuple[Value, ...] = ()) -> Value:
    def step(v: Value) -> Value:
        args = collected + (v,)
        if len(args) == arity:
            return fin(args)
        return _curry(arity, fin, args)

    return NativeV(step)


def _builtin_value(model: Model, state: str, s: Symbol, expr: Expr) -> Value:
    match (s.name, s.kind):
        case ("true", "logical"):
            return TRUE
        case ("false", "logical"):
            return FALSE
        case ("~", "logical"):
            return NativeV(lambda a: BoolV(not _bool(a)))
        case ("/\\", "logical"):
            return _binop(lambda a, b: BoolV(_bool(a) and _bool(b)))
        case ("\\/", "logical"):
            return _binop(lambda a, b: BoolV(_bool(a) or _bool(b)))
        case ("->", "logical"):
            return _binop(lambda a, b: BoolV((not _bool(a)) or _bool(b)))
        case ("<->", "logical"):
            return _binop(lambda a, b: BoolV(_bool(a) == _bool(b)))
        case ("=", "rel"):
            return _binop(lambda a, b: BoolV(values_equal(a, b)))
        case ("<", "rel"):
            return _binop(lambda a, b: BoolV(_num(a) < _num(b)))
        case ("+", "arith"):
            return _binop(lambda a, b: RatV(_num(a) + _num(b)))
        case ("*", "arith"):
            return _binop(lambda a, b: RatV(_num(a) * _num(b)))
        case ("/", "arith"):
            return _binop(_divide)
        case ("nil", "list"):
            return ListV(())
        case ("::", "list"):
            return _binop(lambda a, b: ListV((a,) + _list(b)))
        case ("in", "list"):
            return _binop(
                lambda a, b: BoolV(any(values_equal(a, x) for x in _list(b)))
            )
        case ("|.|", "list"):
            return NativeV(lambda a: RatV(Fraction(len(_list(a)))))
        case ("-", "list"):
            return _binop(
                lambda a, b: ListV(
                    tuple(x for x in _list(a) if not values_equal(x, b))
                )
            )
        case ("in", "hybrid"):
            return NativeV(lambda v: BoolV(isinstance(v, StateV) and v.name == state))
        case (("forall" | "exists") as q, "quant"):
            return _quantifier_value(model, state, q, expr)
    raise EvalError(f"builtin '{s.name}' has no direct denotation", expr.span)


def _quantifier_value(model: Model, state: str, q: str, expr: Expr) -> Value:
    def run(f: Value) -> Value:
        dom = _domain(model, _param_type(f, expr))
        results = [_bool(apply_value(model, f, v)) for v in dom]
        return BoolV(all(results) if q == "forall" else any(results))

    return NativeV(run)


def _param_type(f: Value, expr: Expr) -> Type:
    if isinstance(f, ClosureV) and f.param.type is not None:
        return f.param.type
    raise EvalError("quantifier needs a lambda with a typed binder", expr.span)


def _domain(model: Model, ty: Type) -> list[Value]:
    if ty == BOOL:
        return [FALSE, TRUE]
    if ty == OBJ:
        return [ObjV(o) for o in model.objects]
    if ty == STATE:
        return [StateV(w) for w in model.states]
    raise UnenumerableQuantifier(f"cannot enumerate the domain of {ty}")


def _binop(f) -> Value:
    return NativeV(lambda a: NativeV(lambda b: f(a, b)))


def _bool(v: Value) -> bool:
    if not isinstance(v, BoolV):
        raise EvalError(f"expected a truth value, got {render_value(v)}")
    return v.value


def _num(v: Value) -> Fraction:
    if not isinstance(v, RatV):
        raise EvalError(f"expected a number, got {render_value(v)}")
    return v.value


def _list(v: Value) -> tuple[Value, ...]:
    if not isinstance(v, ListV):
        raise EvalError(f"expected a list, got {render_value(v)}")
    return v.items


def _divide(a: Value, b: Value) -> Value:
    d = _num(b)
    if d == 0:
        raise DivisionByZero(f"division of {render_value(a)} by zero")
    return RatV(_num(a) / d)


def truth(model: Model, state: str, expr: Expr, env: Env | None = None) -> bool:
    """Convenience: evaluate a proposition to a Python bool."""
    model.frame.require(state)
    return _truth(model, state, expr, env or {})


def describe(expr: Expr) -> str:
    """Short rendering for diagnostics; falls back to repr for terms the
    surface grammar cannot express."""
    try:
        return print_formula(expr)
    except ValueError:
        return repr(expr)
