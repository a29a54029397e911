"""Evaluation of well-typed terms against a model and a current state.

Everything is interpreted at the current state: flexible symbols (atoms and
Q) consult it, rigid symbols ignore it, and the modal operators box, dia
and dia{p} plus @ shift it for their bodies. Q, the modal operators and @
re-evaluate their proposition argument at other states, and the modal
operators and @ must be fully applied. Lambdas capture the state where they
are interpreted, so a function value keeps denoting the same function even
if it flows across a modality. All arithmetic is exact.

Each entry call compiles its term once (`compile_expr`) into a closure
`run(state, env) -> Value` and runs it. Compiling settles what the model
fixes before any state is visited: each symbol's meaning, which
applications fully apply a builtin (these call its n-ary function in
`_BUILTINS`), whether the term reads the current state outside @, and
whether it contains a Q; the checker takes both facts from there. It raises
nothing: an unknown symbol, a bare or partly applied @ or modal operator, a
missing builtin or an unenumerable domain raises when its node runs, so a
body that never runs (under a box over a disabled action, in a dropped Q
cell) raises nothing.

Connectives evaluate both operands, quantifiers every instance and modal
operators their body at every successor (no short-circuiting): a disabled
action inside a probability query is a modeling mistake and should surface
as a DisabledAction error, not be masked by the order of operands,
instances or successors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial

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
    ARITY,
    BOOL,
    OBJ,
    STATE,
    App,
    Expr,
    Lam,
    Q,
    RatLit,
    Sym,
    Type,
    spine,
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
Code = Callable[[str, Env], Value]
Explain = Callable[[Expr, str, Env], list[dict]]


def evaluate(model: Model, state: str, expr: Expr, env: Env | None = None) -> Value:
    """Interpret a desugared, well-typed expression at a state."""
    model.frame.require(state)
    return compile_expr(model, expr)[0](state, env or {})


def truth(model: Model, state: str, expr: Expr, env: Env | None = None) -> bool:
    """Convenience: evaluate a proposition to a Python bool."""
    return _bool(evaluate(model, state, expr, env))


def eval_arith(model: Model, state: str, expr: Expr, env: Env | None = None) -> Fraction:
    """Evaluate a numeric expression (arithmetic over probability queries
    included) to an exact rational."""
    return _num(evaluate(model, state, expr, env))


def compile_expr(model: Model, expr: Expr) -> tuple[Code, bool, bool, Explain]:
    """The closure `run(state, env)` that evaluates expr, the facts
    `independent` and `has_q`, and `explain(expr, state, env)`, expr's
    witness trail where it is false. Only atoms, `in`, the modal operators
    and Q read the current state; @ moves its body to a state of its own,
    closures run at their captured state, and quantifier domains and rigid
    values are plain data. So `independent` holds when every such read sits
    under @: then expr has the same value, or raises the same error, at
    every state (a sufficient test, not a complete one). `has_q` holds when
    expr contains a Q node anywhere, under @ and lambdas too."""
    match expr:
        case RatLit(v):
            value = RatV(v)
            return (lambda state, env: value), True, False, _fails
        case Sym(s):
            return (*_compile_symbol(model, s.name, s.kind, expr.span), False, _fails)
        case Lam(param, body):  # its explain is its body's, for a forall over it
            code, independent, has_q, explain = compile_expr(model, body)
            closure = lambda state, env: ClosureV(param, code, dict(env), state)
            return closure, independent, has_q, explain
        case Q(actions, props):
            acts = [compile_expr(model, a)[0] for a in actions]
            tests = [compile_expr(model, p)[0] for p in props]
            return (lambda state, env: RatV(_q(model, state, acts, tests, env))), False, True, _fails
        case App():
            head, args = spine(expr)
            run, independent, has_q, _ = compile_expr(model, head)
            key = (head.symbol.name, head.symbol.kind) if isinstance(head, Sym) else None
            codes, explains = [], []
            for i, arg in enumerate(args):  # a loop: a comprehension adds a frame per level
                code, fact, q, explain = compile_expr(model, arg)
                codes.append(code)
                explains.append(explain)
                # @ moves its body, the second argument, to a state of its own
                independent = independent and (fact or (key == ("@", "hybrid") and i == 1))
                has_q = has_q or q
            arity = ARITY.get(key, 0)
            explain = (_explainer(model, key, args, codes, explains)
                       if key in _DESCENDING and len(args) == arity else _fails)
            if key == ("@", "hybrid"):
                if len(codes) == 1:
                    return _fail("'@' must be fully applied"), independent, has_q, _fails
                run, codes = _at(model, codes[0], codes[1]), codes[2:]
            elif key is not None and key[1] == "modal":
                if len(codes) < arity:
                    return _fail(f"'{key[0]}' must be fully applied"), False, has_q, _fails
                action, *prob, body = codes[:arity]  # dia{p} has a probability
                run = _modal(model, action, prob[0] if prob else None, body, key[0] == "box")
                codes, independent = codes[arity:], False
            elif 0 < arity <= len(codes):
                run, codes = _call(model, _BUILTINS[key], head.span, codes[:arity]), codes[arity:]
            return _applied(run, codes), independent, has_q, explain
    return _fail(f"cannot evaluate {type(expr).__name__}; desugar first"), False, False, _fails


# the keys `_explainer` descends through, tested first so that other nodes make no call
_DESCENDING = {("box", "modal"), ("@", "hybrid"), ("forall", "quant"), ("/\\", "logical"),
               ("->", "logical")}


def _explainer(model: Model, key: tuple[str, str], args: list[Expr], codes: list[Code],
               explains: list[Explain]) -> Explain:
    """The explain of a fully applied builtin that descends (see `checker`):
    it runs only where its node is false, and re-runs compiled children."""
    match key:
        case ("box", "modal"):
            def explain(expr: Expr, state: str, env: Env) -> list[dict]:
                ga = _action(codes[0](state, env))
                w = next(w for w, _ in model.frame.successors(state, ga)
                         if not _bool(codes[1](w, env)))
                step = {"step": "box", "action": str(ga), "state": w}
                return [step, *explains[1](args[1], w, env)]
        case ("@", "hybrid"):
            def explain(expr: Expr, state: str, env: Env) -> list[dict]:
                w = codes[0](state, env).name
                return [{"step": "at", "state": w}, *explains[1](args[1], w, env)]
        case ("forall", "quant") if isinstance(args[0], Lam):
            def explain(expr: Expr, state: str, env: Env) -> list[dict]:
                f = codes[0](state, env)
                v = next(v for v in _domain(model, f.param.type) if not _bool(apply_value(f, v)))
                step = {"step": "instantiate", "var": f.param.name, "value": render_value(v)}
                return [step, *explains[0](args[0].body, state, {**env, f.param.name: v})]
        case ("/\\", "logical") | ("->", "logical"):
            # A /\ B fails at A if A fails, else at B; A -> B fails only where
            # A holds, so at B
            def explain(expr: Expr, state: str, env: Env) -> list[dict]:
                i = int(_bool(codes[0](state, env)))
                return explains[i](args[i], state, env)
        case _:
            return _fails
    return explain


def _fails(expr: Expr, state: str, env: Env) -> list[dict]:
    """The explain of a node that does not descend: the trail ends at it."""
    return [{"step": "fails", "state": state, "formula": describe(expr, frozenset(env))}]


def _fail(message: str, span=None) -> Code:
    def run(state: str, env: Env) -> Value:
        raise EvalError(message, span)

    return run


def _compile_symbol(model: Model, name: str, kind: str, span) -> tuple[Code, bool]:
    if kind not in ("var", "free"):
        fn = _BUILTINS.get((name, kind))
        if fn is None:
            return _fail(f"builtin '{name}' has no direct denotation", span), True
        arity = ARITY[name, kind]
        if not arity:
            value = fn(model, "", span)
            return (lambda state, env: value), True
        curried = lambda state, env: _curry(arity, partial(fn, model, state, span))
        return curried, (name, kind) != ("in", "hybrid")
    # the parser resolves scopes, but envs from callers win over the model
    if kind == "free" and name in model.atoms:
        atom = lambda state, env: env[name] if name in env else _free_value(model, name, state)
        return atom, False
    value = _free_value(model, name, "") if kind == "free" else None
    if value is not None:
        return (lambda state, env: env.get(name, value)), True
    message = (f"variable '{name}' is not bound" if kind == "var"
               else f"'{name}' has no interpretation in model {model.name}")

    def lookup(state: str, env: Env) -> Value:
        if name in env:
            return env[name]
        raise UnboundVariable(message, span)

    return lookup, True


def _free_value(model: Model, name: str, state: str) -> Value | None:
    """The meaning at a state of a declared free symbol, else None; only
    atoms read the state."""
    if name in model.atoms:
        arity = len(model.atoms[name])
        if not arity:
            return BoolV(model.holds(state, name))
        return _curry(arity, lambda *args: BoolV(
            model.holds(state, name, tuple(map(atom_arg_key, args)))
        ))
    if name in model.actions:
        arity = model.actions[name]
        if arity == 0:
            return ActionV(GroundAction(name))
        return _curry(arity, lambda *args: ActionV(
            GroundAction(name, tuple(map(_object_name, args)))
        ))
    if name in model.rigid:
        return model.rigid[name][1]
    if name in model.objects:
        return ObjV(name)
    if name in model.states:
        return StateV(name)
    return None


def _modal(model: Model, action: Code, prob: Code | None, body: Code, box: bool) -> Code:
    """box, dia, or with prob dia{p}: the body at every successor (every
    edge of probability p), then combined."""
    def run(state: str, env: Env) -> BoolV:
        ga = _action(action(state, env))
        p = None if prob is None else _num(prob(state, env))
        succ = model.frame.successors(state, ga)
        results = [_bool(body(w, env)) for w, rho in succ if p is None or rho == p]
        return BoolV(all(results) if box else any(results))

    return run


def _at(model: Model, where: Code, body: Code) -> Code:
    def run(state: str, env: Env) -> Value:
        v = where(state, env)
        if not isinstance(v, StateV):
            raise EvalError(f"@ needs a state, got {render_value(v)}")
        model.frame.require(v.name)
        return body(v.name, env)

    return run


def _call(model: Model, fn, span, codes: list[Code]) -> Code:
    """A fully applied builtin: its operands left to right, then fn."""
    if len(codes) == 1:
        (a,) = codes
        return lambda state, env: fn(model, state, span, a(state, env))
    a, b = codes
    return lambda state, env: fn(model, state, span, a(state, env), b(state, env))


def _applied(run: Code, codes: list[Code]) -> Code:
    """run's value applied to each argument in turn, each argument
    evaluated just before its application."""
    if not codes:
        return run

    def applied(state: str, env: Env) -> Value:
        v = run(state, env)
        for code in codes:
            v = apply_value(v, code(state, env))
        return v

    return applied


def apply_value(fn: Value, arg: Value) -> Value:
    match fn:
        case ClosureV(param, body, cenv, cstate):
            return body(cstate, {**cenv, param.name: arg})
        case NativeV(f):
            return f(arg)
    raise EvalError(f"{render_value(fn)} is not a function")


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
    return _q(model, state, actions, (compile_expr(model, prop)[0],), env)


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
    acts = [a if isinstance(a, GroundAction) else compile_expr(model, a)[0] for a in actions]
    return _q(model, state, acts, [compile_expr(model, p)[0] for p in props], env, trace=True)


def _q(
    model: Model,
    state: str,
    actions: Sequence[Code | GroundAction],
    props: Sequence[Code],
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
    action.

    The sums are fraction-free (Bareiss): an edge weighs the integer rho·L
    of the frame's `scale` and a cell at step i holds its mass times
    L**(k - i), divided once at the end. If L exceeds 64 bits, an edge
    weighs rho, L = 1 and the cells hold the masses themselves."""
    if len(props) != len(actions) and (trace or len(props) != 1):
        raise LengthMismatch(
            f"{len(actions)} actions but {len(props)} propositions"
        )
    env = env or {}
    k = len(actions)
    first = k + 1 - len(props)
    successors = model.frame.successors
    lcm, mult = model.frame.scale

    def open_cell(w: str, i: int) -> int | Sequence[tuple[str, Fraction]]:
        """The 0/1 value of a cell that needs no successors, else its
        successors."""
        if i >= first and not _bool(props[i - first](w, env)):
            return 0
        if i == k:
            return 1
        act = actions[i]
        ga = act if isinstance(act, GroundAction) else _action(act(w, env))
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
            if p:  # dropped paths cost no arithmetic
                weight = rho if mult is None else rho.numerator * mult[rho.denominator]
                total += weight * p
            j += 1
        else:
            stack.pop()
            memo[w, i] = total
    return Fraction(memo[state, 0], lcm**k)


def _ground_action(model: Model, state: str, expr: Expr, env: Env) -> GroundAction:
    return _action(compile_expr(model, expr)[0](state, env))


def _action(v: Value) -> GroundAction:
    if not isinstance(v, ActionV):
        raise EvalError(f"expected an action, got {render_value(v)}")
    return v.action


# ---------- builtins ----------


def _object_name(v: Value) -> str:
    if not isinstance(v, ObjV):
        raise EvalError(f"action arguments must be objects, got {render_value(v)}")
    return v.name


def _curry(arity: int, fin, collected: tuple[Value, ...] = ()) -> Value:
    """A function of arity arguments as a value: one NativeV per argument."""
    def step(v: Value) -> Value:
        args = collected + (v,)
        if len(args) == arity:
            return fin(*args)
        return _curry(arity, fin, args)

    return NativeV(step)


def _instances(model: Model, span, f: Value) -> list[bool]:
    """A quantifier's predicate at every member of its domain, in order."""
    if not (isinstance(f, ClosureV) and f.param.type is not None):
        raise EvalError("quantifier needs a lambda with a typed binder", span)
    return [_bool(apply_value(f, v)) for v in _domain(model, f.param.type)]


def _domain(model: Model, ty: Type) -> list[Value]:
    if ty == BOOL:
        return [FALSE, TRUE]
    if ty == OBJ:
        return [ObjV(o) for o in model.objects]
    if ty == STATE:
        return [StateV(w) for w in model.states]
    raise UnenumerableQuantifier(f"cannot enumerate the domain of {ty}")


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


# (name, kind) -> fn, for the builtins with a denotation (all but @ and the
# modal operators); fn(model, state, span, *operands), with as many operands
# as `syntax.ARITY` gives, gets the state the builtin is applied at and the
# span of its symbol
_BUILTINS: dict[tuple[str, str], Callable[..., Value]] = {
    ("true", "logical"): lambda m, w, sp: TRUE,
    ("false", "logical"): lambda m, w, sp: FALSE,
    ("~", "logical"): lambda m, w, sp, a: BoolV(not _bool(a)),
    ("/\\", "logical"): lambda m, w, sp, a, b: BoolV(_bool(a) and _bool(b)),
    ("\\/", "logical"): lambda m, w, sp, a, b: BoolV(_bool(a) or _bool(b)),
    ("->", "logical"): lambda m, w, sp, a, b: BoolV((not _bool(a)) or _bool(b)),
    ("<->", "logical"): lambda m, w, sp, a, b: BoolV(_bool(a) == _bool(b)),
    ("=", "rel"): lambda m, w, sp, a, b: BoolV(values_equal(a, b)),
    ("<", "rel"): lambda m, w, sp, a, b: BoolV(_num(a) < _num(b)),
    ("+", "arith"): lambda m, w, sp, a, b: RatV(_num(a) + _num(b)),
    ("*", "arith"): lambda m, w, sp, a, b: RatV(_num(a) * _num(b)),
    ("/", "arith"): lambda m, w, sp, a, b: _divide(a, b),
    ("nil", "list"): lambda m, w, sp: ListV(()),
    ("::", "list"): lambda m, w, sp, a, b: ListV((a,) + _list(b)),
    ("in", "list"): lambda m, w, sp, a, b: BoolV(any(values_equal(a, x) for x in _list(b))),
    ("|.|", "list"): lambda m, w, sp, a: RatV(Fraction(len(_list(a)))),
    ("-", "list"): lambda m, w, sp, a, b: ListV(
        tuple(x for x in _list(a) if not values_equal(x, b))
    ),
    ("in", "hybrid"): lambda m, w, sp, v: BoolV(isinstance(v, StateV) and v.name == w),
    ("forall", "quant"): lambda m, w, sp, f: BoolV(all(_instances(m, sp, f))),
    ("exists", "quant"): lambda m, w, sp, f: BoolV(any(_instances(m, sp, f))),
}


def describe(expr: Expr, bound: frozenset[str] = frozenset()) -> str:
    """Short rendering for diagnostics; falls back to repr for terms the
    surface grammar cannot express. bound is as for `print_formula`."""
    try:
        return print_formula(expr, bound)
    except ValueError:
        return repr(expr)
