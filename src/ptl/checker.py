"""Satisfaction checking, entailment over model families, and the
independence operations.

Reports are plain data: verdict plus an optional witness (for violations, a
trail of the choices that lead to a failing subformula), an optional exact
rational for numeric queries, warnings, and free-form details. Reports
serialize to JSON with rationals as "p/q" strings and parse back losslessly.

A check compiles its formula once (`evaluator.compile_expr`), a comparison
as its relation and two sides, and runs it at each state it visits. The
compiler's facts say whether the formula reads the current state outside
`@` and which side of a comparison holds a Q, the side whose number a
report records. A violation's witness comes from the compiled closures as
well: each node's `explain` re-runs its compiled children and compiles
nothing. The trail descends through `box[a] B` (the first failing
successor, in declaration order), `@s B`, `forall` over a literal lambda
(the first failing instance, in domain order), `A /\\ B` (A if it fails,
else B) and `A -> B` (B); it ends at any other node, a top-level
comparison included.

Entailment here is relative to a supplied family of models, not to all
models of the signature; the CLI says so in its output header.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LengthMismatch, PtlError
from .evaluator import _q, apply_value, compile_expr, describe, eval_q, eval_q_trace
from .model import Model, successors
from .syntax import App, Expr, Sym, Symbol, conj
from .values import BoolV, GroundAction, RatV, render_rational, render_value

SATISFIED = "satisfied"
VIOLATED = "violated"
ERROR = "error"


@dataclass
class CheckReport:
    verdict: str
    witness: dict | None = None
    numeric: Fraction | None = None
    warnings: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == SATISFIED

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness,
            "numeric": None if self.numeric is None else render_rational(self.numeric),
            "warnings": list(self.warnings),
            "details": dict(self.details),
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckReport":
        numeric = data.get("numeric")
        return cls(
            verdict=data["verdict"],
            witness=data.get("witness"),
            numeric=None if numeric is None else Fraction(numeric),
            warnings=list(data.get("warnings", [])),
            details=dict(data.get("details", {})),
            message=data.get("message"),
        )


@dataclass
class Theory:
    """A named set of axioms closed over a model signature."""

    name: str
    axioms: Mapping[str, Expr]


def _error_report(exc: PtlError) -> CheckReport:
    return CheckReport(ERROR, message=str(exc))


# ---------- local and global satisfaction ----------


def satisfies(model: Model, state: str, formula: Expr) -> CheckReport:
    """Truth of a formula at one state. A comparison gets both side values
    and the value of its probability side recorded; violations get a
    witness trail."""
    return _checker(model, formula)[0](state)


def comparison(formula: Expr) -> tuple[Expr, Expr, Expr] | None:
    """The relation symbol and the two sides of a top-level `lhs = rhs` or
    `lhs < rhs`; None for any other formula."""
    match formula:
        case App(App(Sym(Symbol(("=" | "<"), _, "rel")) as rel, lhs), rhs):
            return rel, lhs, rhs
    return None


def globally_satisfies(model: Model, formula: Expr) -> CheckReport:
    """Truth at every state, in declaration order; the first violating
    state is reported. A formula that reads the current state only under
    `@`, as in `forall w : state . @w phi`, has the same value, or the same
    error, at every state, so it is checked at the first state only: the
    state the full loop would report."""
    check, independent = _checker(model, formula)
    for state in model.states[:1] if independent else model.states:
        report = check(state)
        if report.verdict == ERROR:
            report.message = f"at state {state}: {report.message}"
            return report
        if report.verdict == VIOLATED:
            report.details["violating_state"] = state
            return report
    return CheckReport(SATISFIED, details={"states_checked": len(model.states)})


def _checker(model: Model, formula: Expr) -> tuple[Callable[[str], CheckReport], bool]:
    """`check(state)`, the report of formula at a state, and whether the
    formula has one report at every state; the numeric side of a
    comparison is the one with a Q, preferring the left."""
    sides = comparison(formula)
    compiled = [compile_expr(model, e) for e in sides or (formula,)]
    left = sides is not None and (compiled[1][2] or not compiled[2][2])

    def check(state: str) -> CheckReport:
        try:
            model.frame.require(state)
            values = [code(state, {}) for code, *_ in compiled]
            value = values[0] if sides is None else apply_value(apply_value(*values[:2]), values[2])
        except PtlError as exc:
            return _error_report(exc)
        if isinstance(value, RatV):
            return CheckReport(SATISFIED, numeric=value.value,
                               details={"kind": "numeric", "value": render_rational(value.value)})
        if not isinstance(value, BoolV):
            return CheckReport(ERROR, message=f"formula evaluated to {render_value(value)}")
        report = CheckReport(SATISFIED if value.value else VIOLATED)
        if sides is not None and all(isinstance(v, RatV) for v in values[1:]):
            lv, rv = values[1].value, values[2].value
            report.details.update(lhs=render_rational(lv), rhs=render_rational(rv))
            report.numeric = lv if left else rv
        if not value.value:
            # a comparison's first part is its relation, which does not descend
            trail = compiled[0][3](formula, state, {})
            report.witness = {"state": trail[-1]["state"], "trail": trail}
        return report

    return check, all(independent for _, independent, *_ in compiled)


# ---------- entailment over a model family ----------


def entails(
    models: list[Model], theory: Theory, conclusion: Expr
) -> CheckReport:
    """Does every supplied model that globally satisfies the theory also
    globally satisfy the conclusion? Vacuous when no model qualifies."""
    satisfying = 0
    for model in models:
        holds = True
        for name, axiom in theory.axioms.items():
            report = globally_satisfies(model, axiom)
            if report.verdict == ERROR:
                report.message = (
                    f"model {model.name}, axiom {name}: {report.message}"
                )
                return report
            if report.verdict == VIOLATED:
                holds = False
                break
        if not holds:
            continue
        satisfying += 1
        report = globally_satisfies(model, conclusion)
        if report.verdict == ERROR:
            report.message = f"model {model.name}, conclusion: {report.message}"
            return report
        if report.verdict == VIOLATED:
            report.details["model"] = model.name
            report.details["models_checked"] = len(models)
            return report
    out = CheckReport(
        SATISFIED,
        details={"models_checked": len(models), "models_satisfying_theory": satisfying},
    )
    if satisfying == 0:
        out.warnings.append(
            "vacuous entailment: no supplied model satisfies the theory"
        )
    return out


# ---------- independence ----------


def check_independent(
    model: Model,
    a: GroundAction,
    b: GroundAction,
    props: list[Expr] | None = None,
) -> CheckReport:
    """Is the probability of each proposition under action a unchanged by
    first taking action b, at every state? This is the finite-family
    approximation of quantifying over all propositions; by default the
    family is every ground atom of the model."""
    if props is None:
        props = model.ground_atoms()
    codes = [compile_expr(model, prop)[0] for prop in props]
    values: list[dict[str, Fraction]] = [{} for _ in props]  # per prop, state -> Q[a](prop)

    def q(j: int, state: str) -> Fraction:
        if state not in values[j]:
            values[j][state] = _q(model, state, [a], (codes[j],), None)
        return values[j][state]

    try:
        for state in model.states:
            for j, prop in enumerate(props):
                before = q(j, state)
                for succ, _ in successors(model, state, b):
                    after = q(j, succ)
                    if after != before:
                        return CheckReport(
                            VIOLATED,
                            witness={
                                "state": succ,
                                "trail": [
                                    {"step": "box", "action": str(b), "state": succ},
                                    {
                                        "step": "fails",
                                        "state": succ,
                                        "formula": f"Q[{a}]({describe(prop)}) = {render_rational(before)}",
                                    },
                                ],
                                "from_state": state,
                                "prop": describe(prop),
                            },
                            numeric=after,
                            details={
                                "expected": render_rational(before),
                                "actual": render_rational(after),
                            },
                        )
    except PtlError as exc:
        return _error_report(exc)
    return CheckReport(
        SATISFIED, details={"states_checked": len(model.states), "props": len(props)}
    )


def check_shortcut(
    model: Model,
    actions: list[GroundAction],
    props: list[Expr],
    state: str | None = None,
) -> CheckReport:
    """Compare a trace probability against the product of its per-step
    probabilities. With one action and several propositions the left side
    is the probability of their conjunction after that single action; the
    product is then unjustified by independence and gets a warning, since
    equality there is coincidence, not a theorem."""
    if state is None:
        state = model.initial or model.states[0]
    warnings: list[str] = []
    try:
        if len(actions) == len(props):
            lhs = eval_q_trace(model, state, list(actions), list(props))
            factors = [eval_q(model, state, [a], p) for a, p in zip(actions, props)]
        elif len(actions) == 1:
            lhs = eval_q(model, state, list(actions), conj(*props))
            factors = [eval_q(model, state, list(actions), p) for p in props]
            warnings.append(
                "propositions share a single action occurrence; "
                "the independence shortcut does not apply, equality is coincidental"
            )
        else:
            raise LengthMismatch(
                f"{len(actions)} actions cannot pair with {len(props)} propositions"
            )
    except LengthMismatch:
        raise
    except PtlError as exc:
        return _error_report(exc)
    rhs = Fraction(1)
    for f in factors:
        rhs *= f
    verdict = SATISFIED if lhs == rhs else VIOLATED
    return CheckReport(
        verdict,
        numeric=lhs,
        warnings=warnings,
        details={
            "state": state,
            "trace": render_rational(lhs),
            "product": render_rational(rhs),
            "factors": [render_rational(f) for f in factors],
        },
    )
