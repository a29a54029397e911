"""Runtime values shared by models and the evaluator."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .errors import EvalError


@dataclass(frozen=True)
class GroundAction:
    """An action symbol applied to object constants, e.g. toss(c)."""

    head: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}({', '.join(self.args)})"


class Value:
    __slots__ = ()


@dataclass(frozen=True)
class BoolV(Value):
    value: bool


@dataclass(frozen=True)
class RatV(Value):
    value: Fraction


@dataclass(frozen=True)
class ObjV(Value):
    name: str


@dataclass(frozen=True)
class StateV(Value):
    name: str


@dataclass(frozen=True)
class ListV(Value):
    items: tuple[Value, ...]


@dataclass(frozen=True)
class ActionV(Value):
    action: GroundAction


@dataclass(frozen=True)
class ClosureV(Value):
    """A lambda interpreted at a state; the state is baked in, so the
    closure keeps denoting the same function if it crosses a modality."""

    param: Any  # Symbol; untyped here to avoid an import cycle
    body: Any  # the compiled body, run as body(state, env)
    env: dict = field(compare=False)
    state: str = ""


@dataclass
class NativeV(Value):
    """Built-in function value (curried)."""

    fn: Callable[[Value], Value]


TRUE = BoolV(True)
FALSE = BoolV(False)


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality on first-order values."""
    if isinstance(a, (ClosureV, NativeV)) or isinstance(b, (ClosureV, NativeV)):
        raise EvalError("cannot compare function values for equality")
    if isinstance(a, ListV) and isinstance(b, ListV):
        return len(a.items) == len(b.items) and all(
            values_equal(x, y) for x, y in zip(a.items, b.items)
        )
    return a == b


def atom_arg_key(v: Value) -> str | Fraction:
    """Canonical key for a ground atom argument (object name or number)."""
    if isinstance(v, ObjV):
        return v.name
    if isinstance(v, RatV):
        return v.value
    raise EvalError(f"atom arguments must be objects or numbers, got {render_value(v)}")


def render_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def render_value(v: Value) -> str:
    match v:
        case BoolV(b):
            return "true" if b else "false"
        case RatV(q):
            return render_rational(q)
        case ObjV(name) | StateV(name):
            return name
        case ListV(items):
            return " :: ".join([render_value(x) for x in items] + ["nil"])
        case ActionV(a):
            return str(a)
        case ClosureV():
            return "<function>"
        case NativeV():
            return "<builtin>"
    raise EvalError(f"unrenderable value {v!r}")
