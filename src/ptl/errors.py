"""Exception hierarchy for the whole toolkit.

Parse, type and model-validation problems are reported before any state is
explored; evaluation errors can only surface while a formula is being
evaluated against a model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or node in an input text."""

    source: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.column}"


class PtlError(Exception):
    """Base class; message first, optional source span."""

    def __init__(self, message: str, span: SourceSpan | None = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class ParseError(PtlError):
    pass


class TypeError_(PtlError):
    """Base for static (pre-evaluation) typing problems."""


class TypeMismatch(TypeError_):
    def __init__(self, expected: str, found: str, span: SourceSpan | None = None):
        super().__init__(f"expected {expected}, found {found}", span)
        self.expected = expected
        self.found = found


class UnboundSymbol(TypeError_):
    def __init__(self, name: str, span: SourceSpan | None = None):
        super().__init__(f"unbound symbol '{name}'", span)
        self.name = name


class UnenumerableQuantifier(TypeError_):
    """Quantifier at a type whose domain cannot be enumerated (anything
    beyond bool, obj and state)."""


class LengthMismatch(PtlError):
    """Trace probability with differing action and proposition counts."""


class ModelError(PtlError):
    pass


class ProbabilitySumError(ModelError):
    def __init__(self, message: str, total=None, span: SourceSpan | None = None):
        super().__init__(message, span)
        self.total = total

    @classmethod
    def transitions(cls, state: str, action: str, total, span=None) -> "ProbabilitySumError":
        return cls(
            f"transition probabilities for action {action} at state {state} "
            f"sum to {total}, expected 1",
            total,
            span,
        )

    @classmethod
    def masses(cls, space: str, total) -> "ProbabilitySumError":
        return cls(f"outcome masses of space {space} sum to {total}, expected 1", total)


class ProbabilityRangeError(ModelError):
    def __init__(self, message: str, prob=None, span: SourceSpan | None = None):
        super().__init__(message, span)
        self.prob = prob

    @classmethod
    def transition(cls, state: str, action: str, prob, span=None) -> "ProbabilityRangeError":
        return cls(
            f"transition probability {prob} for action {action} at state {state} "
            f"is outside (0, 1]",
            prob,
            span,
        )

    @classmethod
    def mass(cls, space: str, outcome: str, prob) -> "ProbabilityRangeError":
        return cls(
            f"mass {prob} of outcome {outcome} in space {space} is outside [0, 1]",
            prob,
        )


class UnknownState(ModelError):
    pass


class UnknownObject(ModelError):
    pass


class UnknownAction(ModelError):
    pass


class DuplicateTransition(ModelError):
    pass


class DuplicateDeclaration(ModelError):
    pass


class NameClash(ModelError):
    pass


class UnknownOutcome(PtlError):
    """An event names an outcome missing from the sample space."""


class EvalError(PtlError):
    pass


class UnboundVariable(EvalError):
    pass


class DisabledAction(EvalError):
    def __init__(self, state: str, action):
        super().__init__(f"action {action} has no transitions at state {state}")
        self.state = state
        self.action = action


class DivisionByZero(EvalError):
    pass
