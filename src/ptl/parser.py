"""Lexer and recursive-descent parser for formulas, formula files (.ptl)
and model files (.ptlm).

Operator precedence, loosest binding first:

    <->   ->   \\/   /\\   prefix (~, dia, box, @, binders)
    relations (=, <, >, !=, in)   ::  -   +   *  /   application

Binder bodies extend as far right as possible. Modal prefixes take a
relation-level body, so `dia[t]{1/2} heads(c) /\\ X` scopes the diamond over
the application only. ASCII keywords and the usual unicode glyphs are both
accepted; decimal literals become exact rationals during parsing, and a
division of two literals is folded into one rational, so 0.5, 1/2 and 2/4
all parse to the same term.

The lexical rules are shared by every input format. A name is
`syntax.NAME`; a number is ASCII digits; a comment runs from `--` to end
of line when the marker is followed by a blank or ends the line, wherever
it stands (`_COMMENT`, used by `tokenize` and `strip_comment`), so the
transition arrows `--a-->` of model files are not comments; a ground term
`name(arg, ...)` in a model file or a CLI argument is read by
`ground_term`. `tokenize` is one regular expression with a named group
per token class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SourceSpan
from .model import ModelSpec, SymbolDecl, TransitionDecl, ValuationDecl
from .syntax import (
    AND,
    AT,
    BASE_TYPES,
    BOT,
    BOX,
    CONS,
    DIA,
    DIA_P,
    DIFF,
    DIV,
    EQ,
    EXISTS,
    FORALL,
    IFF,
    IMP,
    IN_STATE,
    LENGTH,
    LT,
    MEMBER,
    NAME,
    NIL,
    NOT,
    OR,
    PLUS,
    TIMES,
    TOP,
    App,
    Arrow,
    Expr,
    Lam,
    ListT,
    MemberBinder,
    PredBinder,
    Q,
    RatLit,
    Sym,
    Symbol,
    Type,
    app,
    desugar,
)

KEYWORDS = {"forall", "exists", "lam", "dia", "box", "Q", "in", "nil", "true", "false"}

GLYPHS = {
    "∧": "/\\",
    "∨": "\\/",
    "→": "->",
    "↔": "<->",
    "¬": "~",
    "≠": "!=",
    "∈": "in",
    "⊤": "true",
    "⊥": "false",
    "∀": "forall",
    "∃": "exists",
    "λ": "lam",
    "◇": "dia",
    "□": "box",
}

_PUNCT = [
    "<->", ":=", "->", "::", "/\\", "\\/", "!=",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", ":", "|",
    "~", "=", "<", ">", "+", "*", "/", "-", "@",
]

# the binary connectives, loosest first; each groups to the right
_CONNECTIVES = (("<->", IFF), ("->", IMP), ("\\/", OR), ("/\\", AND))
_PREFIX_LEVEL = len(_CONNECTIVES)

# `--` starts a comment only before a blank or the end of the line, so the
# arrows `--a-->` of model files are not comments
_COMMENT = re.compile(r"--(?=[ \t\r\n]|$)[^\n]*")

# one alternative per token class, tried in order at each position; a run
# of blanks, newlines and comments is one `skip` match
_TOKEN = re.compile("|".join([
    rf"(?P<skip>(?:[ \t\r\n]|{_COMMENT.pattern})+)",
    r"(?P<dec>[0-9]+\.[0-9]+)",
    r"(?P<int>[0-9]+)",
    rf"(?P<ident>{NAME.pattern})",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + ")",
    "(?P<glyph>[" + "".join(GLYPHS) + "])",
    "(?P<bad>.)",
]), re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str  # punct/keyword text, or: ident, int, dec, eof
    text: str
    span: SourceSpan


def tokenize(text: str, source: str = "<formula>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "skip":
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start() + word.rindex("\n") + 1
            continue
        span = SourceSpan(source, line, m.start() - line_start + 1)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", span)
        if kind == "punct" or (kind == "ident" and word in KEYWORDS):
            kind = word
        elif kind == "glyph":
            kind = GLYPHS[word]
        tokens.append(Token(kind, word, span))
    tokens.append(Token("eof", "", SourceSpan(source, line, len(text) - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.scope: list[Symbol] = []

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        if self.tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.tok.text!r}", self.tok.span)
        return self.next()

    def at(self, *kinds: str) -> bool:
        return self.tok.kind in kinds

    def eat(self, kind: str) -> bool:
        if self.tok.kind == kind:
            self.pos += 1
            return True
        return False

    def lookup(self, name: str) -> Symbol | None:
        for s in reversed(self.scope):
            if s.name == name:
                return s
        return None

    # ----- formulas -----

    def expr(self, level: int = 0) -> Expr:
        """A formula whose operators bind no looser than
        `_CONNECTIVES[level]`. A chain of one connective is read in a loop
        and folded from the right, so its length is not bounded by the
        recursion limit."""
        if level == _PREFIX_LEVEL:
            return self.prefix()
        token, symbol = _CONNECTIVES[level]
        left = self.expr(level + 1)
        if not self.at(token):
            return left
        operands = [left]
        while self.eat(token):
            operands.append(self.expr(level + 1))
        right = operands.pop()
        for left in reversed(operands):
            right = App(App(Sym(symbol), left), right, span=_sp(left))
        return right

    def prefix(self) -> Expr:
        t = self.tok
        if t.kind in ("forall", "exists"):
            return self.binder(self.next().kind)
        if t.kind == "lam":
            self.next()
            return self.lam()
        if t.kind == "~":
            self.next()
            return App(Sym(NOT), self.prefix(), span=t.span)
        if t.kind == "@":
            self.next()
            name = self.expect("ident")
            bound = self.lookup(name.text)
            state = Sym(bound if bound else Symbol(name.text, None, "free"), span=name.span)
            return App(App(Sym(AT), state), self.prefix(), span=t.span)
        if t.kind in ("dia", "box"):
            self.next()
            self.expect("[")
            args = [self.expr()]
            self.expect("]")
            head = BOX if t.kind == "box" else DIA
            if t.kind == "dia" and self.eat("{"):
                args.append(self.expr())
                self.expect("}")
                head = DIA_P
            return App(app(Sym(head), *args), self.prefix(), span=t.span)
        return self.relation()

    def binder(self, kind: str) -> Expr:
        name = self.expect("ident").text
        if self.eat("in"):
            bound = self.cons()
            self.expect(".")
            self.scope.append(Symbol(name, None, "var"))
            try:
                body = self.expr()
            finally:
                self.scope.pop()
            return MemberBinder(kind, name, bound, body)
        self.expect(":")
        if self.at("ident") and self.tok.text not in BASE_TYPES:
            pred = self.next().text
            self.expect(".")
            self.scope.append(Symbol(name, None, "var"))
            try:
                body = self.expr()
            finally:
                self.scope.pop()
            return PredBinder(kind, name, pred, body)
        ty = self.type_()
        self.expect(".")
        param = Symbol(name, ty, "var")
        self.scope.append(param)
        try:
            body = self.expr()
        finally:
            self.scope.pop()
        head = FORALL if kind == "forall" else EXISTS
        return App(Sym(head), Lam(param, body))

    def lam(self) -> Expr:
        name = self.expect("ident").text
        self.expect(":")
        ty = self.type_()
        self.expect(".")
        param = Symbol(name, ty, "var")
        self.scope.append(param)
        try:
            body = self.expr()
        finally:
            self.scope.pop()
        return Lam(param, body)

    def relation(self) -> Expr:
        left = self.cons()
        t = self.tok
        if t.kind == "=":
            self.next()
            return App(App(Sym(EQ), left), self.cons(), span=t.span)
        if t.kind == "<":
            self.next()
            return App(App(Sym(LT), left), self.cons(), span=t.span)
        if t.kind == ">":
            self.next()
            right = self.cons()
            return App(App(Sym(LT), right), left, span=t.span)
        if t.kind == "!=":
            self.next()
            right = self.cons()
            return App(Sym(NOT), App(App(Sym(EQ), left), right), span=t.span)
        if t.kind == "in":
            self.next()
            return App(App(Sym(MEMBER), left), self.cons(), span=t.span)
        return left

    def cons(self) -> Expr:
        left = self.add()
        if self.at("::"):
            self.next()
            return App(App(Sym(CONS), left), self.cons(), span=_sp(left))
        while self.at("-"):
            self.next()
            left = App(App(Sym(DIFF), left), self.add(), span=_sp(left))
        return left

    def add(self) -> Expr:
        left = self.mul()
        while self.at("+"):
            self.next()
            left = App(App(Sym(PLUS), left), self.mul(), span=_sp(left))
        return left

    def mul(self) -> Expr:
        left = self.application()
        while self.at("*", "/"):
            op = self.next()
            right = self.application()
            if op.kind == "/":
                if isinstance(left, RatLit) and isinstance(right, RatLit):
                    if right.value == 0:
                        raise ParseError("zero denominator", op.span)
                    left = RatLit(left.value / right.value, span=op.span)
                else:
                    left = App(App(Sym(DIV), left), right, span=op.span)
            else:
                left = App(App(Sym(TIMES), left), right, span=op.span)
        return left

    def application(self) -> Expr:
        e = self.primary()
        while self.at("("):
            self.next()
            args = [self.expr()]
            while self.eat(","):
                args.append(self.expr())
            self.expect(")")
            for a in args:
                e = App(e, a, span=_sp(e))
        return e

    def primary(self) -> Expr:
        t = self.tok
        if t.kind == "int":
            self.next()
            return RatLit(Fraction(int(t.text)), span=t.span)
        if t.kind == "dec":
            self.next()
            return RatLit(Fraction(t.text), span=t.span)
        if t.kind == "true":
            self.next()
            return Sym(TOP, span=t.span)
        if t.kind == "false":
            self.next()
            return Sym(BOT, span=t.span)
        if t.kind == "nil":
            self.next()
            return Sym(NIL, span=t.span)
        if t.kind == "in":
            # hybrid current-state test in(s)
            self.next()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return App(Sym(IN_STATE), arg, span=t.span)
        if t.kind == "Q":
            return self.q_form()
        if t.kind == "ident":
            self.next()
            bound = self.lookup(t.text)
            return Sym(bound if bound else Symbol(t.text, None, "free"), span=t.span)
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "|":
            self.next()
            e = self.expr()
            self.expect("|")
            return App(Sym(LENGTH), e, span=t.span)
        raise ParseError(f"unexpected token {t.text!r}", t.span)

    def q_form(self) -> Expr:
        t = self.expect("Q")
        self.expect("[")
        actions: list[Expr] = []
        if not self.at("]"):
            actions.append(self.expr())
            while self.eat(";"):
                actions.append(self.expr())
        self.expect("]")
        self.expect("(")
        props = [self.expr()]
        while self.eat(";"):
            props.append(self.expr())
        self.expect(")")
        return Q(tuple(actions), tuple(props), span=t.span)

    # ----- types -----

    def type_(self) -> Type:
        left = self.type_atom()
        if self.eat("->"):
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Type:
        t = self.tok
        if t.kind == "ident" and t.text in BASE_TYPES:
            self.next()
            return BASE_TYPES[t.text]
        if t.kind == "[":
            self.next()
            inner = self.type_()
            self.expect("]")
            return ListT(inner)
        if t.kind == "(":
            self.next()
            inner = self.type_()
            self.expect(")")
            return inner
        raise ParseError(f"expected a type, found {t.text!r}", t.span)


def _sp(e: Expr) -> SourceSpan | None:
    return getattr(e, "span", None)


def parse_formula(text: str, source: str = "<formula>") -> Expr:
    """Parse one formula; the result may contain sugared binders."""
    p = _Parser(tokenize(text, source))
    e = p.expr()
    if p.tok.kind != "eof":
        raise ParseError(f"trailing input {p.tok.text!r}", p.tok.span)
    return e


def parse(text: str, source: str = "<formula>") -> Expr:
    """Parse and desugar in one step."""
    return desugar(parse_formula(text, source))


def parse_type(text: str, source: str = "<type>") -> Type:
    p = _Parser(tokenize(text, source))
    ty = p.type_()
    if p.tok.kind != "eof":
        raise ParseError(f"trailing input {p.tok.text!r}", p.tok.span)
    return ty


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_rational(text: str, span: SourceSpan | None = None) -> Fraction:
    """An integer, p/q or a decimal, with an optional sign. Anything else,
    exponents and digit separators included, is malformed."""
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"malformed rational {text!r}", span)
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"malformed rational {text!r}", span) from exc


# ---------- formula files ----------

_DEF = re.compile(rf"^def\s+({NAME.pattern})\s*:=\s*(.*)$")


def parse_formula_file(text: str, source: str = "<defs>") -> dict[str, Expr]:
    """A .ptl file: named formulas, one `def name := formula` per group.
    A formula may continue over following lines until the next def."""
    defs: dict[str, Expr] = {}
    current: str | None = None
    body: list[str] = []
    start_line = 0

    def flush() -> None:
        if current is None:
            return
        if current in defs:
            raise ParseError(f"duplicate def '{current}'", SourceSpan(source, start_line, 1))
        defs[current] = parse(
            "\n" * (start_line - 1) + "\n".join(body), source
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = strip_comment(raw)
        m = _DEF.match(stripped.strip())
        if m:
            flush()
            current = m.group(1)
            # pad so spans in multi-line defs stay accurate
            body = [" " * (len(raw) - len(m.group(2))) + m.group(2)]
            start_line = lineno
        elif stripped.strip():
            if current is None:
                raise ParseError(
                    "expected 'def name := formula'", SourceSpan(source, lineno, 1)
                )
            body.append(stripped)
        elif current is not None:
            body.append("")
    flush()
    if not defs:
        raise ParseError("no definitions found", SourceSpan(source, 1, 1))
    return defs


def strip_comment(line: str) -> str:
    m = _COMMENT.search(line)
    return line[: m.start()] if m else line


# ---------- model files ----------

_SECTIONS = {"types", "objects", "states", "actions", "transitions", "valuation"}
_TRANSITION = re.compile(r"^(\S+)\s*--(.*?)-->\s*(\S+)\s+@\s+(\S+)$")


def parse_model(text: str, source: str = "<model>") -> ModelSpec:
    """Parse a .ptlm file into an unvalidated ModelSpec."""
    spec = ModelSpec()
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        span = SourceSpan(source, lineno, 1)
        if head == "model":
            spec.name = rest
            continue
        if head == "initial":
            spec.initial = rest
            continue
        if head in _SECTIONS:
            section = head
            line = rest
            if not line:
                continue
        if section is None:
            raise ParseError(f"content before any section: {line!r}", span)
        _model_line(spec, section, line, source, lineno)
    return spec


def _model_line(spec: ModelSpec, section: str, line: str, source: str, lineno: int) -> None:
    span = SourceSpan(source, lineno, 1)
    if section == "objects":
        spec.objects.extend(line.split())
        return
    if section == "states":
        spec.states.extend(line.split())
        return
    if section in ("types", "actions"):
        name, sep, rhs = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'name : type', found {line!r}", span)
        name = name.strip()
        type_text, eq_sep, def_text = rhs.partition("=")
        ty = parse_type(type_text.strip(), source)
        definition = parse(def_text.strip(), source) if eq_sep else None
        decl = SymbolDecl(name, ty, definition)
        (spec.actions if section == "actions" else spec.symbols).append(decl)
        return
    if section == "transitions":
        m = _TRANSITION.match(line)
        if not m:
            raise ParseError(f"malformed transition {line!r}", span)
        source_state, action_text, target, prob_text = m.groups()
        term = ground_term(action_text)
        if term is None:
            raise ParseError(f"malformed action term {action_text.strip()!r}", span)
        head, args = term
        spec.transitions.append(
            TransitionDecl(source_state, head, args, target, parse_rational(prob_text, span))
        )
        return
    if section == "valuation":
        state, sep, rhs = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'state : atoms', found {line!r}", span)
        state = state.strip()
        for part in _split_atoms(rhs.strip(), span):
            term = ground_term(part)
            if term is None:
                raise ParseError(f"malformed atom {part!r}", span)
            atom, texts = term
            # an argument is an object name or a number
            args = tuple(a if NAME.fullmatch(a) else parse_rational(a, span) for a in texts)
            spec.valuation.append(ValuationDecl(state, atom, args))
        return
    raise ParseError(f"unexpected content in section {section}: {line!r}", span)


_GROUND_TERM = re.compile(rf"({NAME.pattern})(?:\((.*)\))?")


def ground_term(text: str) -> tuple[str, tuple[str, ...]] | None:
    """`name` or `name(arg, ...)`, blanks around it ignored: the name and
    the argument texts, stripped (none for `name()`), or None for any other
    shape. Transition actions, valuation atoms and CLI action arguments are
    read with it; each caller checks the arguments and words its own
    error."""
    m = _GROUND_TERM.fullmatch(text.strip())
    if not m:
        return None
    name, inner = m.groups()
    if inner is None or not inner.strip():
        return name, ()
    return name, tuple(a.strip() for a in inner.split(","))


def _split_atoms(text: str, span: SourceSpan) -> list[str]:
    parts: list[str] = []
    depth = 0
    current = ""
    for c in text:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += c
    if current.strip():
        parts.append(current.strip())
    if not parts:
        raise ParseError("empty valuation entry", span)
    return parts
