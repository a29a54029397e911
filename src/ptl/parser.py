"""Lexer and parser for formulas, formula files (.ptl) and model files
(.ptlm).

Operator precedence, loosest binding first:

    <->   ->   \\/   /\\   prefix (~, dia, box, @, binders)
    relations (=, <, >, !=, in)   ::   -   +   * and /   application

The levels and operand slots of the binary operators are one table,
`syntax.BINARY`, which the printer reads too. Relations do not associate,
`-`, `+`, `*` and `/` group to the left, and `::` and the connectives to
the right; a list difference is not a left operand of `::`. Binder bodies
extend as far right as possible. A prefix operator takes a prefix-level
operand, so `~ a = b` negates the comparison and `dia[t]{1/2} heads(c) /\\ X`
scopes the diamond over the application only. `_Parser.expr` reads a
formula by precedence climbing on an explicit stack: only brackets and
binder bodies recurse, so neither an operator chain nor a run of prefix
operators is bounded by the recursion limit, and a level of parentheses
costs three Python frames.

ASCII keywords and the usual unicode glyphs are both accepted; decimal
literals become exact rationals during parsing, and a division of two
literals is folded into one rational, so 0.5, 1/2 and 2/4 all parse to the
same term.

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
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError, SourceSpan
from .model import ModelSpec, SymbolDecl, TransitionDecl, ValuationDecl
from .syntax import (
    AND,
    APP_PREC,
    AT,
    BASE_TYPES,
    BINARY,
    BOT,
    BOX,
    CONS,
    CONS_PREC,
    DIA,
    DIA_P,
    DIFF,
    DIV,
    EQ,
    EXISTS,
    FORALL,
    IFF,
    IFF_PREC,
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
    PREFIX_PREC,
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

# each binary operator token: the symbol it builds, then that symbol's
# level, left slot and right slot in `syntax.BINARY`; `>` and `!=` are
# sugar for a flipped `<` and a negated `=`
_INFIX = {token: (symbol, *BINARY[symbol]) for token, symbol in (
    ("<->", IFF), ("->", IMP), ("\\/", OR), ("/\\", AND),
    ("=", EQ), ("<", LT), (">", LT), ("!=", EQ), ("in", MEMBER),
    ("::", CONS), ("-", DIFF), ("+", PLUS), ("*", TIMES), ("/", DIV),
)}

_CONSTANTS = {"true": TOP, "false": BOT, "nil": NIL}

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


def tokenize(text: str, source: str = "<formula>", line: int = 1, column: int = 1) -> list[Token]:
    """The tokens of text, located as if it began at line and column of source."""
    tokens: list[Token] = []
    line_start = 1 - column  # the offset of column 1 on the current line
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

    def name(self, t: Token) -> Sym:
        """A name in scope is its binder's variable; any other is free."""
        for s in reversed(self.scope):
            if s.name == t.text:
                return Sym(s, span=t.span)
        return Sym(Symbol(t.text, None, "free"), span=t.span)

    # ----- formulas -----

    def expr(self, level: int = IFF_PREC) -> Expr:
        """A formula whose binary operators bind no looser than `level`.

        Operator precedence on an explicit stack: `pending` holds each
        operator still waiting for its right operand, with its left operand
        or, for a prefix operator, the function part it applies. A binary
        operator is taken while the level and operand slots of
        `syntax.BINARY` allow it; otherwise pending operators are applied
        from the top. Only brackets and binder bodies recurse, so neither a
        chain of operators nor a run of prefix operators is bounded by the
        recursion limit."""
        pending: list[tuple[Expr, Token, int, int]] = []  # part, operator, level, right slot
        while True:
            floor = pending[-1][3] if pending else level
            if floor <= PREFIX_PREC and self.tok.kind in ("~", "@", "box", "dia"):
                t = self.tok
                pending.append((self.prefix_op(), t, PREFIX_PREC, PREFIX_PREC))
                continue
            if floor <= PREFIX_PREC and self.at("forall", "exists", "lam"):
                left, left_level = self.binder(self.next().kind), IFF_PREC
            else:
                left, left_level = self.application(), APP_PREC
            op = _INFIX.get(self.tok.kind)  # symbol, level, left slot, right slot
            while not (op and op[1] >= floor and left_level >= op[2]):
                if not pending:
                    return left
                part, t, left_level, _ = pending.pop()
                left = _combine(part, t, left)
                floor = pending[-1][3] if pending else level
            pending.append((left, self.next(), op[1], op[3]))

    def prefix_op(self) -> Expr:
        """The function part of `~`, `@s`, `box[a]`, `dia[a]` or `dia[a]{p}`."""
        t = self.next()
        if t.kind == "~":
            return Sym(NOT)
        if t.kind == "@":
            return App(Sym(AT), self.name(self.expect("ident")))
        self.expect("[")
        args = [self.expr()]
        self.expect("]")
        head = BOX if t.kind == "box" else DIA
        if t.kind == "dia" and self.eat("{"):
            args.append(self.expr())
            self.expect("}")
            head = DIA_P
        return app(Sym(head), *args)

    def binder(self, kind: str) -> Expr:
        """The rest of a `forall`, `exists` or `lam` form; its body extends
        as far right as possible."""
        name = self.expect("ident").text
        if kind != "lam" and self.eat("in"):
            bound = self.expr(CONS_PREC)
            self.expect(".")
            return MemberBinder(kind, name, bound, self.body(Symbol(name, None, "var")))
        self.expect(":")
        if kind != "lam" and self.at("ident") and self.tok.text not in BASE_TYPES:
            pred = self.next().text
            self.expect(".")
            return PredBinder(kind, name, pred, self.body(Symbol(name, None, "var")))
        ty = self.type_()
        self.expect(".")
        param = Symbol(name, ty, "var")
        lam = Lam(param, self.body(param))
        if kind == "lam":
            return lam
        return App(Sym(FORALL if kind == "forall" else EXISTS), lam)

    def body(self, param: Symbol) -> Expr:
        self.scope.append(param)
        try:
            return self.expr()
        finally:
            self.scope.pop()

    def application(self) -> Expr:
        e = self.primary()
        while self.eat("("):
            args = [self.expr()]
            while self.eat(","):
                args.append(self.expr())
            self.expect(")")
            for a in args:
                e = App(e, a, span=e.span)
        return e

    def primary(self) -> Expr:
        t = self.tok
        if t.kind in ("int", "dec"):
            self.next()
            return RatLit(Fraction(t.text), span=t.span)
        if t.kind in _CONSTANTS:
            self.next()
            return Sym(_CONSTANTS[t.kind], span=t.span)
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
            return self.name(self.next())
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


def _combine(part: Expr, op: Token, right: Expr) -> Expr:
    """A pending operator applied to its right operand: `part` is the left
    operand of a binary operator or the function part of a prefix one. A
    relation, `*` or `/` node carries the operator's span, any other binary
    node its left operand's, and two literals divided fold into one."""
    kind = op.kind
    if kind not in _INFIX:
        return App(part, right, span=op.span)
    if kind == ">":
        return App(App(Sym(LT), right), part, span=op.span)
    if kind == "!=":
        return App(Sym(NOT), App(App(Sym(EQ), part), right), span=op.span)
    if kind == "/" and isinstance(part, RatLit) and isinstance(right, RatLit):
        if right.value == 0:
            raise ParseError("zero denominator", op.span)
        return RatLit(part.value / right.value, span=op.span)
    span = op.span if kind in ("=", "<", "in", "*", "/") else part.span
    return App(App(Sym(_INFIX[kind][0]), part), right, span=span)


def parse_formula(text: str, source: str = "<formula>", line: int = 1, column: int = 1) -> Expr:
    """Parse one formula; the result may contain sugared binders."""
    p = _Parser(tokenize(text, source, line, column))
    e = p.expr()
    if p.tok.kind != "eof":
        raise ParseError(f"trailing input {p.tok.text!r}", p.tok.span)
    return e


def parse(text: str, source: str = "<formula>", line: int = 1, column: int = 1) -> Expr:
    """Parse and desugar in one step."""
    return desugar(parse_formula(text, source, line, column))


def parse_type(text: str, source: str = "<type>", line: int = 1, column: int = 1) -> Type:
    p = _Parser(tokenize(text, source, line, column))
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


class _Definitions(Mapping):
    """A formula file's definitions in file order. A body is parsed and
    desugared when it is first read, and the result is kept."""

    def __init__(self, source: str, bodies: dict[str, tuple[str, int, int]]):
        self._source = source
        self._bodies = bodies  # name -> (text, line, column)
        self._parsed: dict[str, Expr] = {}

    def __getitem__(self, name: str) -> Expr:
        if name not in self._parsed:
            text, line, column = self._bodies[name]
            self._parsed[name] = parse(text, self._source, line, column)
        return self._parsed[name]

    def __contains__(self, name: object) -> bool:  # Mapping's own would parse the body
        return name in self._bodies

    def __iter__(self):
        return iter(self._bodies)

    def __len__(self) -> int:
        return len(self._bodies)


def parse_formula_file(text: str, source: str = "<defs>") -> Mapping[str, Expr]:
    """A .ptl file: named formulas, one `def name := formula` per group.
    A formula may continue over following lines until the next def.

    The line scan is eager: a duplicate def, a line before the first def
    and a file without defs raise here. A body is parsed only when it is
    read, so a syntax error in one definition surfaces when that one, or
    the whole mapping in file order, is read."""
    bodies: dict[str, tuple[str, int, int]] = {}
    current: str | None = None
    body: list[str] = []
    start = (0, 1)  # the line and column of the current def's formula

    def flush() -> None:
        if current is None:
            return
        if current in bodies:
            raise ParseError(f"duplicate def '{current}'", SourceSpan(source, start[0], 1))
        bodies[current] = ("\n".join(body), *start)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = strip_comment(raw)
        m = _DEF.match(stripped.strip())
        if m:
            flush()
            current = m.group(1)
            body = [m.group(2)]
            start = (lineno, len(stripped.rstrip()) - len(m.group(2)) + 1)
        elif stripped.strip():
            if current is None:
                raise ParseError("expected 'def name := formula'", SourceSpan(source, lineno, 1))
            body.append(stripped)
        elif current is not None:
            body.append("")
    flush()
    if not bodies:
        raise ParseError("no definitions found", SourceSpan(source, 1, 1))
    return _Definitions(source, bodies)


def strip_comment(line: str) -> str:
    m = _COMMENT.search(line)
    return line[: m.start()] if m else line


# ---------- model files ----------

_SECTIONS = {"types", "objects", "states", "actions", "transitions", "valuation"}
_TRANSITION = re.compile(r"^(\S+)\s*--(.*?)-->\s*(\S+)\s+@\s+(\S+)$")


def parse_model(text: str, source: str = "<model>") -> ModelSpec:
    """Parse a .ptlm file into an unvalidated ModelSpec whose declarations
    carry their line numbers."""
    spec = ModelSpec(source=source)
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
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
            raise ParseError(f"content before any section: {line!r}", SourceSpan(source, lineno, 1))
        try:
            _model_line(spec, section, line, source, lineno, raw)
        except ParseError as exc:
            if exc.span is None:  # only a line that fails builds a span
                exc.span = SourceSpan(source, lineno, 1)
            raise
    return spec


def _model_line(spec: ModelSpec, section: str, line: str, source: str, lineno: int,
                raw: str) -> None:
    """Read line, what is left of the file's line lineno (raw) without its
    comment and section head; parse_model locates its errors."""
    if section == "objects":
        spec.objects.extend(line.split())
        return
    if section == "states":
        spec.states.extend(line.split())
        return
    if section in ("types", "actions"):
        name, sep, rhs = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'name : type', found {line!r}")
        column = len(strip_comment(raw).rstrip()) - len(line) + len(name) + 2  # of rhs
        type_text, eq_sep, def_text = rhs.partition("=")
        ty = parse_type(type_text.rstrip(), source, lineno, column)
        definition = parse(def_text, source, lineno, column + len(type_text) + 1) if eq_sep else None
        decl = SymbolDecl(name.strip(), ty, definition, lineno)
        (spec.actions if section == "actions" else spec.symbols).append(decl)
        return
    if section == "transitions":
        m = _TRANSITION.match(line)
        if not m:
            raise ParseError(f"malformed transition {line!r}")
        source_state, action_text, target, prob_text = m.groups()
        term = ground_term(action_text)
        if term is None:
            raise ParseError(f"malformed action term {action_text.strip()!r}")
        head, args = term
        prob = parse_rational(prob_text)
        spec.transitions.append(TransitionDecl(source_state, head, args, target, prob, lineno))
        return
    if section == "valuation":
        state, sep, rhs = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'state : atoms', found {line!r}")
        state = state.strip()
        for part in _split_atoms(rhs.strip()):
            term = ground_term(part)
            if term is None:
                raise ParseError(f"malformed atom {part!r}")
            atom, texts = term
            # an argument is an object name or a number
            args = tuple(a if NAME.fullmatch(a) else parse_rational(a) for a in texts)
            spec.valuation.append(ValuationDecl(state, atom, args, lineno))
        return
    raise ParseError(f"unexpected content in section {section}: {line!r}")


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


def _split_atoms(text: str) -> list[str]:
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
        raise ParseError("empty valuation entry")
    return parts
