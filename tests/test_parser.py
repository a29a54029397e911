"""Surface syntax: parsing, printing, and the round-trip guarantee.

The round-trip law used throughout: parsing, printing, and parsing again
yields a term alpha-equal to the first parse, with every rational literal
preserved exactly.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, corpus_text

from ptl import parse, parse_formula, parse_formula_file, parse_model, parser, validate_model
from ptl.errors import ParseError
from ptl.evaluator import describe
from ptl.model import serialize_model
from ptl.parser import parse_rational, parse_type, tokenize
from ptl.printer import print_formula
from ptl.syntax import (
    ACTION,
    AND,
    AT,
    BOOL,
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
    NIL,
    NOT,
    NUM,
    OBJ,
    OR,
    PLUS,
    PROP,
    STATE,
    TIMES,
    TOP,
    App,
    Arrow,
    Lam,
    ListT,
    PredBinder,
    Q,
    RatLit,
    Sym,
    Symbol,
    alpha_eq,
    app,
    desugar,
    spine,
)

FORMULA_FILES = [
    "coin.ptl",
    "twotoss.ptl",
    "magicalcoin.ptl",
    "bag.ptl",
    "dice.ptl",
    "twosucc.ptl",
    "montyhall.ptl",
    "conjecture.ptl",
    "disambiguation.ptl",
]

MODEL_FILES = [
    "coin.ptlm",
    "biasedcoin.ptlm",
    "twotoss.ptlm",
    "magicalcoin.ptlm",
    "bag4.ptlm",
    "bag5.ptlm",
    "dice12.ptlm",
    "twosucc.ptlm",
    "montyhall.ptlm",
]


BINDER_TYPES = [BOOL, OBJ, STATE, NUM, PROP, ACTION, Arrow(OBJ, PROP), ListT(OBJ)]
BINARY = [AND, OR, IMP, IFF, EQ, LT, PLUS, TIMES, DIV, CONS, DIFF, MEMBER]


def round_trips(text):
    first = parse_formula(text)
    printed = print_formula(first)
    second = parse_formula(printed)
    return alpha_eq(desugar(first), desugar(second))


# ---------- formulas ----------

def test_parse_rational_forms():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0.25") == Fraction(1, 4)
    # decimals are exact, never floats
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_rational_rejects_junk():
    for bad in ("", "1/0", "one", "1.2.3"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_rational_takes_only_the_documented_forms():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("+0.5") == Fraction(1, 2)
    for bad in ("1e400", "1_000", "1E3", "0x10", "1/2/3"):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational(bad)
    coin = corpus_text("coin.ptlm").replace("sh @ 1/2", "sh @ 5e-1", 1)
    with pytest.raises(ParseError, match="malformed rational '5e-1'"):
        parse_model(coin)


def test_parse_type_forms():
    assert parse_type("bool") == BOOL
    assert parse_type("prop") == PROP
    assert parse_type("action") == ACTION
    assert parse_type("state -> bool") == PROP
    assert parse_type("obj -> prop") == Arrow(OBJ, PROP)
    assert parse_type("[obj]") == ListT(OBJ)
    # arrows associate to the right
    assert parse_type("obj -> obj -> prop") == Arrow(OBJ, Arrow(OBJ, PROP))


def test_connective_precedence():
    # ~ binds tightest, then /\, \/, ->, <-> loosest
    e = parse("~ p /\\ q \\/ r -> s")
    head, args = spine(e)
    assert head.symbol.name == "->"
    left_head, _ = spine(args[0])
    assert left_head.symbol.name == "\\/"


def test_implication_is_right_associative():
    e = parse("p -> q -> r")
    _, args = spine(e)
    inner_head, _ = spine(args[1])
    assert inner_head.symbol.name == "->"


@pytest.mark.parametrize("op", ["<->", "->", "\\/", "/\\"])
def test_a_5000_operand_chain_parses_to_a_right_nested_spine(op):
    n = 5000
    e = parse_formula(f" {op} ".join(f"p{i}" for i in range(n)))
    for i in range(n - 1):
        head, (left, e) = spine(e)
        assert head.symbol.name == op
        assert left.symbol.name == f"p{i}"
    assert e.symbol.name == f"p{n - 1}"


@pytest.mark.parametrize(
    "opening, core, closing, depth",
    [
        ("(", "p", ")", 150),
        ("~ (", "p", ")", 150),
        ("Q[a](", "p", ")", 150),
        ("f(", "p", ")", 150),
        ("~ ", "p", "", 5000),
        ("p :: ", "nil", "", 5000),
    ],
    ids=["parens", "not-parens", "q", "call", "not-chain", "cons-chain"],
)
def test_nesting_depths_at_the_default_recursion_limit(opening, core, closing, depth):
    assert sys.getrecursionlimit() == 1000
    parse_formula(opening * depth + core + closing * depth)


def test_each_connective_node_carries_its_left_operands_span():
    e = parse_formula("p /\\ q /\\ r")
    _, (p, rest) = spine(e)
    _, (q, r) = spine(rest)
    assert (e.span, rest.span) == (p.span, q.span)
    assert (p.span.column, q.span.column, r.span.column) == (1, 6, 11)


def test_a_fraction_right_of_times_or_divide_keeps_its_parentheses():
    for text in ("Q[t](H) * (1/2)", "Q[t](H) / (1/2)"):
        assert print_formula(parse(text)) == text
        assert round_trips(text)


def test_a_list_difference_groups_left_and_is_no_left_operand_of_cons():
    assert print_formula(parse("(D - dc) - dp")) == "D - dc - dp"
    assert round_trips("(D - dc) - dp")
    for text in ("D - (dc - dp)", "(D - dc) :: L", "x :: D - dc"):
        assert print_formula(parse(text)) == text
    with pytest.raises(ParseError, match="trailing input '::'"):
        parse("D - dc :: L")


@pytest.mark.parametrize(
    "term",
    [
        app(Sym(LT), RatLit(Fraction(-1, 2)), RatLit(Fraction(1))),
        Lam(Symbol("x", None, "var"), Sym(Symbol("p"))),
        App(Sym(FORALL), Lam(Symbol("x", None, "var"), Sym(Symbol("p")))),
        app(Sym(AND), Sym(Symbol("box")), Sym(Symbol("p"))),
        App(Sym(Symbol("f x")), Sym(Symbol("p"))),
        Q((), ()),
        PredBinder("forall", "x", "bool", Sym(Symbol("p"))),
        app(Sym(AND), Sym(Symbol("y", OBJ, "var")), Sym(Symbol("p"))),
        app(Sym(AT), Sym(Symbol("w", STATE, "var")), Sym(Symbol("p"))),
        Lam(Symbol("x", OBJ, "var"), Sym(Symbol("x"))),
        App(Sym(FORALL), Lam(Symbol("x", OBJ, "var"), App(Sym(Symbol("P")), Sym(Symbol("x"))))),
        PredBinder("exists", "x", "P", App(Sym(Symbol("Q")), Sym(Symbol("x")))),
    ],
    ids=[
        "negative-literal", "untyped-lam", "untyped-forall", "keyword-name", "bad-name",
        "q-without-proposition", "predicate-named-like-a-type", "variable-outside-its-binder",
        "at-variable-outside-its-binder", "lam-captures-a-free-name",
        "forall-captures-a-free-name", "sugar-captures-a-free-name",
    ],
)
def test_terms_the_parser_cannot_read_back_are_not_printed(term):
    with pytest.raises(ValueError):
        print_formula(term)
    assert describe(term) == repr(term)


def test_q_brackets_take_action_sequence():
    e = parse("Q[t; t](H)")
    # single proposition: one Q node over a two-action word
    assert isinstance(e, Q)
    assert len(e.actions) == 2 and len(e.props) == 1


def test_q_trace_form():
    e = parse("Q[t; t](H; T)")
    assert isinstance(e, Q)
    assert len(e.actions) == 2 and len(e.props) == 2


def test_q_trace_keeps_lengths_for_the_typechecker():
    # mismatched action/proposition counts parse; the typechecker rejects them
    e = parse("Q[t; t](H; T; H)")
    assert isinstance(e, Q)
    assert len(e.actions) == 2 and len(e.props) == 3


def test_modalities_parse():
    assert spine(parse("box[t] H"))[0] == Sym(BOX)
    assert spine(parse("dia[t] H"))[0] == Sym(DIA)
    head, (_, prob, _) = spine(parse("dia[t]{1/2} H"))
    assert head == Sym(DIA_P)
    assert prob.value == Fraction(1, 2)


def test_at_operator_prefixes_a_state():
    e = parse("@s0 H")
    head, args = spine(e)
    assert head.symbol.name == "@"
    assert args[0].symbol.name == "s0"


def test_membership_versus_hybrid_in():
    member = parse("x in (a :: nil)")
    head, _ = spine(member)
    assert head.symbol.kind == "list"
    hybrid = parse("in(s0)")
    head2, _ = spine(hybrid)
    assert head2.symbol.kind != "list"


def test_binder_sugar_desugars_to_guarded_quantifiers():
    e = parse("forall x in (a :: nil) . P(x)")
    head, args = spine(e)
    assert head.symbol.name == "forall"
    assert isinstance(args[0], Lam)


def test_gt_and_neq_are_parse_time_sugar():
    gt = parse("Q[t](H) > 1/2")
    head, args = spine(gt)
    assert head.symbol.name == "<"
    assert isinstance(args[0], RatLit)  # operands flipped
    neq = parse("1 != 2")
    head, _ = spine(neq)
    assert head.symbol.name == "~"


def test_minus_is_list_element_removal():
    e = parse("(a :: nil) - a")
    head, _ = spine(e)
    assert head.symbol.name == "-" and head.symbol.kind == "list"


def test_lambda_and_application():
    e = parse("(lam x : num . x + 1)(2)")
    f = parse("(λx : num . x + 1)(2)")
    assert alpha_eq(e, f)
    g = parse("R(1, 2)")
    h = parse("R(1)(2)")
    assert alpha_eq(g, h)


def test_unicode_aliases_match_ascii():
    pairs = [
        ("∀x : obj . P(x) ∧ ⊤", "forall x : obj . P(x) /\\ true"),
        ("¬(p ∨ q) → ⊥", "~ (p \\/ q) -> false"),
        ("◇[t] H ∧ □[t] H", "dia[t] H /\\ box[t] H"),
        ("x ∈ (a :: nil)", "x in (a :: nil)"),
        ("1 ≠ 2", "1 != 2"),
        ("∃s : state . in(s)", "exists s : state . in(s)"),
    ]
    for uni, ascii_ in pairs:
        assert alpha_eq(desugar(parse_formula(uni)), desugar(parse_formula(ascii_)))


def test_comments_and_blank_lines_are_skipped():
    text = """
    -- leading comment
    Q[t](H) = 1/2  -- trailing comment
    """
    e = parse(text)
    head, _ = spine(e)
    assert head.symbol.name == "="


def test_double_dash_comment_needs_following_whitespace():
    # '-- x' comments out the rest of the line;  '--x' does not, it is
    # two element removals with a missing operand
    parse("(a :: nil) - a -- the rest is ignored")
    with pytest.raises(ParseError):
        parse("(a :: nil) --x")


# lexemes whose concatenations all tokenize: names, keywords, numbers,
# punctuation, glyphs, blanks, newlines and comments
LEXEMES = [
    "p", "x'", "_q1", "Q", "dia", "forall", "0", "42", "0.25", "(", ")", "[", "]",
    "{", "}", ";", ",", ".", ":", "|", "~", "=", "<", ">", "+", "*", "/", "-", "@",
    "<->", "->", "::", "/\\", "\\/", "!=", ":=", "∧", "¬", "λ", "□",
    " ", "\t", "\r", "\n", "-- note", "--",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(LEXEMES), max_size=30).map("".join))
def test_every_token_span_points_at_its_text(text):
    lines = text.split("\n")
    *tokens, eof = tokenize(text)
    for t in tokens:
        assert lines[t.span.line - 1][t.span.column - 1:].startswith(t.text), t
    # end of input sits one column past the last character, comment or not
    assert (eof.span.line, eof.span.column) == (len(lines), len(lines[-1]) + 1)


def test_numbers_are_ascii_digits():
    with pytest.raises(ParseError, match="unexpected character '٣'"):
        parse("Q[](p) = ٣/٤")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse("Q[t](H) = = 1")
    assert "1:" in str(exc.value)


def test_formula_file_definitions_keep_order():
    text = "def a := Q[t](H) = 1/2\n\ndef b :=\n  box[t] H ->\n  dia[t] H\n"
    defs = parse_formula_file(text, source="inline")
    assert list(defs) == ["a", "b"]


def test_tokens_start_at_the_given_line_and_column():
    # the column applies to the first line only
    tokens = tokenize("p /\\\n  q", "f", 5, 7)
    assert [(t.text, t.span.line, t.span.column) for t in tokens] == [
        ("p", 5, 7), ("/\\", 5, 9), ("q", 6, 3), ("", 6, 4),
    ]


@pytest.mark.parametrize(
    "text, where",
    [
        # the comment does not count towards the column
        ("def ok := true\n\ndef bad := p /\\ -- a note\n", "defs:3:16"),
        ("def ok := true\ndef bad :=\n  box[t] H ->\n  = 1\n", "defs:4:3"),
    ],
    ids=["comment", "continued"],
)
def test_formula_file_errors_name_the_line_and_column(text, where):
    # a body is parsed when it is read; reading them all meets its error
    with pytest.raises(ParseError, match=f"^{where}: "):
        dict(parse_formula_file(text, source="defs"))


def test_formula_file_rejects_duplicates_and_empty():
    with pytest.raises(ParseError):
        parse_formula_file("def a := p\ndef a := q\n", source="dup")
    with pytest.raises(ParseError):
        parse_formula_file("-- nothing here\n", source="empty")


@pytest.mark.parametrize(
    "text, where",
    [
        ("def a := p /\\\ndef a := q\n", "dup:2:1: duplicate def 'a'"),
        ("p\ndef a := q /\\\n", "before:1:1: expected 'def name := formula'"),
        ("-- a note\n\n", "empty:1:1: no definitions found"),
    ],
    ids=["duplicate", "line-before-def", "empty"],
)
def test_formula_file_scan_errors_raise_at_the_call(text, where):
    # raised by the line scan, before any body (here a broken one) is read
    source = where.partition(":")[0]
    with pytest.raises(ParseError, match=f"^{where}$"):
        parse_formula_file(text, source=source)


def test_formula_file_parses_a_body_once_when_it_is_read(monkeypatch):
    parsed = []
    real = parser.parse

    def counting_parse(text, *args):
        parsed.append(text)
        return real(text, *args)

    monkeypatch.setattr(parser, "parse", counting_parse)
    defs = parse_formula_file("def a := p\ndef b := q /\\\n  r\ndef c := (\n", source="f")
    assert (parsed, list(defs), len(defs), "c" in defs, "d" in defs) == (
        [], ["a", "b", "c"], 3, True, False,
    )
    first = defs["b"]
    assert parsed == ["q /\\\n  r"]
    assert defs["b"] is first and parsed == ["q /\\\n  r"]
    assert first == parse("q /\\ r")
    with pytest.raises(KeyError):
        defs["d"]
    with pytest.raises(ParseError, match="^f:4:11: "):
        defs["c"]


# ---------- round-trips (every corpus formula and model) ----------

@pytest.mark.parametrize("name", FORMULA_FILES)
def test_corpus_formulas_round_trip(name):
    defs = parse_formula_file(corpus_text(name), source=name)
    assert defs
    for label, expr in defs.items():
        printed = print_formula(expr)
        again = parse_formula(printed)
        assert alpha_eq(desugar(expr), desugar(again)), f"{name}#{label}: {printed}"


@pytest.mark.parametrize("name", MODEL_FILES)
def test_corpus_models_round_trip(name):
    model = validate_model(parse_model(corpus_text(name), source=name))
    printed = serialize_model(model)
    again = validate_model(parse_model(printed, source=name + " (printed)"))
    assert again.name == model.name
    assert again.objects == model.objects
    assert again.initial == model.initial
    assert again.atoms == model.atoms
    assert again.actions == model.actions
    assert again.valuation == model.valuation
    # transition probabilities survive bit for bit
    assert again.frame == model.frame
    assert {n: (t, v) for n, (t, v) in again.rigid.items()} == {
        n: (t, v) for n, (t, v) in model.rigid.items()
    }


def test_rationals_survive_round_trips_exactly():
    texts = [
        "Q[t](H) = 355/113",
        "Q[t](H) = 0.142857",
        "dia[t]{999999999999/1000000000000} H",
    ]
    for text in texts:
        assert round_trips(text)


@pytest.mark.parametrize(
    "text",
    [
        "Q[h; p(d1); o; s](V) > Q[h; p(d1); o; nos](V)",
        "forall d in D . (G(d) <-> ~ C(d))",
        "exists n : Picked . ~ (n = 3)",
        "@s0 (Q[t](H) = 1/2)",
        "box[t] (H \\/ T) /\\ dia[t]{1/2} H",
        "|(D - d1) - d2| = 1",
        "(lam x : obj . C(x))(d1)",
        "Q[t; t](H; T) = Q[t](H) * Q[t](T)",
        "in(s0) \\/ ~ in(s0)",
        "forall b : bool . b = b",
        # builtins applied to more arguments than they take
        "(p /\\ q)(s1)",
        "(@s0 p)(s1)",
        "(~ p)(s1)",
        "(x = y)(s1)",
        "|l|(x)",
        "(Q[](p) + 1)(x)",
    ],
)
def test_assorted_forms_round_trip(text):
    assert round_trips(text)


@st.composite
def core_terms(draw, scope=(), depth=4):
    """Desugared terms the surface grammar can express: nonnegative
    literals, typed binders, bound variables only under their binder
    (named by depth, so none is shadowed), and no division of two
    literals, which the parser folds into one literal."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        if draw(st.booleans()):
            return RatLit(draw(st.fractions(min_value=0, max_denominator=12)))
        names = [Symbol(n) for n in ("p", "q", "f", "s")] + [TOP, BOT, NIL, *scope]
        return Sym(draw(st.sampled_from(names)))
    sub = core_terms(scope, depth - 1)
    kind = draw(st.integers(0, 8))
    if kind == 0:
        op = draw(st.sampled_from(BINARY))
        left, right = draw(sub), draw(sub)
        if op == DIV and isinstance(left, RatLit) and isinstance(right, RatLit):
            left = Sym(Symbol("p"))
        return app(Sym(op), left, right)
    if kind == 1:
        return App(Sym(draw(st.sampled_from([NOT, IN_STATE, LENGTH]))), draw(sub))
    if kind == 2:
        param = Symbol(f"x{len(scope)}", draw(st.sampled_from(BINDER_TYPES)), "var")
        lam = Lam(param, draw(core_terms(scope + (param,), depth - 1)))
        shape = draw(st.sampled_from(["lam", "apply", FORALL, EXISTS]))
        if shape == "lam":
            return lam
        if shape == "apply":
            return app(lam, *draw(st.lists(sub, min_size=1, max_size=2)))
        return App(Sym(shape), lam)
    if kind == 3:
        head = draw(st.sampled_from([Sym(Symbol("f")), *(Sym(v) for v in scope)]))
        return app(head, *draw(st.lists(sub, min_size=1, max_size=2)))
    if kind == 4:
        state = draw(st.sampled_from([Sym(Symbol("s")), *(Sym(v) for v in scope)]))
        return app(Sym(AT), state, draw(sub))
    if kind == 5:
        return app(Sym(BOX), draw(sub), draw(sub))
    if kind == 6:
        return app(Sym(DIA), draw(sub), draw(sub))
    if kind == 7:
        return app(Sym(DIA_P), draw(sub), draw(sub), draw(sub))
    actions = tuple(draw(st.lists(sub, max_size=3)))
    n_props = len(actions) if actions and draw(st.booleans()) else 1
    return Q(actions, tuple(draw(sub) for _ in range(n_props)))


@settings(max_examples=300, deadline=None)
@given(core_terms())
def test_printing_then_parsing_gives_back_the_term(term):
    assert alpha_eq(parse(print_formula(term)), term)


# ---------- model text ----------

def test_parse_model_sections(coin):
    assert coin.name == "coin"
    assert coin.initial == "s0"
    assert set(coin.frame.states) == {"s0", "sh", "st"}
    assert coin.objects == ("c",)


def test_model_rejects_malformed_transition():
    text = corpus_text("coin.ptlm").replace("@ 1/2", "@", 1)
    with pytest.raises(ParseError):
        parse_model(text, source="broken")


def test_model_rejects_unknown_section():
    with pytest.raises(ParseError):
        parse_model("model m\nwidgets\n  a b\n", source="bad")
