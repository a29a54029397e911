"""Term construction, desugaring, and alpha equivalence."""

from fractions import Fraction

from ptl.parser import parse
from ptl.printer import print_formula
from ptl.syntax import (
    ACTION,
    BOOL,
    BOX,
    DIA,
    DIA_P,
    NUM,
    OBJ,
    PROP,
    STATE,
    App,
    Arrow,
    Lam,
    ListT,
    MemberBinder,
    PredBinder,
    Q,
    Sym,
    Symbol,
    action_arity,
    alpha_eq,
    app,
    atom_arg_types,
    conj,
    cons_list,
    desugar,
    disj,
    eq,
    free,
    imp,
    is_atom_signature,
    lt,
    neg,
    quant,
    rat,
    spine,
    sym,
    var,
)


def test_prop_and_action_are_arrow_types():
    assert PROP == Arrow(STATE, BOOL)
    assert ACTION == Arrow(STATE, ListT(STATE))


def test_atom_signature_shapes():
    assert is_atom_signature(PROP)
    assert is_atom_signature(Arrow(OBJ, PROP))
    assert is_atom_signature(Arrow(NUM, Arrow(OBJ, PROP)))
    assert not is_atom_signature(BOOL)
    assert not is_atom_signature(Arrow(PROP, PROP))
    assert atom_arg_types(Arrow(NUM, Arrow(OBJ, PROP))) == (NUM, OBJ)
    assert atom_arg_types(PROP) == ()


def test_action_arity():
    assert action_arity(ACTION) == 0
    assert action_arity(Arrow(OBJ, ACTION)) == 1
    assert action_arity(Arrow(OBJ, Arrow(OBJ, ACTION))) == 2
    assert action_arity(PROP) is None
    assert action_arity(Arrow(NUM, ACTION)) is None


def test_rat_builds_exact_literals():
    assert rat(1, 3).value == Fraction(1, 3)
    assert rat(Fraction(2, 6)).value == Fraction(1, 3)


def test_spine_unwinds_applications():
    f = free("f")
    e = app(f, rat(1), rat(2))
    head, args = spine(e)
    assert head is f
    assert [a.value for a in args] == [1, 2]


def test_cons_list_round_trip():
    e = cons_list([rat(1), rat(2), rat(3)])
    assert print_formula(e) == "1 :: 2 :: 3 :: nil"
    assert alpha_eq(parse(print_formula(e)), e)


def test_member_binder_desugars_to_guarded_quantifier():
    p = free("p")
    body = app(p, var("x", OBJ))
    bound = cons_list([free("a"), free("b")])
    all_form = desugar(MemberBinder("forall", "x", bound, body))
    # forall x . (x in L) -> body
    assert isinstance(all_form, App)
    head, args = spine(all_form)
    assert isinstance(head, Sym) and head.symbol.name == "forall"
    lam = args[0]
    assert isinstance(lam, Lam)
    guard_head, _ = spine(lam.body)
    assert isinstance(guard_head, Sym) and guard_head.symbol.name == "->"

    some_form = desugar(MemberBinder("exists", "x", bound, body))
    _, some_args = spine(some_form)
    some_head, _ = spine(some_args[0].body)
    assert isinstance(some_head, Sym) and some_head.symbol.name == "/\\"


def test_pred_binder_desugars_like_member_binder():
    body = eq(var("n", NUM), rat(3))
    form = desugar(PredBinder("exists", "n", "Picked", body))
    _, args = spine(form)
    lam = args[0]
    assert isinstance(lam, Lam)
    inner_head, inner_args = spine(lam.body)
    assert isinstance(inner_head, Sym) and inner_head.symbol.name == "/\\"
    pred_head, pred_args = spine(inner_args[0])
    assert isinstance(pred_head, Sym) and pred_head.symbol.name == "Picked"
    assert isinstance(pred_args[0], Sym) and pred_args[0].symbol.name == "n"


def test_desugar_reaches_under_modalities():
    inner = MemberBinder("forall", "x", cons_list([free("a")]), free("p"))
    boxed = desugar(app(Sym(BOX), free("act"), inner))
    assert spine(boxed)[0] == Sym(BOX)
    assert not isinstance(boxed.arg, MemberBinder)
    dia = desugar(app(Sym(DIA), free("act"), inner))
    assert not isinstance(dia.arg, MemberBinder)
    dia_p = desugar(app(Sym(DIA_P), free("act"), rat(1, 2), inner))
    assert not isinstance(dia_p.arg, MemberBinder)
    q = desugar(Q((free("act"),), (inner,)))
    assert not isinstance(q.props[0], MemberBinder)


def test_alpha_eq_ignores_bound_names():
    a = quant("forall", "x", OBJ, app(free("p"), var("x", OBJ)))
    b = quant("forall", "y", OBJ, app(free("p"), var("y", OBJ)))
    c = quant("forall", "y", OBJ, app(free("q"), var("y", OBJ)))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


def test_alpha_eq_matches_a_bound_occurrence_only_with_a_bound_one():
    bound = Lam(Symbol("x", OBJ, "var"), var("x", OBJ))
    captured = Lam(Symbol("x", OBJ, "var"), free("x"))
    assert alpha_eq(bound, Lam(Symbol("y", OBJ, "var"), var("y", OBJ)))
    assert not alpha_eq(captured, bound)
    assert not alpha_eq(bound, captured)
    assert not alpha_eq(parse("lam x : obj . x"), captured)
    assert alpha_eq(captured, captured)
    # outside any binder, a variable and a free name are different symbols
    assert not alpha_eq(conj(var("y", OBJ), free("p")), conj(free("y"), free("p")))


def test_alpha_eq_distinguishes_rationals():
    assert alpha_eq(rat(1, 2), rat(2, 4))
    assert not alpha_eq(rat(1, 2), rat(1, 3))


def test_connective_builders():
    p, q = free("p"), free("q")
    for built, name in [
        (neg(p), "~"),
        (conj(p, q), "/\\"),
        (disj(p, q), "\\/"),
        (imp(p, q), "->"),
        (eq(p, q), "="),
        (lt(rat(1), rat(2)), "<"),
    ]:
        head, _ = spine(built)
        assert isinstance(head, Sym) and head.symbol.name == name


def test_symbol_kinds():
    assert Symbol("x", OBJ, kind="var").kind == "var"
    assert free("f").symbol.kind == "free"
    assert sym(Symbol("c", OBJ, kind="rigid")).symbol.kind == "rigid"
