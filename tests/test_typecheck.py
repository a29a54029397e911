"""Typing rules: bidirectional checking over the fixture signatures."""

import pytest

from ptl import parse
from ptl.errors import LengthMismatch, TypeMismatch, UnboundSymbol, UnenumerableQuantifier
from ptl.syntax import BOOL, FORALL, NUM, OBJ, PROP, STATE, App, Arrow, ListT, Sym, free
from ptl.typecheck import check_type, infer_type


def env_of(model):
    return model.type_env()


def infer(model, text):
    return infer_type(parse(text), env_of(model))


def check(model, text, ty):
    check_type(parse(text), ty, env_of(model))


# ---------- well-typed forms ----------

def test_atoms_and_connectives_are_props(twotoss):
    assert infer(twotoss, "H(c)") == PROP
    assert infer(twotoss, "H(c) /\\ ~ T(c)") == PROP
    assert infer(twotoss, "H(c) -> (T(c) <-> false)") == PROP


def test_q_yields_num(twotoss):
    assert infer(twotoss, "Q[t(c)](H(c))") == NUM
    assert infer(twotoss, "Q[t(c); t(c)](H(c); T(c))") == NUM
    assert infer(twotoss, "Q[t(c)](H(c)) + 1/2") == NUM


def test_comparisons_are_props(twotoss):
    assert infer(twotoss, "Q[t(c)](H(c)) = 1/2") == PROP
    assert infer(twotoss, "Q[t(c)](H(c)) < 1") == PROP
    assert infer(twotoss, "Q[t(c)](H(c)) > 1/3") == PROP


def test_modalities(twotoss):
    assert infer(twotoss, "box[t(c)] H(c)") == PROP
    assert infer(twotoss, "dia[t(c)] H(c)") == PROP
    assert infer(twotoss, "dia[t(c)]{1/2} H(c)") == PROP


def test_hybrid_forms(twotoss):
    assert infer(twotoss, "in(s0)") == PROP
    assert infer(twotoss, "@s0 H(c)") == PROP


def test_quantifiers_over_enumerable_types(twotoss):
    assert infer(twotoss, "forall x : obj . H(x)") == PROP
    assert infer(twotoss, "exists s : state . in(s)") == PROP
    assert infer(twotoss, "forall b : bool . b = b") == PROP


def test_membership_binder_types(twotoss):
    assert infer(twotoss, "forall x in (c :: nil) . H(x)") == PROP
    assert infer(twotoss, "exists x in (c :: nil) . H(x)") == PROP


def test_predicate_binder_quantifies_over_objects(montyhall):
    assert infer(montyhall, "exists d : C . P(d)") == PROP


def test_list_operations(montyhall):
    assert infer(montyhall, "D") == ListT(OBJ)
    assert infer(montyhall, "d1 :: nil") == ListT(OBJ)
    assert infer(montyhall, "|D|") == NUM
    # '-' removes one element from a list
    assert infer(montyhall, "D - d1") == ListT(OBJ)
    assert infer(montyhall, "d1 in D") == PROP


def test_equality_and_membership_are_state_indexed(montyhall):
    # relations produce propositions, not bare booleans
    assert infer(montyhall, "d1 = d2") == PROP
    assert infer(montyhall, "1 = 2") == PROP
    assert infer(montyhall, "D = nil") == PROP
    assert infer(montyhall, "nil = D") == PROP


def test_lambda_checks_against_arrows(twotoss):
    check(twotoss, "lam x : obj . H(x)", Arrow(OBJ, PROP))
    assert infer(twotoss, "(lam x : obj . H(x))(c)") == PROP


def test_bound_variable_occurrences_use_the_binder_type(twotoss):
    # desugared membership binders leave occurrences untyped; they pick
    # up their type from the environment the binder installs
    assert infer(twotoss, "forall x in (c :: nil) . (H(x) \\/ T(x))") == PROP


def test_nil_checks_at_any_list_type(montyhall):
    check(montyhall, "nil", ListT(OBJ))
    check(montyhall, "nil", ListT(NUM))


# ---------- rejected forms ----------

def test_bool_is_not_prop(twotoss):
    with pytest.raises(TypeMismatch):
        infer(twotoss, "forall b : bool . (b \\/ ~ b)")


def test_equality_requires_matching_sides(montyhall):
    # prop = prop is extensional at the current state and is fine;
    # prop = num is not
    assert infer(montyhall, "C(d1) = true") == PROP
    with pytest.raises(TypeMismatch):
        infer(montyhall, "C(d1) = 1")


@pytest.mark.parametrize(
    "text, found",
    [
        ("H = H", "obj -> prop for '='"),
        ("(lam x : obj . H(x)) = (lam x : obj . T(x))", "obj -> prop for '='"),
        ("H in (H :: nil)", "obj -> prop for 'in'"),
        ("(H :: nil) - H = (H :: nil)", "obj -> prop for '-'"),
    ],
)
def test_comparisons_reject_function_types(twotoss, text, found):
    # values of these types are functions, which do not compare
    with pytest.raises(TypeMismatch) as info:
        infer(twotoss, text)
    assert info.value.message == f"expected first-order operands, found {found}"


def test_comparisons_take_first_order_types(twotoss):
    for text in ("H(c) = T(c)", "t(c) = t(c)", "((c :: nil) :: nil) = nil",
                 "forall b : bool . b = b", "(t(c) :: nil) - t(c) = nil"):
        assert infer(twotoss, text) == PROP


@pytest.mark.parametrize(
    "text",
    [
        "forall b : bool . ((lam w : state . b) = H(c))",
        "forall b : bool . (lam f : prop . f)(lam w : state . b)",
        "box[lam w : state . w :: nil] H(c)",
    ],
)
def test_no_lambda_at_prop_or_action(twotoss, text):
    # a prop or action term evaluates to a truth value or an action at
    # the current state, never to a function
    with pytest.raises(TypeMismatch, match="^expected function, found lambda of type"):
        infer(twotoss, text)


@pytest.mark.parametrize("text", ["H(c)(s0) = T(c)(s0)", "(H(c) /\\ T(c))(s0) = (H(c))(s0)"])
def test_props_are_not_applied(twotoss, text):
    with pytest.raises(TypeMismatch, match="expected function, found prop$"):
        infer(twotoss, text)


def test_predicate_binder_rejects_non_object_predicates(dice12):
    with pytest.raises(TypeMismatch):
        infer(dice12, "exists n : Picked . n = 3")


def test_unbound_symbol(twotoss):
    with pytest.raises(UnboundSymbol):
        infer(twotoss, "Missing(c)")


def test_quantifier_over_num_is_rejected(twotoss):
    with pytest.raises(UnenumerableQuantifier):
        infer(twotoss, "forall n : num . n = n")


def test_quantifier_over_prop_is_rejected(twotoss):
    with pytest.raises(UnenumerableQuantifier):
        infer(twotoss, "forall p : prop . p")


def test_quantifier_needs_a_lambda(coin):
    # the surface syntax always builds one; a library caller may not
    with pytest.raises(TypeMismatch) as info:
        infer_type(App(Sym(FORALL), free("heads")), env_of(coin))
    assert info.value.message == "expected lambda, found obj -> prop for 'forall'"


def test_nil_on_both_sides_has_no_instance(montyhall):
    with pytest.raises(TypeMismatch) as info:
        infer(montyhall, "nil = nil")
    assert info.value.message == "expected applied occurrence, found bare builtin 'nil'"


def test_applied_nil_is_an_operand_count_error(coin):
    with pytest.raises(TypeMismatch) as info:
        infer(coin, "nil(c) = nil")
    assert info.value.message == "expected no operands, found 1 for 'nil'"


def test_q_trace_length_mismatch(twotoss):
    with pytest.raises(LengthMismatch):
        infer(twotoss, "Q[t(c); t(c)](H(c); T(c); H(c))")


def test_q_needs_action_arguments(twotoss):
    with pytest.raises(TypeMismatch):
        infer(twotoss, "Q[H(c)](T(c))")


def test_q_needs_prop_body(twotoss):
    with pytest.raises(TypeMismatch):
        infer(twotoss, "Q[t(c)](1/2)")


def test_at_needs_a_state(twotoss):
    with pytest.raises(TypeMismatch):
        infer(twotoss, "@c H(c)")


def test_annotation_must_be_numeric(twotoss):
    with pytest.raises(TypeMismatch):
        infer(twotoss, "dia[t(c)]{H(c)} T(c)")


def test_arithmetic_rejects_props(twotoss):
    with pytest.raises(TypeMismatch):
        infer(twotoss, "H(c) + 1")


def test_minus_rejects_numbers(twotoss):
    # '-' is list difference; there is no numeric subtraction
    with pytest.raises(TypeMismatch):
        infer(twotoss, "1 - 1/2")


def test_equality_mismatch(montyhall):
    with pytest.raises(TypeMismatch):
        infer(montyhall, "d1 = 1")


def test_membership_needs_matching_element(montyhall):
    with pytest.raises(TypeMismatch):
        infer(montyhall, "1 in D")


def test_partial_atom_application(montyhall):
    with pytest.raises(TypeMismatch):
        infer(montyhall, "C(d1)(d2)")


def test_error_spans_point_into_the_source(twotoss):
    with pytest.raises(TypeMismatch) as exc:
        infer(twotoss, "Q[t(c)](1/2)")
    assert exc.value.span is not None


def test_action_arity_enforced(montyhall):
    with pytest.raises(TypeMismatch):
        infer(montyhall, "box[p] V")
    with pytest.raises(TypeMismatch):
        infer(montyhall, "box[p(d1, d2)] V")
