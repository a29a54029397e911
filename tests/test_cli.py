"""Command line interface: subcommands, exit codes, output shapes.

Exit code contract: 0 satisfied/valid, 1 violated, 2 usage, parse, type,
or model problems, 3 evaluation errors, 4 internal errors.
"""

import json

import pytest

from conftest import corpus_path, corpus_text

from ptl.checker import CheckReport
from ptl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- validate ----------

def test_validate_accepts_every_bundled_model(capsys, tmp_path):
    for name in (
        "coin.ptlm",
        "biasedcoin.ptlm",
        "twotoss.ptlm",
        "magicalcoin.ptlm",
        "bag4.ptlm",
        "bag5.ptlm",
        "dice12.ptlm",
        "twosucc.ptlm",
        "montyhall.ptlm",
    ):
        code, out, _ = run(capsys, "validate", corpus_path(name))
        assert code == 0, name
        assert "valid" in out


def test_validate_reports_the_exact_bad_sum(capsys, tmp_path):
    broken = corpus_text("coin.ptlm").replace("sh @ 1/2", "sh @ 1/3", 1)
    path = tmp_path / "broken.ptlm"
    path.write_text(broken)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "5/6" in err


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.ptlm")
    assert code == 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("--> st @ 1/2", "--> sx @ 1/2", "18:1: transition to unknown state sx"),
        ("s0 --toss(c)--> st", "s0 --flip(c)--> st",
         "18:1: transition under undeclared action flip"),
        ("s0 --toss(c)--> st", "s0 --toss(d)--> st",
         "18:1: action argument d is not a declared object"),
        ("s0 --toss(c)--> st", "s0 --toss--> st", "18:1: action toss takes 1 argument(s), got 0"),
        ("--> st @ 1/2", "--> st @ 3/2",
         "18:1: transition probability 3/2 for action toss(c) at state s0 is outside (0, 1]"),
        ("--> st @ 1/2", "--> st @ 1/3",
         "17:1: transition probabilities for action toss(c) at state s0 sum to 5/6, expected 1"),
        ("--> st @ 1/2\n", "--> st @ 1/2\n  s0 --toss(c)--> st @ 1/2\n",
         "19:1: duplicate transition s0 --toss(c)--> st"),
        ("tails : obj", "heads : obj", "14:1: symbol 'heads' already declared as symbol"),
        ("toss : obj -> action", "toss : obj -> prop",
         "10:1: 'toss : obj -> prop' is not an action signature"),
        ("st : tails(c)", "sx : tails(c)", "22:1: valuation for unknown state sx"),
        ("st : tails(c)", "st : tail(c)", "22:1: valuation mentions undeclared atom tail"),
        ("st : tails(c)", "st : tails", "22:1: atom tails takes 1 argument(s), got 0"),
        ("st : tails(c)", "st : tails(q)", "22:1: atom argument q is not a declared object"),
    ],
    ids=[
        "unknown-state", "unknown-action", "unknown-object", "arity", "range", "sum",
        "duplicate-transition", "duplicate-declaration", "action-signature",
        "valuation-state", "valuation-atom", "valuation-arity", "valuation-object",
    ],
)
def test_model_errors_name_the_file_and_line(capsys, tmp_path, old, new, message):
    path = tmp_path / "bad.ptlm"
    path.write_text(corpus_text("coin.ptlm").replace(old, new, 1))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:{message}\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("  n : num = 1 +", "15:16: unexpected token ''"),
        # reported by validation, from the definition's own spans
        ("  r : obj = zz", "15:13: unbound symbol 'zz'"),
        ("  k : obj -> ", "15:13: expected a type, found ''"),
    ],
    ids=["definition", "unbound", "type"],
)
def test_type_and_definition_errors_name_the_file_line_and_column(
    capsys, tmp_path, line, message
):
    path = tmp_path / "bad.ptlm"
    last = "tails : obj -> prop\n"
    path.write_text(corpus_text("coin.ptlm").replace(last, f"{last}{line}\n", 1))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:{message}\n")


def test_entail_names_the_bad_model_among_several(capsys, tmp_path):
    path = tmp_path / "bad.ptlm"
    path.write_text(corpus_text("coin.ptlm").replace("st : tails(c)", "st : tails(q)"))
    code, out, err = run(
        capsys, "entail", corpus_path("coin.ptlm"), str(path), corpus_path("biasedcoin.ptlm"),
        "--theory", corpus_path("coin.ptl"), "--conclusion", "true",
    )
    message = f"error: {path}:22:1: atom argument q is not a declared object\n"
    assert (code, out, err) == (2, "", message)


# ---------- eval ----------

def test_eval_inline_formula(capsys):
    code, out, _ = run(
        capsys, "eval", corpus_path("coin.ptlm"), "Q[toss(c)](heads(c))"
    )
    assert code == 0
    assert out.strip() == "1/2"


def test_eval_decimal_comment(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        corpus_path("coin.ptlm"),
        "Q[toss(c)](heads(c))",
        "--decimal",
    )
    assert code == 0
    assert out.strip() == "1/2  -- = 0.5 (approx)"


@pytest.mark.parametrize(
    "formula, approx",
    [
        ("1" + "0" * 400, "1e+400"),
        ("1/1" + "0" * 400, "1e-400"),
        # 2^1100 and 2^-1100 from an 1100-step Q on a 1/2 loop
        ("1 / Q[" + "; ".join(["a"] * 1100) + "](p)", "1.3583e+331"),
        ("Q[" + "; ".join(["a"] * 1100) + "](p)", "7.36215e-332"),
    ],
    ids=["large", "small", "large-q", "small-q"],
)
def test_decimal_comment_outside_the_float_range(capsys, tmp_path, formula, approx):
    model = tmp_path / "loop.ptlm"
    model.write_text(
        "model loop\nstates s0 s1\ninitial s0\nactions\n  a : action\n"
        "types\n  p : prop\ntransitions\n  s0 --a--> s0 @ 1/2\n  s0 --a--> s1 @ 1/2\n"
        "  s1 --a--> s1 @ 1\nvaluation\n  s0 : p\n"
    )
    code, out, err = run(capsys, "eval", str(model), formula, "--decimal")
    assert (code, err) == (0, "")
    assert out.endswith(f"  -- = {approx} (approx)\n")


def test_decimal_comment_of_a_comparison_outside_the_float_range(capsys):
    tiny = "1/1" + "0" * 400
    code, out, err = run(capsys, "check", corpus_path("coin.ptlm"),
                         f"{tiny} < Q[toss(c)](heads(c))", "--decimal")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == (
        f"  {tiny} < 1/2 = Q[toss(c)](heads(c))  -- = 1e-400 (approx)"
    )


def test_eval_formula_file_labels_every_definition(capsys):
    code, out, _ = run(
        capsys, "eval", corpus_path("twotoss.ptlm"), corpus_path("twotoss.ptl")
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("single = ") for line in lines)
    assert any(line.startswith("two_heads = ") for line in lines)


def test_eval_single_definition_by_fragment(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        corpus_path("twotoss.ptlm"),
        corpus_path("twotoss.ptl") + "#two_heads",
    )
    assert code == 0
    # named definitions keep their label
    assert out.strip() == "two_heads = 1/4"


def test_eval_at_explicit_state(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        corpus_path("twotoss.ptlm"),
        "Q[t(c)](H(c))",
        "--state",
        "sh",
    )
    assert code == 0
    assert out.strip() == "1/2"


def test_eval_disabled_action_is_an_evaluation_error(capsys):
    code, _, err = run(
        capsys,
        "eval",
        corpus_path("coin.ptlm"),
        "Q[toss(c)](heads(c))",
        "--state",
        "sh",
    )
    assert code == 3
    assert "disabled" in err or "toss" in err


def test_eval_type_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", corpus_path("coin.ptlm"), "Q[toss(c)](1)")
    assert code == 2


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", corpus_path("coin.ptlm"), "Q[")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", corpus_path("coin.ptlm"), "missing.ptl"],
        ["check", corpus_path("coin.ptlm"), "missing.ptl#x"],
        ["entail", corpus_path("coin.ptlm"), "--theory", corpus_path("coin.ptl"),
         "--conclusion", "missing.ptl"],
    ],
    ids=["file", "fragment", "conclusion"],
)
def test_a_missing_formula_file_is_reported_by_name(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'missing.ptl'\n"


BROKEN_DEFS = (
    "def ok := Q[toss(c)](heads(c)) = 1/2\n"
    "def typo := heads(zz)\n"
    "def bad :=\n  heads(c) /\\\n"
)


def test_a_definition_checks_while_another_does_not_parse(capsys, tmp_path):
    path = tmp_path / "f.ptl"
    path.write_text(BROKEN_DEFS)
    code, out, err = run(capsys, "check", corpus_path("coin.ptlm"), f"{path}#ok")
    assert (code, out, err) == (0, "ok: satisfied\n  Q[toss(c)](heads(c)) = 1/2 = 1/2\n", "")


@pytest.mark.parametrize(
    "command",
    [
        ["check", corpus_path("coin.ptlm"), "{path}"],
        ["eval", corpus_path("coin.ptlm"), "{path}"],
        ["entail", corpus_path("coin.ptlm"), "--theory", "{path}", "--conclusion", "missing.ptl"],
        ["independent", corpus_path("coin.ptlm"), "toss(c)", "toss(c)", "--props", "{path}"],
    ],
    ids=["check", "eval", "entail", "independent"],
)
def test_whole_file_commands_report_the_first_parse_error(capsys, tmp_path, command):
    # every body parses before any typechecks, so bad's syntax error
    # comes before typo's unbound symbol
    path = tmp_path / "f.ptl"
    path.write_text(BROKEN_DEFS)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in command))
    assert (code, out, err) == (2, "", f"error: {path}:4:14: unexpected token ''\n")


def test_nesting_past_the_parsers_limit_is_one_line_exit_2(capsys):
    formula = "(" * 1000 + "heads(c)" + ")" * 1000
    code, out, err = run(capsys, "check", corpus_path("coin.ptlm"), formula)
    assert (code, out, err) == (2, "", "error: input nested too deeply\n")


@pytest.mark.parametrize(
    "formula, message",
    [
        ("toss(c)(s0) = nil", "expected function, found action"),
        ("(heads :: nil) - heads = nil",
         "expected first-order operands, found obj -> prop for '-'"),
    ],
    ids=["applied-action", "list-difference"],
)
def test_nil_on_the_right_keeps_the_left_operands_error(capsys, formula, message):
    code, _, err = run(capsys, "check", corpus_path("coin.ptlm"), formula)
    assert code == 2
    assert err.rstrip().endswith(message)


def test_eval_takes_a_2000_step_q(capsys, tmp_path):
    # a recursive path walk fails here as "input nested too deeply"
    path = tmp_path / "loop.ptlm"
    path.write_text(
        "model loop\nstates s0 s1\ninitial s0\nactions\n  a : action\n"
        "types\n  p : prop\ntransitions\n  s0 --a--> s0 @ 1/2\n"
        "  s0 --a--> s1 @ 1/2\n  s1 --a--> s1 @ 1\nvaluation\n  s1 : p\n"
    )
    k = 2000
    code, out, err = run(capsys, "eval", str(path), f"Q[{'; '.join(['a'] * k)}](p)")
    assert (code, err) == (0, "")
    assert out == f"{2**k - 1}/{2**k}\n"


# ---------- check ----------

def test_check_satisfied(capsys):
    code, out, _ = run(
        capsys, "check", corpus_path("coin.ptlm"), "Q[toss(c)](heads(c)) = 1/2"
    )
    assert code == 0
    assert "satisfied" in out


def test_check_violated_prints_the_comparison(capsys):
    code, out, _ = run(
        capsys, "check", corpus_path("coin.ptlm"), "Q[toss(c)](heads(c)) = 2/3"
    )
    assert code == 1
    assert "violated" in out
    assert "1/2" in out and "2/3" in out


def test_check_evaluates_each_comparison_side_once(capsys, successor_calls):
    code, out, _ = run(
        capsys, "check", corpus_path("coin.ptlm"), "Q[toss(c)](heads(c)) = 1/2"
    )
    assert code == 0
    assert "Q[toss(c)](heads(c)) = 1/2 = 1/2" in out
    assert len(successor_calls) == 1


MODAL_BRANCH = """model branch
states s0 s1 s2
initial s0
actions
  a : action
  b : action
types
  p : prop
  q : prop
transitions
  s0 --a--> s1 @ 1/2
  s0 --a--> s2 @ 1/2
  s1 --b--> s1 @ 1
valuation
  s0 : p
  s1 : q
"""


@pytest.mark.parametrize(
    "formula",
    [
        "box[a] (p /\\ Q[b](q) = 1)",
        "dia[a] (q \\/ Q[b](q) = 1)",
        "dia[a]{1/2} (q \\/ Q[b](q) = 1)",
    ],
    ids=["box", "dia", "dia-p"],
)
def test_modal_nodes_evaluate_the_body_at_every_successor(capsys, tmp_path, formula):
    # s1 already decides each value, but the body is still evaluated at
    # s2, where b is disabled
    path = tmp_path / "branch.ptlm"
    path.write_text(MODAL_BRANCH)
    code, out, err = run(capsys, "check", str(path), formula)
    # an evaluation error is a report like any verdict: stdout, exit 3
    assert (code, err) == (3, "")
    assert "action b has no transitions at state s2" in out


def test_check_witness_locates_the_failure(capsys):
    code, out, _ = run(
        capsys,
        "check",
        corpus_path("montyhall.ptlm"),
        corpus_path("montyhall.ptl") + "#failed_any_pick",
        "--state",
        "s0",
    )
    assert code == 1
    assert "c1_p1_o3" in out


def test_check_global_flag(capsys):
    code, out, _ = run(
        capsys,
        "check",
        corpus_path("twosucc.ptlm"),
        "hit \\/ in(s0)",
        "--global",
    )
    assert code == 0


def test_check_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "check",
        corpus_path("coin.ptlm"),
        "Q[toss(c)](heads(c)) = 2/3",
        "--json",
    )
    assert code == 1
    data = json.loads(out)
    report = CheckReport.from_dict(data)
    assert report.verdict == "violated"
    assert str(report.numeric) == "1/2"
    # serialization is canonical: keys sorted, two-space indent
    assert out.strip() == json.dumps(data, sort_keys=True, indent=2)


def test_check_output_is_deterministic(capsys):
    args = (
        "check",
        corpus_path("montyhall.ptlm"),
        corpus_path("montyhall.ptl") + "#conjecture",
        "--json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


# ---------- entail ----------

def test_entail_reports_family_size(capsys):
    code, out, _ = run(
        capsys,
        "entail",
        corpus_path("twotoss.ptlm"),
        "--theory",
        corpus_path("twotoss.ptl"),
        "--conclusion",
        "dia[t(c)]{1/2} H(c)",
    )
    assert code == 0
    assert "entailment relative to 1 supplied model(s)" in out
    assert "satisfied" in out


def test_entail_violated(capsys, tmp_path):
    theory = tmp_path / "sixth.ptl"
    theory.write_text("def sixth := @s0 (Q[roll](Picked(3)) = 1/6)\n")
    code, out, _ = run(
        capsys,
        "entail",
        corpus_path("dice12.ptlm"),
        "--theory",
        str(theory),
        "--conclusion",
        "@s0 (dia[roll]{1/6} Picked(3))",
    )
    assert code == 1
    assert "violated" in out
    assert "dice12" in out


# ---------- independent ----------

def test_independent_violated_for_the_flipping_coin(capsys, tmp_path):
    props = tmp_path / "props.ptl"
    props.write_text("def h := H\n")
    code, out, _ = run(
        capsys,
        "independent",
        corpus_path("magicalcoin.ptlm"),
        "t",
        "t",
        "--props",
        str(props),
    )
    assert code == 1
    assert "violated" in out


def test_independent_satisfied_for_repeated_tosses(capsys):
    code, out, _ = run(
        capsys, "independent", corpus_path("twotoss.ptlm"), "t(c)", "t(c)"
    )
    assert code == 0
    assert "satisfied" in out


def test_independent_reads_a_primed_action_name(capsys, tmp_path):
    model = tmp_path / "flip.ptlm"
    model.write_text(
        "model flip\nstates s0 s1\ninitial s0\n"
        "actions\n  flip' : action\n  b : action\ntypes\n  p : prop\n"
        "transitions\n  s0 --flip'--> s1 @ 1\n  s1 --flip'--> s0 @ 1\n"
        "  s0 --b--> s0 @ 1\n  s1 --b--> s1 @ 1\nvaluation\n  s1 : p\n"
    )
    code, out, err = run(capsys, "independent", str(model), "flip'", "b")
    assert (code, err) == (0, "")
    assert out.startswith("independence of flip' from b over all ground atoms\nsatisfied")


# ---------- translate and adequacy ----------

def test_translate_emits_a_valid_model(capsys, tmp_path):
    code, out, _ = run(capsys, "translate", corpus_path("die.pspace"))
    assert code == 0
    path = tmp_path / "die.ptlm"
    path.write_text(out)
    code2, out2, _ = run(capsys, "validate", str(path))
    assert code2 == 0


def test_adequacy_fixture_spaces(capsys):
    for name in ("die.pspace", "biased2.pspace"):
        code, out, _ = run(capsys, "adequacy", corpus_path(name))
        assert code == 0, name
        assert "satisfied" in out


def test_adequacy_prints_the_witness_of_a_wrong_probability(capsys, wrong_probability):
    wrong_probability(29)
    code, out, err = run(capsys, "adequacy", corpus_path("die.pspace"))
    assert (code, err) == (1, "")
    assert out == (
        "die: violated (29 events checked)\n"
        "  witness:\n"
        "    event: ~ (one \\/ two)\n"
        "    measure: 2/3\n"
        "    probability: 17/21\n"
    )


def test_keyword_named_outcomes_check_and_translate(capsys, tmp_path):
    space = tmp_path / "k.pspace"
    space.write_text("space k\noutcomes: true nil box\n"
                     "mass: true 1/2\nmass: nil 1/3\nmass: box 1/6\n")
    assert run(capsys, "adequacy", str(space)) == (0, "k: satisfied (8 events checked)\n", "")
    model = tmp_path / "k.ptlm"
    code, _, err = run(capsys, "translate", str(space), "-o", str(model))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "validate", str(model))
    assert (code, err) == (0, "")
    assert out.endswith(": valid (4 states, 3 transitions, 3 atoms, 1 actions)\n")


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-events", "-1", "max_events must be at least 1, got -1"),
        ("--max-events", "0", "max_events must be at least 1, got 0"),
        ("--depth", "-1", "event depth must be at least 0, got -1"),
    ],
    ids=["negative-cap", "zero-cap", "negative-depth"],
)
def test_adequacy_rejects_bad_caps(capsys, option, value, message):
    # an option's error does not name the space file
    path = corpus_path("die.pspace")
    assert run(capsys, "adequacy", path, option, value) == (2, "", f"error: {message}\n")


def test_adequacy_rejects_bad_space(capsys, tmp_path):
    text = corpus_text("die.pspace").replace("mass: six 1/6", "mass: six 1/5")
    path = tmp_path / "bad.pspace"
    path.write_text(text)
    code, _, err = run(capsys, "adequacy", str(path))
    assert code == 2
    assert "31/30" in err


@pytest.mark.parametrize("command", ["adequacy", "translate"])
@pytest.mark.parametrize(
    "body, message",
    [
        ("outcomes: a b\nmass: a 1/2\nmass: c 1/2\n",
         "mass assigned to undeclared outcome 'c'"),
        ("outcomes: a a\nmass: a 1\n", "outcome 'a' declared twice"),
        ("outcomes: a b\nmass: a 1\n", "outcome 'b' has no mass assigned"),
        ("outcomes: a b\nmass: a 3/2\nmass: b 1/2\n",
         "mass 3/2 of outcome a in space d is outside [0, 1]"),
        ("outcomes: a b\nmass: a 1/2\nmass: b 1/3\n",
         "outcome masses of space d sum to 5/6, expected 1"),
        ("outcomes: init b\nmass: init 1/2\nmass: b 1/2\n",
         "outcome 'init' collides with a generated name of the translation"),
    ],
    ids=["undeclared", "duplicate", "missing-mass", "range", "sum", "reserved-name"],
)
def test_space_validation_errors_name_the_file(capsys, tmp_path, command, body, message):
    path = tmp_path / "bad.pspace"
    path.write_text("space d\n" + body)
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# ---------- corpus ----------

def test_corpus_default_runs_the_bundled_manifest(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "total:" in out
    assert "0 failed" in out.splitlines()[-1]
    # per-tag summaries are present
    assert any(line.startswith("montyhall:") for line in out.splitlines())


def test_corpus_filter_by_tag(capsys):
    code, out, _ = run(capsys, "corpus", "--filter", "coin")
    assert code == 0
    assert all(
        line.startswith(("PASS [coin]", "coin:", "total:"))
        for line in out.strip().splitlines()
        if line
    )


def test_corpus_missing_manifest(capsys, tmp_path):
    code, _, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2
    assert "no fixtures" in err


def test_corpus_empty_manifest(capsys, tmp_path):
    (tmp_path / "manifest.txt").write_text("-- nothing\n")
    code, _, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2
    assert "no fixtures" in err


def test_corpus_detects_a_tampered_expectation(capsys, tmp_path):
    for name in ("coin.ptlm", "coin.ptl"):
        (tmp_path / name).write_text(corpus_text(name))
    (tmp_path / "manifest.txt").write_text(
        "[coin] coin.ptlm coin.ptl#heads_prob - expect 2/3\n"
    )
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "FAIL" in out
    assert "got 1/2" in out


def test_corpus_rational_row_names_a_value_that_is_no_number(capsys, tmp_path):
    (tmp_path / "coin.ptlm").write_text(corpus_text("coin.ptlm"))
    (tmp_path / "f.ptl").write_text("def pred := lam x : obj . heads(x)\n")
    (tmp_path / "manifest.txt").write_text(
        "[coin] coin.ptlm f.ptl#pred - expect 1/2\n"
    )
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    assert "FAIL [coin] coin.ptlm f.ptl#pred - expect 1/2 (got error: formula evaluated to " in out


def test_corpus_counts_a_missing_file_as_a_failed_row(capsys, tmp_path):
    for name in ("coin.ptlm", "coin.ptl"):
        (tmp_path / name).write_text(corpus_text(name))
    (tmp_path / "manifest.txt").write_text(
        "[coin] nope.ptlm coin.ptl#heads_prob - expect 1/2\n"
        "[coin] coin.ptlm coin.ptl#heads_prob - expect 1/2\n"
    )
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith(
        "FAIL [coin] nope.ptlm coin.ptl#heads_prob - expect 1/2 (got error: [Errno 2] "
    )
    assert lines[1] == "PASS [coin] coin.ptlm coin.ptl#heads_prob - expect 1/2"
    assert lines[-2:] == ["coin: 1 passed, 1 failed", "total: 1 passed, 1 failed"]


def test_corpus_malformed_row(capsys, tmp_path):
    (tmp_path / "manifest.txt").write_text("this is not a row\n")
    code, _, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2
    assert "bad manifest row" in err


# ---------- crashes never read as verdicts ----------

def assert_one_line(err):
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_non_utf8_model_exits_2_naming_the_file(capsys, tmp_path):
    path = tmp_path / "latin1.ptlm"
    text = corpus_text("coin.ptlm").replace("One-shot", "Caf\u00e9 one-shot")
    path.write_bytes(text.encode("latin-1"))
    code, _, err = run(capsys, "eval", str(path), "heads(c)")
    assert code == 2
    assert str(path) in err and "UTF-8" in err
    assert_one_line(err)


@pytest.mark.parametrize(
    "exc, exit_code, line",
    [
        (RecursionError("maximum recursion depth exceeded"), 2,
         "error: input nested too deeply"),
        (RuntimeError("boom"), 4, "internal error: RuntimeError: boom"),
    ],
    ids=["recursion", "internal"],
)
def test_unexpected_exceptions_get_one_line_and_never_exit_1(
    capsys, monkeypatch, exc, exit_code, line
):
    def crash(args):
        raise exc

    monkeypatch.setattr("ptl.cli.cmd_eval", crash)
    code, _, err = run(capsys, "eval", corpus_path("coin.ptlm"), "heads(c)")
    assert code == exit_code
    assert err == line + "\n"
    assert_one_line(err)
