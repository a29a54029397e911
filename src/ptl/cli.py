"""Command-line front end.

Subcommands: validate, eval, check, entail, independent, translate,
adequacy, corpus. Exit codes: 0 satisfied/valid, 1 violated (with a
counterexample when one exists), 2 usage/parse/type/model errors (input
files that are not UTF-8 and input nested too deeply included), 3
evaluation errors, 4 internal errors; past argument parsing, every error
is one stderr line. All numbers print as exact rationals; --decimal adds
an approximate value as a trailing comment, never replacing the exact
one. Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Mapping
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .adequacy import check_adequacy, parse_space, translate_space
from .checker import (
    ERROR,
    SATISFIED,
    VIOLATED,
    CheckReport,
    Theory,
    check_independent,
    comparison,
    entails,
    globally_satisfies,
    satisfies,
)
from .errors import (
    EvalError,
    ModelError,
    ParseError,
    PtlError,
    UnknownAction,
    UnknownObject,
    UnknownState,
)
from .evaluator import describe, evaluate
from .model import Model, serialize_model, validate_model
from .parser import ground_term, parse, parse_formula_file, parse_model, parse_rational, strip_comment
from .syntax import Expr, RatLit
from .typecheck import infer_type
from .values import BoolV, GroundAction, RatV, render_rational, render_value

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_EVAL = 3
EXIT_INTERNAL = 4


# ---------- loading helpers ----------


def _read(path) -> str:
    """A file's text, decoded as UTF-8; other bytes are a usage error
    that names the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def _load_model(path: str) -> Model:
    return validate_model(parse_model(_read(Path(path)), source=path))


@contextmanager
def _named(name: str):
    """Prefix `name: ` to the message of a PtlError raised inside."""
    try:
        yield
    except PtlError as exc:
        exc.message = f"{name}: {exc.message}"
        exc.args = (exc.message,)
        raise


def _load_formulas(ref: str) -> list[tuple[str, Expr]]:
    """A formula argument is inline text, a .ptl file (all definitions, in
    order), or `file.ptl#name` for one definition. An argument ending in
    `.ptl` always names a file, so a missing one is reported as missing."""
    if "#" in ref:
        path, _, frag = ref.partition("#")
        defs = parse_formula_file(_read(Path(path)), source=path)
        if frag not in defs:
            raise ParseError(f"{path} has no definition named '{frag}'")
        return [(frag, defs[frag])]
    if ref.endswith(".ptl"):
        # every body is parsed, in file order, before any is typechecked
        return list(parse_formula_file(_read(Path(ref)), source=ref).items())
    return [("formula", parse(ref, source="<arg>"))]


def _load_one_formula(ref: str, what: str) -> Expr:
    pairs = _load_formulas(ref)
    if len(pairs) != 1:
        raise ParseError(
            f"{what} needs exactly one formula; "
            f"'{ref}' has {len(pairs)} (use file.ptl#name)"
        )
    return pairs[0][1]


def _resolve_state(model: Model, state: str | None) -> str:
    if state is not None:
        if state not in model.frame.state_index:
            raise UnknownState(f"model {model.name} has no state '{state}'")
        return state
    if model.initial is not None:
        return model.initial
    raise ModelError(
        f"model {model.name} declares no initial state; pass --state"
    )


def _typecheck(model: Model, name: str, expr: Expr) -> None:
    with _named(name):
        infer_type(expr, model.type_env())


def _parse_ground_action(text: str, model: Model) -> GroundAction:
    term = ground_term(text)
    if term is None:
        raise ParseError(f"'{text}' is not a ground action (name or name(obj, ...))")
    name, args = term
    if name not in model.actions:
        raise UnknownAction(f"model {model.name} has no action '{name}'")
    if len(args) != model.actions[name]:
        raise UnknownAction(
            f"action {name} takes {model.actions[name]} argument(s), got {len(args)}"
        )
    for a in args:
        if a not in model.objects:
            raise UnknownObject(f"'{a}' is not an object of model {model.name}")
    return GroundAction(name, args)


# ---------- output helpers ----------


def _decimal_comment(value: Fraction) -> str:
    try:
        approx = float(value)
    except OverflowError:
        approx = 0.0  # like an underflow, left to _six_digits
    text = f"{approx:.6g}" if approx or not value else _six_digits(value)
    return f"  -- = {text} (approx)"


def _six_digits(value: Fraction) -> str:
    """A positive value beyond the float range, as `.6g` writes a float:
    six significant digits, rounded half to even, in exponent notation."""
    # within one of the decimal exponent of value, from its binary one
    exp = (value.numerator.bit_length() - value.denominator.bit_length()) * 30103 // 100000
    while value >= Fraction(10) ** (exp + 1):
        exp += 1
    while value < Fraction(10) ** exp:
        exp -= 1
    digits = round(value / Fraction(10) ** (exp - 5))
    if digits == 10**6:
        digits, exp = digits // 10, exp + 1
    mantissa = f"{digits // 10**5}.{digits % 10**5:05d}".rstrip("0").rstrip(".")
    return f"{mantissa}e{exp:+03d}"


def _rational_text(value: Fraction, decimal: bool) -> str:
    text = render_rational(value)
    return text + _decimal_comment(value) if decimal else text


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _comparison_line(report: CheckReport, expr: Expr, decimal: bool) -> str | None:
    """For a relation between two numeric sides, a one-line reading with
    both exact values as `satisfies` recorded them, e.g.
    `Q[...](V) = 1/3 < 2/3 = Q[...](V)`."""
    if "lhs" not in report.details:
        return None
    _, lhs, rhs = comparison(expr)
    lv, rv = Fraction(report.details["lhs"]), Fraction(report.details["rhs"])
    op = "<" if lv < rv else ("=" if lv == rv else ">")
    left = f"{describe(lhs)} = " if not isinstance(lhs, RatLit) else ""
    right = f" = {describe(rhs)}" if not isinstance(rhs, RatLit) else ""
    line = f"{left}{render_rational(lv)} {op} {render_rational(rv)}{right}"
    return line + _decimal_comment(lv) if decimal else line


def _witness_lines(witness: dict) -> list[str]:
    lines = [f"witness: state {witness['state']}" if "state" in witness else "witness:"]
    for key in ("from_state", "prop", "event", "measure", "probability"):
        if key in witness:
            lines.append(f"  {key.replace('_', ' ')}: {witness[key]}")
    for step in witness.get("trail", []):
        match step.get("step"):
            case "box":
                lines.append(f"  after {step['action']} -> {step['state']}")
            case "at":
                lines.append(f"  at {step['state']}")
            case "instantiate":
                lines.append(f"  {step['var']} := {step['value']}")
            case "fails":
                lines.append(f"  fails at {step['state']}: {step['formula']}")
            case _:
                lines.append(f"  {step}")
    return lines


def _report_lines(name: str | None, report: CheckReport, decimal: bool) -> list[str]:
    head = report.verdict if name is None else f"{name}: {report.verdict}"
    lines = [head]
    if report.verdict == ERROR and report.message:
        lines.append(f"  {report.message}")
    if report.numeric is not None and "lhs" not in report.details:
        lines.append(f"  value = {_rational_text(report.numeric, decimal)}")
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")
    if report.witness:
        lines.extend("  " + line for line in _witness_lines(report.witness))
    return lines


def _verdict_exit(report: CheckReport) -> int:
    if report.verdict == ERROR:
        return EXIT_EVAL
    return EXIT_OK if report.verdict == SATISFIED else EXIT_VIOLATED


# ---------- subcommands ----------


def cmd_validate(args) -> int:
    for path in args.model:
        model = _load_model(path)
        edges = sum(len(v) for v in model.frame.transitions.values())
        print(
            f"{path}: valid ({len(model.states)} states, {edges} transitions, "
            f"{len(model.atoms)} atoms, {len(model.actions)} actions)"
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    state = _resolve_state(model, args.state)
    pairs = _load_formulas(args.formula)
    bare = len(pairs) == 1 and pairs[0][0] == "formula"
    results = []
    any_false = False
    for name, expr in pairs:
        _typecheck(model, name, expr)
        value = evaluate(model, state, expr)
        match value:
            case BoolV(b):
                rendered: object = b
                text = "true" if b else "false"
                any_false = any_false or not b
            case RatV(v):
                rendered = render_rational(v)
                text = _rational_text(v, args.decimal)
            case _:
                rendered = render_value(value)
                text = rendered
        results.append({"name": name, "value": rendered})
        if not args.json:
            print(text if bare else f"{name} = {text}")
    if args.json:
        _emit_json(results[0] if len(results) == 1 else results)
    return EXIT_VIOLATED if any_false else EXIT_OK


def cmd_check(args) -> int:
    model = _load_model(args.model)
    state = None if args.global_ else _resolve_state(model, args.state)
    pairs = _load_formulas(args.formula)
    bare = len(pairs) == 1 and pairs[0][0] == "formula"
    outcome = EXIT_OK
    payload = []
    for name, expr in pairs:
        _typecheck(model, name, expr)
        if args.global_:
            report = globally_satisfies(model, expr)
        else:
            report = satisfies(model, state, expr)
        payload.append((name, report))
        outcome = max(outcome, _verdict_exit(report))
        if args.json:
            continue
        label = None if bare else name
        lines = _report_lines(label, report, args.decimal)
        if not args.global_:
            reading = _comparison_line(report, expr, args.decimal)
            if reading:
                lines.insert(1, f"  {reading}")
        print("\n".join(lines))
    if args.json:
        if len(payload) == 1:
            _emit_json(payload[0][1].to_dict())
        else:
            _emit_json([{"name": n, "report": r.to_dict()} for n, r in payload])
    return outcome


def cmd_entail(args) -> int:
    models = [_load_model(path) for path in args.model]
    # every axiom is parsed, in file order, before the conclusion is read
    theory_defs = dict(parse_formula_file(_read(Path(args.theory)), source=args.theory))
    theory = Theory(Path(args.theory).stem, theory_defs)
    conclusion = _load_one_formula(args.conclusion, "--conclusion")
    for model in models:
        for name, axiom in theory.axioms.items():
            _typecheck(model, f"{model.name}/{name}", axiom)
        _typecheck(model, f"{model.name}/conclusion", conclusion)
    report = entails(models, theory, conclusion)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(f"entailment relative to {len(models)} supplied model(s)")
        lines = _report_lines(None, report, args.decimal)
        if report.verdict == VIOLATED and "model" in report.details:
            lines.insert(1, f"  countermodel: {report.details['model']}")
        print("\n".join(lines))
    return _verdict_exit(report)


def cmd_independent(args) -> int:
    model = _load_model(args.model)
    a = _parse_ground_action(args.action_a, model)
    b = _parse_ground_action(args.action_b, model)
    props = None
    if args.props:
        defs = dict(parse_formula_file(_read(Path(args.props)), source=args.props))
        for name, expr in defs.items():
            _typecheck(model, name, expr)
        props = list(defs.values())
    report = check_independent(model, a, b, props)
    if args.json:
        _emit_json(report.to_dict())
    else:
        family = "all ground atoms" if props is None else f"{len(props)} propositions"
        print(f"independence of {a} from {b} over {family}")
        print("\n".join(_report_lines(None, report, args.decimal)))
    return _verdict_exit(report)


def cmd_translate(args) -> int:
    space = parse_space(_read(Path(args.space)), source=args.space)
    with _named(args.space):  # the space's own faults name its file
        model = translate_space(space)
    text = serialize_model(model)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_adequacy(args) -> int:
    space = parse_space(_read(Path(args.space)), source=args.space)
    with _named(args.space):  # the space's own faults name its file, an option's do not
        model = translate_space(space)
    report = check_adequacy(space, depth=args.depth, max_events=args.max_events, model=model)
    if args.json:
        _emit_json(report.to_dict())
    else:
        checked = report.details.get("events_checked", 0)
        print(f"{space.name}: {report.verdict} ({checked} events checked)")
        if report.witness:
            print("\n".join("  " + line for line in _witness_lines(report.witness)))
    return _verdict_exit(report)


# ---------- corpus ----------

_ROW = re.compile(
    r"^\[([^\]]+)\]\s+(\S+)\s+(\S+)\s+(\S+)\s+expect\s+(\S+)$"
)


def _corpus_root(arg: str | None):
    if arg is not None:
        return Path(arg)
    return resources.files("ptl").joinpath("corpus")


def cmd_corpus(args) -> int:
    root = _corpus_root(args.dir)
    manifest = root.joinpath("manifest.txt")
    try:
        text = _read(manifest)
    except (FileNotFoundError, OSError):
        print("no fixtures", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        m = _ROW.match(line)
        if not m:
            print(f"error: {manifest}:{lineno}: bad manifest row '{line}'", file=sys.stderr)
            return EXIT_USAGE
        rows.append((lineno,) + m.groups())
    if args.filter:
        rows = [r for r in rows if r[1] == args.filter]
    if not rows:
        print("no fixtures", file=sys.stderr)
        return EXIT_USAGE

    models: dict[str, Model] = {}
    formulas: dict[str, Mapping[str, Expr]] = {}
    counts: dict[str, list[int]] = {}
    failures = 0
    for lineno, tag, model_file, formula_ref, state_field, expect in rows:
        ok, got = _run_row(root, models, formulas, model_file, formula_ref, state_field, expect)
        counts.setdefault(tag, [0, 0])[0 if ok else 1] += 1
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        line = f"{status} [{tag}] {model_file} {formula_ref} {state_field} expect {expect}"
        if not ok:
            line += f" (got {got})"
        print(line)
    print()
    for tag, (passed, failed) in counts.items():
        print(f"{tag}: {passed} passed, {failed} failed")
    total = sum(p + f for p, f in counts.values())
    print(f"total: {total - failures} passed, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_VIOLATED


def _run_row(root, models, formulas, model_file, formula_ref, state_field, expect):
    """One manifest row; returns (passed, got-description). Errors, a
    missing file included, count as failures, never abort the run."""
    try:
        if model_file not in models:
            models[model_file] = validate_model(
                parse_model(_read(root.joinpath(model_file)), source=model_file)
            )
        model = models[model_file]
        path, _, frag = formula_ref.partition("#")
        if not frag:
            raise ParseError(f"formula reference '{formula_ref}' needs file.ptl#name")
        if path not in formulas:
            formulas[path] = parse_formula_file(
                _read(root.joinpath(path)), source=path
            )
        if frag not in formulas[path]:
            raise ParseError(f"{path} has no definition named '{frag}'")
        expr = formulas[path][frag]
        _typecheck(model, frag, expr)
        expected = None if expect in (SATISFIED, VIOLATED) else parse_rational(expect)
        if state_field != "*":
            state = _resolve_state(model, None if state_field == "-" else state_field)
            report = satisfies(model, state, expr)
        elif expected is None:
            report = globally_satisfies(model, expr)
        else:
            raise ParseError("a rational expectation needs a state, not '*'")
        if report.verdict == ERROR:
            return False, f"error: {report.message}"
        if expected is None:
            return report.verdict == expect, report.verdict
        if report.details.get("kind") == "numeric":
            return report.numeric == expected, render_rational(report.numeric)
        # a comparison formula can also pin a number: it must hold and the
        # probability recorded for its Q side must match
        if report.numeric is None:
            return False, report.verdict
        got = f"{report.verdict}, {render_rational(report.numeric)}"
        return report.verdict == SATISFIED and report.numeric == expected, got
    except (PtlError, OSError) as exc:
        return False, f"error: {exc}"


# ---------- argument parsing ----------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptl",
        description="Evaluate and check probabilistic temporal formulas "
        "over finite labeled frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate model files")
    p.add_argument("model", nargs="+", help=".ptlm model files")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a formula at a state")
    p.add_argument("model", help=".ptlm model file")
    p.add_argument("formula", help="inline formula, file.ptl, or file.ptl#name")
    p.add_argument("--state", help="evaluation state (default: model initial)")
    p.add_argument("--decimal", action="store_true", help="append approximate decimals as comments")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="check satisfaction, with witnesses")
    p.add_argument("model", help=".ptlm model file")
    p.add_argument("formula", help="inline formula, file.ptl, or file.ptl#name")
    p.add_argument("--state", help="evaluation state (default: model initial)")
    p.add_argument("--global", dest="global_", action="store_true",
                   help="require truth at every state")
    p.add_argument("--decimal", action="store_true", help="append approximate decimals as comments")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("entail", help="entailment relative to supplied models")
    p.add_argument("model", nargs="+", help=".ptlm model files")
    p.add_argument("--theory", required=True, help=".ptl file of axioms")
    p.add_argument("--conclusion", required=True, help="inline formula or file.ptl#name")
    p.add_argument("--decimal", action="store_true", help="append approximate decimals as comments")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("independent", help="probability preservation across another action")
    p.add_argument("model", help=".ptlm model file")
    p.add_argument("action_a", help="ground action whose probabilities must be stable")
    p.add_argument("action_b", help="ground action taken first")
    p.add_argument("--props", help=".ptl file with the proposition family (default: all ground atoms)")
    p.add_argument("--decimal", action="store_true", help="append approximate decimals as comments")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_independent)

    p = sub.add_parser("translate", help="translate a probability space into a model")
    p.add_argument("space", help=".pspace file")
    p.add_argument("-o", "--output", help="write the model here instead of stdout")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("adequacy", help="compare event measures against the translated model")
    p.add_argument("space", help=".pspace file")
    p.add_argument("--depth", type=int, default=3, help="event enumeration rounds")
    p.add_argument("--max-events", type=int, default=512, help="event count cap")
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_adequacy)

    p = sub.add_parser("corpus", help="run the fixture corpus")
    p.add_argument("dir", nargs="?", help="corpus directory (default: the packaged corpus)")
    p.add_argument("--filter", help="run only rows with this tag")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except PtlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
