"""The four workloads: seeded inputs, the query stream, and the reference
each output is checked against.

A workload has a ``setup`` step (generate inputs from the seed and load
the fixed models) and a stream of rounds. A round is a list of queries
with a fixed composition, so every round exercises the same mix of cost
classes and a run that stops between rounds measures a balanced mix
whatever its length. Every cost class has one query per round, and the
round sizes are chosen so that p50 and p90 fall inside a class rather
than on the edge between two, where the value would jump between them.
``rounds_per_batch`` rounds (at least 100 queries) make one batch, the
unit over which run.py scales times and checks outputs. Round ``i`` draws its random choices from
``Random(seed, i)`` alone, so a round is the same whichever run or pass
makes it.

A query's ``run(api)`` is the timed work: it hands ptl text (or, for
``check_independent``, a ground action) and returns a plain output.
``check(output)`` compares that output with the reference from
``oracles`` or from the corpus manifest; it runs outside the timed
region.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles


@dataclass
class Query:
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def _ratio(weights: list[int]) -> list[Fraction]:
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def frame_text(frame: oracles.Frame, atoms: tuple[str, ...], actions: tuple[str, ...]) -> str:
    """A frame as .ptlm text, transitions and valuation in declaration
    order."""
    lines = [f"model {frame.name}", "", "states " + " ".join(frame.states)]
    lines += [f"initial {frame.states[0]}", "", "actions"]
    lines += [f"  {a} : action" for a in actions]
    lines += ["", "types"] + [f"  {p} : prop" for p in atoms]
    lines += ["", "transitions"]
    for s in frame.states:
        for act in actions:
            for w, p in frame.table[s, act]:
                lines.append(f"  {s} --{act}--> {w} @ {p.numerator}/{p.denominator}")
    lines += ["", "valuation"]
    for s in frame.states:
        if frame.val[s]:
            lines.append(f"  {s} : " + ", ".join(sorted(frame.val[s])))
    return "\n".join(lines) + "\n"


def _outcome(api, value) -> Any:
    """A value as plain data: a Fraction for numbers, a bool for truths."""
    if isinstance(value, api.RatV):
        return value.value
    if isinstance(value, api.BoolV):
        return value.value
    return repr(value)


# ---------- corpus: the bundled case studies ----------

_COMMENT = re.compile(r"(?:^|(?<=\s))--(?=\s|$)")
_ROW = re.compile(r"^\[([^\]]+)\]\s+(\S+)\s+(\S+)\s+(\S+)\s+expect\s+(\S+)$")


class Corpus:
    """Every manifest row of the bundled corpus, in a seeded order per
    round. Each query parses its model and formula file from text,
    validates, typechecks and then checks or evaluates, as `ptl check`
    does; the manifest's hand-written expectation is the reference."""

    name = "corpus"
    rounds_per_batch = 2

    def setup(self, api, root: Path, seed: int) -> None:
        corpus = root / "src" / "ptl" / "corpus"
        self.rows = []
        texts: dict[str, str] = {}
        for raw in (corpus / "manifest.txt").read_text().splitlines():
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            m = _ROW.match(line)
            if not m:
                raise ValueError(f"bad manifest row {line!r}")
            tag, model_file, ref, state, expect = m.groups()
            path, _, frag = ref.partition("#")
            for name in (model_file, path):
                if name not in texts:
                    texts[name] = (corpus / name).read_text()
            self.rows.append((tag, model_file, path, frag, state, expect))
        self.texts = texts

    def round(self, seed: int, index: int) -> list[Query]:
        rows = list(self.rows)
        round_rng(seed, index).shuffle(rows)
        return [self._query(*row) for row in rows]

    def _query(self, tag, model_file, path, frag, state_field, expect) -> Query:
        model_text, formula_text = self.texts[model_file], self.texts[path]

        def run(api):
            model = api.validate_model(api.parse_model(model_text, source=model_file))
            expr = api.parse_formula_file(formula_text, source=path)[frag]
            api.infer_type(expr, model.type_env())
            state = None
            if state_field != "*":
                state = model.initial if state_field == "-" else state_field
            if expect in ("satisfied", "violated"):
                if state is None:
                    return api.globally_satisfies(model, expr).verdict
                return api.satisfies(model, state, expr).verdict
            value = api.evaluate(model, state, expr)
            if isinstance(value, api.RatV):
                return value.value
            report = api.satisfies(model, state, expr)
            return report.verdict, report.numeric

        def check(out) -> bool:
            if expect in ("satisfied", "violated"):
                return out == expect
            want = Fraction(expect)
            return out == want or out == ("satisfied", want)

        return Query(f"{tag} {model_file} {path}#{frag}", run, check)


# ---------- deep_q: long single-state probability queries ----------

DEEP_SIZES = (200, 1000)
DEEP_HORIZONS = tuple(range(1, 9))
DEEP_ATOMS = ("p", "q")
DEEP_ACTIONS = ("a", "b")


def random_frame(
    rng: random.Random, name: str, n: int, atoms: tuple[str, ...], actions: tuple[str, ...]
) -> oracles.Frame:
    """n states, every state with exactly three distinct successors per
    action, positive random weights, each atom true at exactly half the
    states. The cost of a trace query grows with the atoms' density to
    the power of its horizon, so the density is fixed, not drawn."""
    states = tuple(f"s{i}" for i in range(n))
    holds = {p: set(rng.sample(states, n // 2)) for p in atoms}
    val = {s: frozenset(p for p in atoms if s in holds[p]) for s in states}
    table = {}
    for s in states:
        for act in actions:
            targets = rng.sample(states, 3)
            probs = _ratio([rng.randint(1, 9) for _ in targets])
            table[s, act] = tuple(zip(targets, probs))
    return oracles.Frame(name, states, val, table)


class DeepQ:
    """Single-state Q queries of horizon 1..8 on two random frames with
    branching 3: path enumeration is nearly all of the work. Half the
    queries take one proposition (``Q[a;b;..](p)``), half a trace
    (``Q[a;b;..](p;q;..)``). Each round also holds the baseline
    ``Q[a;a;a;a;a;a;a;a](p)`` at n=200."""

    name = "deep_q"
    rounds_per_batch = 5

    def setup(self, api, root: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.frames = []
        for n in DEEP_SIZES:
            frame = random_frame(rng, f"deep{n}", n, DEEP_ATOMS, DEEP_ACTIONS)
            text = frame_text(frame, DEEP_ATOMS, DEEP_ACTIONS)
            model = api.validate_model(api.parse_model(text, source=frame.name))
            self.frames.append((frame, model))

    def round(self, seed: int, index: int) -> list[Query]:
        rng = round_rng(seed, index)
        queries = []
        for frame, model in self.frames:
            for k in DEEP_HORIZONS:
                start = rng.choice(frame.states)
                word, prop = tuple(rng.choice(DEEP_ACTIONS) for _ in range(k)), rng.choice(DEEP_ATOMS)
                queries.append(self._single(frame, model, start, word, prop))
                start = rng.choice(frame.states)
                word = tuple(rng.choice(DEEP_ACTIONS) for _ in range(k))
                props = tuple(rng.choice(DEEP_ATOMS) for _ in range(k))
                queries.append(self._trace(frame, model, start, word, props))
        # the ROADMAP baseline
        frame, model = self.frames[0]
        queries.append(self._single(frame, model, rng.choice(frame.states), ("a",) * 8, "p"))
        return queries

    @staticmethod
    def _evaluate(text: str, model, state: str):
        def run(api):
            expr = api.parse(text)
            api.infer_type(expr, model.type_env())
            return _outcome(api, api.evaluate(model, state, expr))

        return run

    def _single(self, frame, model, start, word, prop) -> Query:
        text = f"Q[{'; '.join(word)}]({prop})"
        return Query(f"{frame.name} {start} {text}", self._evaluate(text, model, start),
                     lambda out: out == oracles.q_single(frame, start, word, prop))

    def _trace(self, frame, model, start, word, props) -> Query:
        text = f"Q[{'; '.join(word)}]({'; '.join(props)})"
        return Query(f"{frame.name} {start} {text}", self._evaluate(text, model, start),
                     lambda out: out == oracles.q_trace(frame, start, word, props))


# ---------- global: truth at every state, entailment, independence ----------

GLOBAL_SIZES = (40, 60, 80)
GLOBAL_ATOMS = ("p0", "p1", "p2", "p3", "p4", "t")
GLOBAL_ACTIONS = ("a", "b")
_HUBS = 3  # s0..s2 satisfy every atom, so every rule can be met


def render(f) -> str:
    """Formula tree (see oracles.label) as ptl surface text."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "not":
        return f"~ ({render(f[1])})"
    if tag in ("and", "or", "imp", "eq", "plus"):
        op = {"and": "/\\", "or": "\\/", "imp": "->", "eq": "=", "plus": "+"}[tag]
        return f"({render(f[1])} {op} {render(f[2])})"
    if tag in ("box", "dia"):
        return f"{tag}[{f[1]}] ({render(f[2])})"
    if tag == "at":
        return f"@{f[1]} ({render(f[2])})"
    if tag == "forall":
        return f"forall {f[1]} : state . ({render(f[2])})"
    if tag == "q":
        return f"Q[{f[1]}]({render(f[2])})"
    if tag == "rat":
        return f"{f[1].numerator}/{f[1].denominator}"
    raise ValueError(f"unknown formula {f!r}")


def _rule(rule) -> tuple:
    """(p, act, q) as the formula p -> box[act] q."""
    p, act, q = rule
    return ("imp", ("atom", p), ("box", act, ("atom", q)))


def global_frame(rng: random.Random, name: str, n: int):
    """A random frame with planted structure. Regular rules ``p ->
    box[act] q`` hold at every state. The defect rule holds everywhere
    except at one state in the last quarter, whose ``act`` successors
    include a state without the rule's target atom. ``t`` holds
    everywhere."""
    states = tuple(f"s{i}" for i in range(n))
    atoms = GLOBAL_ATOMS[:-1]
    regular_targets, defect_targets = atoms[:3], atoms[3:]
    rules = []
    while len(rules) < 3:
        rule = (rng.choice(atoms), rng.choice(GLOBAL_ACTIONS), rng.choice(regular_targets))
        if rule[0] != rule[2] and rule not in rules:
            rules.append(rule)
    d_src = rng.choice(regular_targets)
    defect = (d_src, rng.choice(GLOBAL_ACTIONS), rng.choice(defect_targets))
    defect_state = states[rng.randrange(3 * n // 4, n)]
    off = states[_HUBS]  # the successor that breaks the defect rule

    val = {}
    for i, s in enumerate(states):
        if i < _HUBS:
            val[s] = frozenset(GLOBAL_ATOMS)
        elif s == off:
            val[s] = frozenset(GLOBAL_ATOMS) - {defect[2]}
        else:
            val[s] = frozenset([p for p in atoms if rng.random() < 0.5] + ["t"])
    val[defect_state] = val[defect_state] | {defect[0]}

    table = {}
    for s in states:
        for act in GLOBAL_ACTIONS:
            need = {q for p, a, q in rules + [defect] if a == act and p in val[s]}
            candidates = [w for w in states if need <= val[w]]
            targets = rng.sample(candidates, min(3, len(candidates)))
            if s == defect_state and act == defect[1]:
                targets = [w for w in targets if w != off][:2] + [off]
            table[s, act] = tuple(zip(targets, _ratio([rng.randint(1, 9) for _ in targets])))
    frame = oracles.Frame(name, states, val, table)
    return frame, rules, defect


class Global:
    """Formulas checked at every state of random frames with n = 40, 60
    and 80. Most hold everywhere, so the checker visits every state; the
    defect-rule queries fail late, so witness drilling runs. Each round
    also asks ``entails`` over the three frames and ``check_independent``
    on each. The reference is the benchmark's own labeller."""

    name = "global"
    rounds_per_batch = 4

    def setup(self, api, root: Path, seed: int) -> None:
        rng = random.Random(seed)
        self.frames = []
        for n in GLOBAL_SIZES:
            frame, rules, defect = global_frame(rng, f"glob{n}", n)
            text = frame_text(frame, GLOBAL_ATOMS, GLOBAL_ACTIONS)
            model = api.validate_model(api.parse_model(text, source=frame.name))
            self.frames.append((frame, model, rules, defect))

    def round(self, seed: int, index: int) -> list[Query]:
        rng = round_rng(seed, index)
        queries = []
        atoms = [("atom", p) for p in GLOBAL_ATOMS[:-1]]
        for frame, model, rules, defect in self.frames:
            p, act, q = rng.choice(rules)
            extra = rng.choice(atoms)
            weaker = rng.choice([
                ("imp", ("and", ("atom", p), extra), ("box", act, ("atom", q))),
                ("imp", ("atom", p), ("box", act, ("or", ("atom", q), extra))),
            ])
            sure = ("imp", ("atom", p), ("eq", ("q", act, ("atom", q)), ("rat", Fraction(1))))
            x = rng.choice(atoms)
            a2 = rng.choice(GLOBAL_ACTIONS)
            complement = ("eq", ("plus", ("q", a2, x), ("q", a2, ("not", x))), ("rat", Fraction(1)))
            p2, act2, q2 = rng.choice(rules)
            everywhere = ("forall", "w", ("at", "w",
                          ("imp", ("atom", p2), ("dia", act2, ("atom", q2)))))
            for f in (weaker, sure, complement, everywhere, _rule(defect)):
                queries.append(self._global(frame, model, f))
            late = ("forall", "w", ("at", "w", _rule(defect)))
            queries.append(self._local(frame, model, late))
            queries.append(self._local(frame, model, ("forall", "w", ("at", "w", _rule(rng.choice(rules))))))
            queries.append(self._independent(frame, model, ("t", rng.choice(GLOBAL_ACTIONS))))
        queries.append(self._entails(rng))
        return queries

    @staticmethod
    def _parse(api, f, model):
        expr = api.parse(render(f))
        api.infer_type(expr, model.type_env())
        return expr

    def _global(self, frame, model, f) -> Query:
        def run(api):
            report = api.globally_satisfies(model, self._parse(api, f, model))
            return report.verdict, report.details.get("violating_state"), report.witness is not None

        def check(out) -> bool:
            first = oracles.first_violation(frame, f)
            if first is None:
                return out == ("satisfied", None, False)
            return out == ("violated", first, True)

        return Query(f"{frame.name} global {render(f)}", run, check)

    def _local(self, frame, model, f) -> Query:
        start = frame.states[0]

        def run(api):
            report = api.satisfies(model, start, self._parse(api, f, model))
            return report.verdict, report.witness is not None

        def check(out) -> bool:
            holds = start in oracles.label(frame, f)
            return out == (("satisfied", False) if holds else ("violated", True))

        return Query(f"{frame.name} at {start} {render(f)}", run, check)

    def _independent(self, frame, model, choice) -> Query:
        prop, b = choice
        a = "b" if b == "a" else "a"

        def run(api):
            props = [api.parse(prop)]
            report = api.check_independent(model, api.GroundAction(a), api.GroundAction(b), props)
            return report.verdict, (report.witness or {}).get("from_state")

        def check(out) -> bool:
            found = oracles.independence(frame, a, b, [("atom", prop)])
            return out == (("satisfied", None) if found is None else ("violated", found[0]))

        return Query(f"{frame.name} independent {a} {b} {prop}", run, check)

    def _entails(self, rng: random.Random) -> Query:
        frame0, _, rules, _ = rng.choice(self.frames)
        p, act, q = rng.choice(rules)
        theory = [_rule((p, act, q))]
        conclusion = ("imp", ("atom", p), ("eq", ("q", act, ("atom", q)), ("rat", Fraction(1))))
        frames = [f for f, *_ in self.frames]
        models = [m for _, m, *_ in self.frames]

        def run(api):
            axioms = {"ax": api.parse(render(theory[0]))}
            report = api.entails(models, api.Theory("rules", axioms), api.parse(render(conclusion)))
            return report.verdict, report.details.get("model")

        def check(out) -> bool:
            bad = oracles.entailment(frames, theory, conclusion)
            return out == (("satisfied", None) if bad is None else ("violated", bad))

        return Query(f"entails {render(theory[0])} => {render(conclusion)}", run, check)


# ---------- adequacy: random probability spaces ----------

ADEQUACY_SIZES = (1, 2, 3, 4, 4, 5, 6)
ADEQUACY_DEPTH = 3


class Adequacy:
    """Random finite probability spaces (1..6 outcomes, weights 0..9,
    event depth 3) through ``check_adequacy``. The reference: verdict
    satisfied, with one event checked per distinct denotation the
    benchmark counts itself."""

    name = "adequacy"
    rounds_per_batch = 15

    def setup(self, api, root: Path, seed: int) -> None:
        pass

    def round(self, seed: int, index: int) -> list[Query]:
        rng = round_rng(seed, index)
        queries = []
        for j, n in enumerate(ADEQUACY_SIZES):
            outcomes = tuple(f"o{i}" for i in range(n))
            weights = [rng.randint(0, 9) for _ in outcomes]
            if not any(weights):
                weights[0] = 1
            lines = [f"space r{index}x{j}", "outcomes: " + " ".join(outcomes)]
            lines += [f"mass: {o} {m.numerator}/{m.denominator}" for o, m in zip(outcomes, _ratio(weights))]
            queries.append(self._query("\n".join(lines) + "\n", outcomes))
        return queries

    @staticmethod
    def _query(text: str, outcomes: tuple[str, ...]) -> Query:
        def run(api):
            report = api.check_adequacy(api.parse_space(text), depth=ADEQUACY_DEPTH)
            return report.verdict, report.details.get("events_checked")

        want = ("satisfied", oracles.event_count(outcomes, ADEQUACY_DEPTH))
        return Query(text.splitlines()[0], run, lambda out: out == want)


WORKLOADS = {w.name: w for w in (Corpus, DeepQ, Global, Adequacy)}
