"""Shared fixtures: bundled corpus models, parsed once per session, a
count of successor lookups and a wrong one-step probability.

Also prints a one-line verdict per acceptance criterion at the end of
the run, collected from the test_criterion_* results.
"""

import itertools
import re
from fractions import Fraction
from importlib import resources

import pytest

from ptl import adequacy, parse_formula_file, parse_model, validate_model
from ptl.model import Frame

CORPUS = resources.files("ptl").joinpath("corpus")


def corpus_text(name):
    return CORPUS.joinpath(name).read_text()


def corpus_path(name):
    return str(CORPUS.joinpath(name))


def load_model(name):
    return validate_model(parse_model(corpus_text(name), source=name))


def load_formulas(name):
    return parse_formula_file(corpus_text(name), source=name)


@pytest.fixture(scope="session")
def coin():
    return load_model("coin.ptlm")


@pytest.fixture(scope="session")
def twotoss():
    return load_model("twotoss.ptlm")


@pytest.fixture(scope="session")
def magicalcoin():
    return load_model("magicalcoin.ptlm")


@pytest.fixture(scope="session")
def bag4():
    return load_model("bag4.ptlm")


@pytest.fixture(scope="session")
def bag5():
    return load_model("bag5.ptlm")


@pytest.fixture(scope="session")
def dice12():
    return load_model("dice12.ptlm")


@pytest.fixture(scope="session")
def twosucc():
    return load_model("twosucc.ptlm")


@pytest.fixture(scope="session")
def montyhall():
    return load_model("montyhall.ptlm")


@pytest.fixture
def successor_calls(monkeypatch):
    """The states of every Frame.successors call made during the test."""
    calls = []
    original = Frame.successors

    def counted(self, state, action):
        calls.append(state)
        return original(self, state, action)

    monkeypatch.setattr(Frame, "successors", counted)
    return calls


@pytest.fixture
def wrong_probability(monkeypatch):
    """Call with n: from then on the n-th one-step probability that
    `check_adequacy` takes comes out 1/7 too large."""
    def make_wrong(call):
        real = adequacy.eval_q
        calls = itertools.count(1)

        def eval_q(*args):
            q = real(*args)
            return q + Fraction(1, 7) if next(calls) == call else q

        monkeypatch.setattr(adequacy, "eval_q", eval_q)

    return make_wrong


_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")
_criterion_results: dict[int, tuple[str, bool]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m or report.when not in ("setup", "call"):
        return
    number = int(m.group(1))
    title = m.group(2).replace("_", " ")
    ok = _criterion_results.get(number, (title, True))[1]
    _criterion_results[number] = (title, ok and not report.failed)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_results):
        title, ok = _criterion_results[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {verdict}  {title}")
