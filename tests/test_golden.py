"""Golden output: the exact text of `ptl corpus`, and of `ptl check` on
every manifest row (human and `--json`; `--decimal` for rows with a
state; `--global` for `*` rows), stdout, stderr and exit code included.

Commands run in the bundled corpus directory with relative paths, so
the transcript holds no absolute path. After an intended output change,
regenerate it with `PYTHONPATH=src python tests/test_golden.py` and
review the diff.
"""

import contextlib
import io
import os
import re
from importlib import resources
from pathlib import Path

from ptl.cli import main
from ptl.parser import strip_comment

CORPUS = Path(str(resources.files("ptl").joinpath("corpus")))
GOLDEN = Path(__file__).with_name("golden") / "cli_output.txt"

_ROW = re.compile(r"^\[[^\]]+\]\s+(\S+)\s+(\S+)\s+(\S+)\s+expect\s+\S+$")


def commands() -> list[list[str]]:
    out = [["corpus"]]
    for raw in (CORPUS / "manifest.txt").read_text().splitlines():
        m = _ROW.match(strip_comment(raw).strip())
        if not m:
            continue
        model, ref, state = m.groups()
        check = ["check", model, ref]
        if state == "*":
            out += [check + ["--global"], check + ["--global", "--json"]]
            continue
        if state != "-":
            check += ["--state", state]
        out += [check, check + ["--json"], check + ["--decimal"]]
    return out


def run(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    block = f"$ ptl {' '.join(argv)}\n{stdout.getvalue()}"
    if stderr.getvalue():
        block += f"[stderr]\n{stderr.getvalue()}"
    return block + f"[exit {code}]\n"


def transcript() -> str:
    here = os.getcwd()
    os.chdir(CORPUS)
    try:
        return "".join(run(argv) for argv in commands())
    finally:
        os.chdir(here)


def test_cli_output_matches_the_golden_transcript():
    golden = GOLDEN.read_text()
    assert str(CORPUS) not in golden
    assert transcript().splitlines() == golden.splitlines()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
