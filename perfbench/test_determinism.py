"""Every count metric of the traced run repeats exactly for a fixed seed,
across two separate processes.

    python3 -m pytest perfbench/test_determinism.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("parser.bytes", "syntax.nodes", "model.edges", "model.successors_calls",
          "evaluator.calls", "checker.states_checked", "checker.witnesses", "adequacy.events",
          "trace.queries")


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300, cwd=RUN.parent.parent,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", ["corpus", "deep_q", "global", "adequacy"])
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert "trace.overhead_frac" in first
