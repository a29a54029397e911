"""Committed benchmark records (`BENCH_*.json` at the repository root) are
complete: a perf claim counts only with the parent's and the change's
result lines for every workload, each run correct and without failures,
and each with the `#` environment line perfbench printed for it.

A record is one JSON object: `parent` and `change` name the commits, and
`runs` lists one entry per untraced run, `{"side": "parent" | "change",
"env": "# env {...}", "result": {...}}`, where `result` is the run's last
output line. An optional `traced` list holds `--trace 1` runs in the same
form. With no record committed, there is nothing to check.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def env_of(run):
    """The run's environment, from its `# env` line."""
    line = run["env"]
    assert line.startswith("# env "), line
    return json.loads(line[len("# env "):])


def test_benchmark_records_are_complete():
    for path in RECORDS:
        check_record(path.name, json.loads(path.read_text()))


def check_record(name, record):
    sides = {}
    for run in record["runs"]:
        env, result = env_of(run), run["result"]
        where = f"{name}: {run['env']}"
        assert env["trace"] == 0, where
        assert env["commit"] == record[run["side"]], where
        assert result["correct"] is True and result["failed"] == 0, where
        assert set(END_TO_END) <= set(result["metrics"]), where
        sides.setdefault(env["workload"], set()).add(run["side"])
    for workload in WORKLOADS:
        assert sides.get(workload) == {"parent", "change"}, f"{name}: {workload}"
    for run in record.get("traced", []):
        assert env_of(run)["trace"] == 1, name
        assert env_of(run)["commit"] == record[run["side"]], name


def synthetic_record(**change):
    """A complete record of one run per workload and side, with the
    change's deep_q result updated by change."""
    metrics = {m: {"value": 1.0, "unit": ""} for m in END_TO_END}
    runs = []
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            env = {"commit": side, "trace": 0, "workload": workload}
            result = {"correct": True, "attempted": 10, "failed": 0, "metrics": dict(metrics)}
            if (workload, side) == ("deep_q", "change"):
                result.update(change)
            runs.append({"side": side, "env": "# env " + json.dumps(env), "result": result})
    return {"parent": "parent", "change": "change", "runs": runs}


@pytest.mark.parametrize("change", [
    {"correct": False}, {"failed": 1}, {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}},
], ids=["incorrect", "failed", "missing-metric"])
def test_an_incomplete_record_is_rejected(change):
    check_record("complete", synthetic_record())
    with pytest.raises(AssertionError):
        check_record("broken", synthetic_record(**change))


def test_a_record_without_one_side_of_a_workload_is_rejected():
    record = synthetic_record()
    record["runs"] = [run for run in record["runs"] if "adequacy" not in run["env"]
                      or run["side"] == "parent"]
    with pytest.raises(AssertionError, match="adequacy"):
        check_record("one-sided", record)
