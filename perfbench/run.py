"""ptl benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

The load is a closed loop with a single client: one process, one thread,
each query sent only after the previous verdict came back. Every output
is checked against a reference ptl did not compute. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it reports
per-layer self times and counts from spans around the calls between
ptl's modules (see tracing.py). Every reported time is scaled to a
reference speed of the host (see speed.py); the unscaled end-to-end
figures are printed too. The last line of standard output is the
result object; the lines before it describe the environment and list
each metric with its unit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REPEATS = 5  # fresh-process imports of ptl.cli in a traced run
MIN_QUERIES = 100  # per batch, so that p90 has at least ten samples beyond it
MIN_BATCHES = 5
SAMPLES = 5  # set-up samples per run, after a warm-up one
CLI_PER_SAMPLE = 3  # cold-CLI runs per set-up sample
WARMUP_QUERIES = 5
TRACE_ROUNDS = {"corpus": 1, "deep_q": 1, "global": 1, "adequacy": 4}
CLI_CHECK = ("check", "src/ptl/corpus/coin.ptlm", "src/ptl/corpus/coin.ptl#heads_half")
CLI_EXPECT = "heads_half: satisfied"

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
)
_CLI_MAIN = "import sys; from ptl.cli import main; sys.exit(main())"

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_cold_ms": "ms",
}
PER_LAYER_UNITS = {
    "parser.ms": "ms", "parser.bytes": "bytes",
    "syntax.desugar_ms": "ms", "syntax.nodes": "count",
    "typecheck.ms": "ms",
    "model.validate_ms": "ms", "model.successors_ms": "ms",
    "model.successors_calls": "count", "model.edges": "count",
    "evaluator.self_ms": "ms", "evaluator.calls": "count",
    "checker.self_ms": "ms", "checker.states_checked": "count", "checker.witnesses": "count",
    "adequacy.enumerate_ms": "ms", "adequacy.self_ms": "ms", "adequacy.events": "count",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "frac", "trace.queries": "count",
}


# ---------- environment ----------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": git_commit(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------- fresh-process timings ----------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, timed inside the
    child so that interpreter start is excluded."""
    cmd = [sys.executable, "-I", "-c", _IMPORT_TIMER.format(module=module), str(SRC)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def cli_cold() -> tuple[float, bool]:
    """Wall time of a fresh-process `ptl check` of one corpus row,
    interpreter start included, and whether it gave the right verdict and
    exit code."""
    cmd = [sys.executable, "-c", _CLI_MAIN, *CLI_CHECK]
    start = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_child_env(), timeout=60)
    elapsed = time.perf_counter() - start
    return elapsed, out.returncode == 0 and out.stdout.startswith(CLI_EXPECT)


# ---------- the closed loop ----------


def plain_api(ptl) -> dict:
    names = ("parse", "parse_formula_file", "parse_model", "validate_model", "infer_type",
             "evaluate", "satisfies", "globally_satisfies", "entails", "check_independent",
             "parse_space", "check_adequacy")
    return {name: getattr(ptl, name) for name in names}


def make_api(ptl, functions: dict) -> SimpleNamespace:
    return SimpleNamespace(**functions, RatV=ptl.RatV, BoolV=ptl.BoolV,
                           GroundAction=ptl.GroundAction, Theory=ptl.Theory)


def run_query(query, api):
    """One query, timed; an exception is an output like any other and
    fails its check."""
    start = time.perf_counter()
    try:
        out = query.run(api)
    except Exception as exc:  # the loop must go on; the failure is counted
        out = exc
    return time.perf_counter() - start, out


def passed(query, out) -> bool:
    ok = not isinstance(out, Exception) and query.check(out)
    if not ok:
        print(f"failed: {query.label}: got {out!r}", file=sys.stderr)
    return ok


def set_up(workload_cls, api, seed: int):
    workload = workload_cls()
    start = time.perf_counter()
    workload.setup(api, ROOT, seed)
    return workload, time.perf_counter() - start


class Sampler:
    """Fresh-process and set-up timings, spread over the run: one set
    before the first batch and then up to SAMPLES more, at most one after
    each batch, at even steps of query time. A set is one import of ptl,
    one set-up and CLI_PER_SAMPLE cold CLI checks, each scaled to
    reference speed. The reported values are medians. The first set is a
    warm-up (it also writes the bytecode cache) and is dropped."""

    def __init__(self, workload_cls, api, seed: int, seconds: float) -> None:
        self.args = (workload_cls, api, seed)
        self.step = seconds / SAMPLES
        self.imports, self.loads, self.clis = [], [], []
        self.cli_ok = True

    def sample(self, busy: float) -> None:
        if len(self.imports) > busy / self.step:
            return
        self.imports.append(speed.around(lambda: import_seconds("ptl")))
        self.loads.append(speed.around(lambda: set_up(*self.args)[1]))

        def cli() -> float:
            elapsed, ok = cli_cold()
            self.cli_ok = self.cli_ok and ok
            return elapsed

        self.clis += [speed.around(cli) for _ in range(CLI_PER_SAMPLE)]

    def setup_s(self) -> float:
        return statistics.median(self.imports[1:]) + statistics.median(self.loads[1:])

    def cli_cold_ms(self) -> float:
        return statistics.median(self.clis[CLI_PER_SAMPLE:]) * 1e3


def batches(workload, seed: int):
    """Consecutive rounds grouped into batches."""
    index = 0
    while True:
        batch = []
        for _ in range(workload.rounds_per_batch):
            batch += workload.round(seed, index)
            index += 1
        assert len(batch) >= MIN_QUERIES
        yield batch


def measure(workload, api, seed: int, seconds: float, sampler: Sampler):
    """Run batches until ``seconds`` of query time (and MIN_BATCHES
    batches) are done. Each batch is a calibration window: its latencies
    are scaled by the host's speed during the batch. Throughput and the
    latency percentiles are taken over all scaled latencies of the run."""
    for query in workload.round(seed, -1)[:WARMUP_QUERIES]:
        run_query(query, api)
    sampler.sample(0.0)
    scaled, raw, attempted, failed, batches_run = [], [], 0, 0, 0
    for batch in batches(workload, seed):
        latencies, outputs, window = [], [], speed.Window()
        for query in batch:
            elapsed, out = run_query(query, api)
            window.after(elapsed)
            latencies.append(elapsed)
            outputs.append(out)
        raw += latencies
        scaled += [t * window.scale() for t in latencies]
        attempted += len(batch)
        failed += sum(not passed(q, out) for q, out in zip(batch, outputs))
        batches_run += 1
        sampler.sample(sum(raw))
        if sum(raw) >= seconds and batches_run >= MIN_BATCHES:
            break
    print("# unscaled " + " ".join(f"{k}={v:.6g}" for k, v in latency_stats(raw).items()))
    return latency_stats(scaled), attempted, failed


def latency_stats(latencies: list[float]) -> dict[str, float]:
    return {
        "queries_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def trace(workload, ptl, seed: int, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes over the same rounds until
    ``seconds`` have passed (at least MIN_BATCHES of each). Times are
    medians over traced passes, the overhead the median over adjacent
    pairs; every count must repeat exactly in every pass."""
    rounds = [q for i in range(TRACE_ROUNDS[workload.name]) for q in workload.round(seed, i)]
    plain = make_api(ptl, plain_api(ptl))
    tracer = tracing.Tracer()
    summaries, ratios, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(summaries) < MIN_BATCHES:
        walls = []
        for traced in (False, True):
            if traced:
                tracer.reset()
                tracer.install()
                api = make_api(ptl, tracer.api)
            else:
                api = plain
            wall, window = 0.0, speed.Window()
            for i, query in enumerate(rounds):
                close = tracer.begin_query(i) if traced else None
                elapsed, out = run_query(query, api)
                if close:
                    close()
                window.after(elapsed)
                wall += elapsed
                attempted += 1
                failed += not passed(query, out)
            walls.append(wall * window.scale())
            if traced:
                tracer.restore()
                summary = tracer.summary()
                summaries.append({name: value * window.scale() if name not in tracing.COUNTS else value
                                  for name, value in summary.items()})
        ratios.append(walls[1] / walls[0] - 1)
    tracer.write(spans_path)
    metrics = {name: statistics.median(s[name] for s in summaries)
               for name in summaries[0] if name not in tracing.COUNTS}
    for name in tracing.COUNTS:
        values = {s[name] for s in summaries}
        if len(values) != 1:
            failed += 1
            print(f"count {name} differs between passes: {sorted(values)}", file=sys.stderr)
        metrics[name] = summaries[0][name]
    metrics["trace.overhead_frac"] = statistics.median(ratios)
    metrics["trace.queries"] = len(rounds)
    return metrics, attempted, failed


# ---------- entry point ----------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "deep_q", "global", "adequacy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptl" / "__init__.py").is_file():
        print(f"error: no ptl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ptl

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))

    plain = make_api(ptl, plain_api(ptl))
    workload_cls = workloads.WORKLOADS[args.workload]
    workload, _ = set_up(workload_cls, plain, args.seed)
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, attempted, failed = trace(workload, ptl, args.seed, args.seconds, spans)
        import_seconds("ptl.cli")
        metrics["cli.import_ms"] = statistics.median(
            speed.around(lambda: import_seconds("ptl.cli")) for _ in range(REPEATS)) * 1e3
        units = PER_LAYER_UNITS
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        sampler = Sampler(workload_cls, plain, args.seed, args.seconds)
        metrics, attempted, failed = measure(workload, plain, args.seed, args.seconds, sampler)
        metrics["setup_s"] = sampler.setup_s()
        metrics["cli_cold_ms"] = sampler.cli_cold_ms()
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += 1
        failed += not sampler.cli_ok
        units = END_TO_END_UNITS
    for name in units:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    print(f"# attempted {attempted}, failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
