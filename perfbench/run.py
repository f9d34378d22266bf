"""Benchmark of the `harmgraphs` CLI: cold-process workloads, closed loop, one client.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Each invocation of a workload runs in a
fresh interpreter (worker.py), one at a time, because that is what a CLI
user pays; the program sees only the argv that workloads.py derives from
`--seed`. Invocations repeat in workload order; after the first pass, the
next one starts only if its median time says it ends within `--seconds`.

`--trace 0` reports the end-to-end metrics:
  wall_s       sum over the workload's invocations of the median time from
               `cli.main(argv)` entry to return
  setup_s      median over all workers of interpreter start plus
               `import harmgraphs.cli`
  peak_rss_mb  largest `ru_maxrss` a worker reads for its own process
`--trace 1` runs untraced and traced passes (at least one and two) and
reports the per-layer metrics of tracing.py, `host.calib_s` and
`trace.overhead_ratio`; it also checks that the counts of every serial
invocation repeat exactly between the traced passes.

An invocation fails if it exits non-zero, raises, prints a FAIL row, or
its report's sha256 differs from the one stored in digests.json (for an
argv with no stored digest: from the first repetition in this run).
`attempted`/`failed` in the last stdout line give the error rate; a
readable table goes to stderr. Spans of the last traced pass are written
to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS, argv_key, plan, workers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
TRACES = BENCH / "traces"
# no worker starts after this many seconds, and none runs past it
HARD_LIMIT_S = 165.0


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction kernel: the host's speed, not the program's."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        n = 20
        a = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(1)] for i in range(n)]
        for c in range(n):
            for r in range(n):
                if r != c and a[r][c]:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as handle:
        return json.load(handle)


def run_worker(argv: list[str], trace: bool, spans: str | None, timeout: float) -> dict:
    """Run one invocation in a fresh interpreter; its result, with `setup_s` added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spec = json.dumps({"argv": argv, "trace": trace, "spans": spans})
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), spec],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"no result within {timeout:.0f} s", "timeout": True}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    result = json.loads(lines[-1])
    if not Path(result["module"]).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SetupError(f"harmgraphs was imported from {result['module']}, not from {ROOT / 'src'}")
    result["setup_s"] = result["ready"] - start
    return result


def judge(result: dict, argv: list[str], stored: dict[str, str], seen: dict[str, str]) -> str | None:
    """Why the invocation failed, or None if it passed."""
    if result.get("error"):
        return "raised: " + result["error"].strip().splitlines()[-1]
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()[-200:]}"
    if result["fail_rows"]:
        return f"{result['fail_rows']} FAIL rows"
    key = argv_key(argv)
    expected = stored.get(key) or seen.setdefault(key, result["sha256"])
    if result["sha256"] != expected:
        source = "stored" if key in stored else "first repetition's"
        return f"report sha256 {result['sha256'][:12]} differs from the {source} {expected[:12]}"
    return None


class Run:
    """Invocations of one workload for one seed, with their verdicts."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.argvs = plan(workload, seed)
        self.stored = load_digests()
        self.seen: dict[str, str] = {}
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.timed_out = False

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def invoke(self, k: int, trace: bool = False, spans: str | None = None) -> dict | None:
        """Result of invocation k, or None if it failed."""
        argv = self.argvs[k]
        result = run_worker(argv, trace, spans, HARD_LIMIT_S - self.elapsed())
        self.attempted += 1
        self.timed_out = self.timed_out or bool(result.get("timeout"))
        why = judge(result, argv, self.stored, self.seen)
        if why is not None:
            self.fail(k, why)
            return None
        return result

    def fail(self, k: int, why: str) -> None:
        self.failures.append((argv_key(self.argvs[k]), why))

    def out_of_time(self) -> bool:
        return self.timed_out or self.elapsed() >= HARD_LIMIT_S

    def doc(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    run = Run(workload, seed)
    calib = [calibrate()]
    samples: list[list[float]] = [[] for _ in run.argvs]
    setups, rss = [], []
    i = 0
    while not run.out_of_time():
        k = i % len(run.argvs)
        # after one full pass, start only what is expected to end in time
        if i >= len(run.argvs) and (not samples[k] or run.elapsed()
                                    + statistics.median(samples[k]) + statistics.median(setups) > seconds):
            break
        i += 1
        result = run.invoke(k)
        if result is not None:
            samples[k].append(result["wall_s"])
            setups.append(result["setup_s"])
            rss.append(result["maxrss_kb"])
    calib.append(calibrate())
    metrics = {}
    if setups:
        metrics["wall_s"] = (sum(statistics.median(s) for s in samples if s), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (max(rss) / 1024, "MB")
    doc = run.doc(metrics)
    _print_table(run, seed, doc, samples, statistics.median(calib))
    return doc


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics from traced passes, beside untraced ones."""
    run = Run(workload, seed)
    out_dir = TRACES / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    plain_walls: list[float] = []
    traced: list[list[dict | None]] = []
    calib = []
    j, pass_s = 0, 0.0
    # passes: untraced, traced, traced, then alternating while one more fits
    while (j < 3 or run.elapsed() + pass_s <= seconds) and not run.out_of_time():
        pass_start = run.elapsed()
        calib.append(calibrate())
        traced_pass = j in (1, 2) or (j > 2 and j % 2 == 0)
        j += 1
        results = []
        for k in range(len(run.argvs)):
            if run.out_of_time():
                break
            spans = str(out_dir / f"{k}.json") if traced_pass else None
            results.append(run.invoke(k, traced_pass, spans))
        if len(results) < len(run.argvs):
            break
        pass_s = run.elapsed() - pass_start
        if traced_pass:
            traced.append(results)
        elif all(results):
            plain_walls.append(sum(r["wall_s"] for r in results))
    _check_counts(run, traced)
    complete = [p for p in traced if all(p)]
    metrics = {}
    if complete and plain_walls:
        metrics = _layer_metrics(run, complete)
        metrics["host.calib_s"] = (statistics.median(calib), "s")
        traced_wall = statistics.median(sum(r["wall_s"] for r in p) for p in complete)
        metrics["trace.overhead_ratio"] = (traced_wall / statistics.median(plain_walls), "ratio")
    doc = run.doc(metrics)
    _print_layers(run, seed, doc, traced)
    return doc


_COUNTS = ("calls", "distinct", "size")


def _check_counts(run: Run, traced: list[list[dict | None]]) -> None:
    """Counts of a serial invocation must repeat exactly between traced passes."""
    for k, argv in enumerate(run.argvs):
        if workers(argv) > 1:
            continue
        seen = {json.dumps({n: [s[c] for c in _COUNTS] for n, s in p[k]["trace"].items()})
                for p in traced if p[k] is not None}
        if len(seen) > 1:
            run.fail(k, "work counts differ between two traced passes of a serial invocation")


def _layer_metrics(run: Run, passes: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """Counts from the first traced pass, times as the median over traced passes."""
    def total(p: list[dict], name: str, field: str) -> float:
        return sum(r["trace"][name][field] for r in p)

    def median_total(name: str, field: str) -> float:
        return statistics.median(total(p, name, field) for p in passes)

    first = passes[0]
    units = {m["name"]: m["unit"] for m in tracing.per_layer_metrics()}
    values: dict[str, float] = {}
    for t in tracing.TARGETS:
        calls = total(first, t.name, "calls")
        distinct = total(first, t.name, "distinct")
        for m in t.metrics:
            if m in ("self_s", "busy_s"):
                values[f"{t.name}.{m}"] = median_total(t.name, m)
            elif m == "useful_ratio":
                values[f"{t.name}.{m}"] = distinct / calls if calls else 0.0
            else:
                values[f"{t.name}.{m}"] = total(first, t.name, {"items": "size", "size_sum": "size"}.get(m, m))
    for layer in tracing.LAYERS:
        names = [t.name for t in tracing.TARGETS if t.layer == layer]
        values[f"{layer}.self_s"] = statistics.median(
            sum(total(p, n, "self_s") for n in names) for p in passes)
    inversions = total(first, "exact.invert_matrix", "calls")
    degrees = total(first, "exact.invert_matrix", "distinct")
    values["interp.engine.useful_ratio"] = degrees / inversions if inversions else 0.0
    values["cli.report_rows"] = total(first, "cli.report", "size")
    values["cli.report_bytes"] = sum(r["report_bytes"] for r in first)
    # CPU time, because a thread waiting for the interpreter lock is inside its span
    selberg = [(r, workers(argv)) for r, argv in zip(first, run.argvs) if "selberg" in argv]
    capacity = sum(r["wall_s"] * w for r, w in selberg)
    values["cli.selberg.parallel_efficiency"] = (
        sum(r["trace"]["boundary.selberg_verify"]["cpu_s"] for r, _ in selberg) / capacity
        if capacity else 0.0)
    return {name: (value, units[name]) for name, value in values.items()}


def _print_table(run: Run, seed: int, doc: dict, samples: list[list[float]], calib: float) -> None:
    err = sys.stderr
    passes = min(len(s) for s in samples)
    print(f"workload {run.workload}  seed {seed}  untraced, {run.attempted} invocations "
          f"in {run.elapsed():.1f} s, {passes} complete passes", file=err)
    for name, m in doc["metrics"].items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']}", file=err)
    print(f"  {'error_rate':<12} {doc['failed'] / max(doc['attempted'], 1):12.4f} "
          f"({doc['failed']} of {doc['attempted']} failed)", file=err)
    if passes:
        sums = sorted(sum(s[j] for s in samples) for j in range(passes))
        p = _highest_percentile(passes)
        shown = f", p{p} {_percentile(sums, p):.4f} s" if p else ""
        print(f"  whole-pass wall: median {statistics.median(sums):.4f} s{shown} (n={passes}; a "
              f"percentile is shown only with >=10 passes beyond it)", file=err)
    print(f"  host.calib_s {calib:.5f} s", file=err)
    print("  per invocation: median / min / max s, n", file=err)
    for argv, s in zip(run.argvs, samples):
        if s:
            print(f"    {statistics.median(s):8.4f} {min(s):8.4f} {max(s):8.4f} {len(s):3d}  "
                  f"{argv_key(argv)}", file=err)
    _print_failures(run)


def _print_layers(run: Run, seed: int, doc: dict, traced: list[list[dict | None]]) -> None:
    err = sys.stderr
    print(f"workload {run.workload}  seed {seed}  traced, {len(traced)} traced passes, "
          f"{run.attempted} invocations in {run.elapsed():.1f} s", file=err)
    for name, m in doc["metrics"].items():
        print(f"  {name:<48} {m['value']:14.6g} {m['unit']}", file=err)
    for k, argv in enumerate(run.argvs):
        if workers(argv) == 1:
            continue
        print(f"  count ranges over traced passes of {argv_key(argv)}:", file=err)
        for t in tracing.TARGETS:
            vals = [p[k]["trace"][t.name]["calls"] for p in traced if p[k] is not None]
            if vals and max(vals):
                print(f"    {t.name}.calls {min(vals)}..{max(vals)}", file=err)
        degrees = [p[k]["trace"]["exact.invert_matrix"]["distinct"] for p in traced if p[k]]
        if degrees and max(degrees):
            print(f"    distinct engine degrees {min(degrees)}..{max(degrees)}", file=err)
    _print_failures(run)


def _print_failures(run: Run) -> None:
    for key, why in run.failures:
        print(f"  FAILED {key}: {why}", file=sys.stderr)


def _highest_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it, above the median."""
    p = int(100 * (n - 10) / n) if n else 0
    return p if p > 50 else None


def _percentile(sorted_values: list[float], p: int) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(len(sorted_values) * p / 100))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "harmgraphs" / "cli.py").is_file():
        print(f"error: no src/harmgraphs under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = {}
    try:
        for name in names:
            docs[name] = (trace if args.trace else measure)(name, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(docs) == 1:
        doc = docs[names[0]]
    else:
        doc = {
            "correct": all(d["correct"] for d in docs.values()),
            "attempted": sum(d["attempted"] for d in docs.values()),
            "failed": sum(d["failed"] for d in docs.values()),
            "metrics": {f"{w}.{n}": m for w, d in docs.items() for n, m in d["metrics"].items()},
        }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
