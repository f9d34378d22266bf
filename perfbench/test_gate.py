"""Self-tests of the benchmark's correctness gate and metric lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from worker import summarize  # noqa: E402
from workloads import WORKLOADS, all_argvs, argv_key, plan  # noqa: E402

MEASURE = ["measure", "--family", "young-zz:e=1,t=1", "--n", "3"]
# known defect: convergence-monotone fails on a width-3 face, exit code 1
EXIT_1 = ["converge", "--family", "trunc-young:lambda=2+1+1", "--n", "30,60,90"]
# known defect: ZeroDivisionError escapes main
RAISES = ["density", "--graph", "gamma", "--lambda", "2+1", "--at", "1/2;-1/2"]


def _report(argv: list[str]) -> bytes:
    import harmgraphs.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


def test_one_byte_report_change_is_a_failure():
    result = run.run_worker(MEASURE, False, None, timeout=60)
    report = _report(MEASURE)
    assert result["sha256"] == summarize(report)[0]
    stored = {argv_key(MEASURE): result["sha256"]}
    assert run.judge(result, MEASURE, stored, {}) is None
    changed = bytearray(report)
    changed[len(changed) // 2] ^= 1
    tampered = dict(result, sha256=summarize(bytes(changed))[0])
    assert "differs from the stored" in run.judge(tampered, MEASURE, stored, {})


def test_unstored_digest_must_repeat():
    result = run.run_worker(MEASURE, False, None, timeout=60)
    seen: dict[str, str] = {}
    assert run.judge(result, MEASURE, {}, seen) is None
    assert run.judge(result, MEASURE, {}, seen) is None
    other = dict(result, sha256="0" * 64)
    assert "first repetition" in run.judge(other, MEASURE, {}, seen)


def test_nonzero_exit_and_exception_are_failures():
    gate = run.Run("convergence", 0)
    gate.argvs = [EXIT_1, RAISES, MEASURE]
    assert gate.invoke(0) is None
    assert gate.invoke(1) is None
    assert gate.invoke(2) is not None
    doc = gate.doc({})
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 3, 2)
    assert gate.failures[0][1].startswith("exit code 1")
    assert "ZeroDivisionError" in gate.failures[1][1]


def test_fail_rows_are_counted():
    report = b"PASS  a  x\nFAIL  b  y\nsummary: 1 passed, 1 failed\n"
    assert summarize(report)[1] == 1


def test_every_reachable_argv_has_a_stored_digest():
    stored = run.load_digests()
    assert {argv_key(a) for a in all_argvs()} == set(stored)


def test_seed_picks_the_same_inputs():
    for name in WORKLOADS:
        assert plan(name, 5) == plan(name, 5)
    assert len({argv_key(plan("convergence", s)[0]) for s in range(40)}) > 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_restores_the_package():
    import harmgraphs.graphs as graphs
    import harmgraphs.harmonic as harmonic

    before = (graphs.dim, harmonic.dim, harmonic.YoungZZ.phi)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert graphs.dim is harmonic.dim is not before[0]
        fam = harmonic.YoungZZ(1, 1)
        harmonic.level_measure(fam, 3)
    finally:
        tracer.uninstall()
    assert (graphs.dim, harmonic.dim, harmonic.YoungZZ.phi) == before
    stats = tracer.summary()
    assert stats["harmonic.phi"]["calls"] == 3
    assert stats["graphs.level"]["size"] == 3
    assert stats["harmonic.level_measure"]["calls"] == 1
