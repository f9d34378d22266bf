"""Run one `harmgraphs` invocation in this fresh interpreter and describe it.

    python3 perfbench/worker.py '{"argv": [...], "trace": false, "spans": null}'

run.py starts one worker per invocation with `src` on PYTHONPATH. The
worker imports `harmgraphs.cli`, notes the monotonic clock (comparable
across processes, so run.py can take interpreter start plus import as
set-up time), calls `cli.main(argv)` with the report captured, and prints
one JSON line on its own stdout. With `"trace": true` it first wraps the
package's public functions (see tracing.py) and adds their summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def summarize(report: bytes) -> tuple[str, int]:
    """The report's sha256 and its number of FAIL rows."""
    fails = sum(1 for line in report.splitlines() if line.startswith(b"FAIL"))
    return hashlib.sha256(report).hexdigest(), fails


def main() -> None:
    spec = json.loads(sys.argv[1])
    import harmgraphs.cli as cli

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - start
    report = out.getvalue().encode()
    digest, fails = summarize(report)
    result = {
        "rc": rc,
        "error": error,
        "stderr": err.getvalue()[-400:],
        "ready": ready,
        "wall_s": wall,
        "sha256": digest,
        "fail_rows": fails,
        "report_bytes": len(report),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
