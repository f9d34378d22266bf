"""Every benchmark invocation reproduces the report digest the benchmark stores.

`perfbench/workloads.py` lists each argv that some seed can produce, and
`perfbench/digests.json` holds the sha256 of each one's report; the benchmark
counts a report that differs as a failed operation.  Here each argv runs
through `cli.main` in process.  The perfbench files are only read: the
workloads module is compiled from its source, so no bytecode is written
beside it.
"""

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from harmgraphs.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads() -> types.ModuleType:
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


WORKLOADS = _workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("argv", WORKLOADS.all_argvs(), ids=WORKLOADS.argv_key)
def test_benchmark_report_matches_its_stored_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == EXIT_OK
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[WORKLOADS.argv_key(argv)]
