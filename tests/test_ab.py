"""Smoke tests of `tools/ab.py`: one argv against HEAD (which needs a git checkout), and a
revision git cannot read.  No timing is asserted."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def test_one_argv_against_head_gives_one_row_with_matching_reports(capsys, monkeypatch):
    try:
        ab.src_size.revision_sources("HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs a git checkout with a commit")
    monkeypatch.setattr(sys, "meta_path", list(sys.meta_path))  # the tool's two finders go after
    monkeypatch.setattr(ab, "CALLS", 2)
    assert ab.main(["HEAD", "dims --kind young --level 3"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == [
        "argv", "HEAD", "min", "ms", "tree", "min", "ms", "median", "tree/rev", "quartiles", "same", "report"
    ]
    assert row.startswith("dims --kind young --level 3 ")
    *_, rev_min, tree_min, ratio, quartiles, same = row.split()
    low, high = map(float, quartiles.split("-"))
    assert min(map(float, (rev_min, tree_min, ratio))) > 0 and low <= float(ratio) <= high
    assert same == "yes"


def test_a_revision_git_cannot_read_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        ab.main(["no-such-revision", "dims --kind young --level 3"])
    out, err = capsys.readouterr()
    assert stop.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: ab") and error.startswith("ab: error: ")
