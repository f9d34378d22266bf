"""A smoke test of `tools/src_size.py` on the working tree and on synthetic sources, which needs no git."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)


def test_measure_counts_lines_and_ast_nodes():
    # Module, Assign, Name, Store, Constant
    assert src_size.measure("x = 1\n") == (1, 5)
    assert src_size.measure("") == (0, 1)


def test_working_tree_table():
    sources = src_size.tree_sources()
    path = src_size.ROOT / src_size.PACKAGE / "boundary.py"
    text = path.read_text()
    assert sources["boundary.py"] == text
    assert src_size.measure(text) == (len(text.splitlines()), len(list(ast.walk(ast.parse(text)))))
    # the tree against itself: each module's figures twice, with zero deltas
    rows = [line.split() for line in src_size.table(sources, sources).splitlines()]
    assert rows[0] == ["module", "HEAD", "lines", "tree", "lines", "delta", "HEAD", "nodes", "tree", "nodes", "delta"]
    assert [row[0] for row in rows[1:-1]] == sorted(sources)
    lines, nodes = (str(sum(column)) for column in zip(*map(src_size.measure, sources.values())))
    assert rows[-1] == ["total", lines, lines, "+0", nodes, nodes, "+0"]


def test_definition_table_lists_only_changed_definitions():
    # the tree against itself: the header and no row
    sources = src_size.tree_sources()
    assert src_size.definition_table(sources, sources) == "definition  HEAD nodes  tree nodes  delta\n"
    # a base with one changed method: one row, its delta the extra nodes of `1 + 2` (BinOp,
    # Constant, Add); the class's own count moves too, and a new function counts 0 at the base
    tree = {"m.py": "def f():\n    return 1\n\n\nclass C:\n    def g(self):\n        return 1 + 2\n"}
    base = {"m.py": "class C:\n    def g(self):\n        return 1\n"}
    assert src_size.definitions(tree["m.py"]) == {"f": 4, "C": 9, "C.g": 8}
    rows = [line.split() for line in src_size.definition_table(tree, base, "REV").splitlines()]
    assert rows == [
        ["definition", "REV", "nodes", "tree", "nodes", "delta"],
        ["m.C", "6", "9", "+3"],
        ["m.C.g", "5", "8", "+3"],
        ["m.f", "0", "4", "+4"],
    ]


@pytest.mark.parametrize("no_git", [False, True], ids=["no-such-revision", "no-git-on-path"])
def test_a_revision_git_cannot_read_is_a_usage_error(capsys, monkeypatch, no_git):
    # no such revision, no git checkout or no git at all: the usage line and one error line, exit 2
    if no_git:
        monkeypatch.setenv("PATH", "")
    with pytest.raises(SystemExit) as stop:
        src_size.main(["no-such-revision"])
    out, err = capsys.readouterr()
    assert stop.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: src_size") and error.startswith("src_size: error: ")
    assert len(error) > len("src_size: error: ")
