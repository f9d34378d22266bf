"""A smoke test of `tools/src_size.py` on the working tree, which needs no git."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)


def test_measure_counts_lines_and_ast_nodes():
    # Module, Assign, Name, Store, Constant
    assert src_size.measure("x = 1\n") == (1, 5)
    assert src_size.measure("") == (0, 1)


def test_working_tree_table():
    sizes = src_size.tree_sizes()
    path = src_size.ROOT / src_size.PACKAGE / "boundary.py"
    text = path.read_text()
    assert sizes["boundary.py"] == (len(text.splitlines()), len(list(ast.walk(ast.parse(text)))))
    # the tree against itself: each module's figures twice, with zero deltas
    rows = [line.split() for line in src_size.table(sizes, sizes).splitlines()]
    assert rows[0] == ["module", "HEAD", "lines", "tree", "lines", "delta", "HEAD", "nodes", "tree", "nodes", "delta"]
    assert [row[0] for row in rows[1:-1]] == sorted(sizes)
    lines, nodes = (str(sum(column)) for column in zip(*sizes.values()))
    assert rows[-1] == ["total", lines, lines, "+0", nodes, nodes, "+0"]
