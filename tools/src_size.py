"""Source lines and AST nodes of each module of `src/harmgraphs`, and of each definition.

    python tools/src_size.py [REV]      # the working tree against REV (default HEAD)

Lines are physical lines, as `wc -l` counts them; nodes are the nodes `ast.walk`
visits in the parsed module.  At a revision each module is read with `git show
REV:path`, so nothing is checked out; a revision git cannot read (or no git
checkout) is a usage error, git's message on one line.  A module on one side
only counts 0 on the other.  The last row of the first table holds the totals;
the deltas are tree - REV.
The second table has one row per top-level function, class or method (module.name,
module.Class.method) whose node count differs between REV and the tree, a
definition on one side only counting 0 on the other; a class's count includes its
methods.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/harmgraphs"
Sources = dict[str, str]  # module file name -> source text
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def nodes(tree: ast.AST) -> int:
    return sum(1 for _ in ast.walk(tree))


def measure(text: str) -> tuple[int, int]:
    """(lines, AST nodes) of one module's source."""
    return text.count("\n"), nodes(ast.parse(text))


def definitions(text: str) -> dict[str, int]:
    """AST nodes of each top-level function and class and of each method, by qualified name."""
    out: dict[str, int] = {}
    for node in ast.parse(text).body:
        if isinstance(node, DEFINITIONS):
            out[node.name] = out.get(node.name, 0) + nodes(node)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFINITIONS):
                        name = f"{node.name}.{sub.name}"
                        out[name] = out.get(name, 0) + nodes(sub)
    return out


def tree_sources(root: Path = ROOT) -> Sources:
    """The source of each module in the working tree."""
    return {path.name: path.read_text() for path in sorted((root / PACKAGE).glob("*.py"))}


def revision_sources(rev: str, root: Path = ROOT) -> Sources:
    """The source of each module at a git revision."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True)
        return done.stdout

    paths = git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {Path(p).name: git("show", f"{rev}:{p}") for p in paths if p.endswith(".py")}


def _format(cells: list[list[str]]) -> str:
    """The first column left-aligned, the rest right-aligned, each as wide as its widest cell."""
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(
        "  ".join([row[0].ljust(widths[0]), *(c.rjust(w) for c, w in zip(row[1:], widths[1:]))]) + "\n"
        for row in cells
    )


def table(tree: Sources, base: Sources, rev: str = "HEAD") -> str:
    """One row per module and a totals row: the base's lines and nodes, the tree's and the
    delta of each."""
    header = ["module", f"{rev} lines", "tree lines", "delta", f"{rev} nodes", "tree nodes", "delta"]
    rows = []
    for name in sorted(tree.keys() | base.keys()):
        (bl, bn), (tl, tn) = (measure(side[name]) if name in side else (0, 0) for side in (base, tree))
        rows.append([name, bl, tl, tl - bl, bn, tn, tn - bn])
    rows.append(["total", *map(sum, list(zip(*rows))[1:])])
    cells = [[f"{v:+d}" if h == "delta" else str(v) for h, v in zip(header, row)] for row in rows]
    return _format([header] + cells)


def definition_table(tree: Sources, base: Sources, rev: str = "HEAD") -> str:
    """The header, then one row per definition whose node count differs: the base's nodes,
    the tree's and the delta."""
    cells = [["definition", f"{rev} nodes", "tree nodes", "delta"]]
    for name in sorted(tree.keys() | base.keys()):
        before, after = (definitions(side[name]) if name in side else {} for side in (base, tree))
        for key in sorted(before.keys() | after.keys()):
            b, t = before.get(key, 0), after.get(key, 0)
            if b != t:
                cells.append([f"{name.removesuffix('.py')}.{key}", str(b), str(t), f"{t - b:+d}"])
    return _format(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="src_size", description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    try:
        base = revision_sources(args.rev)
    except (OSError, subprocess.CalledProcessError) as exc:  # no git, no checkout, or no such revision
        parser.error(" ".join((getattr(exc, "stderr", None) or str(exc)).split()))
    tree = tree_sources()
    sys.stdout.write(table(tree, base, args.rev) + "\n" + definition_table(tree, base, args.rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
