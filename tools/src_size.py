"""Source lines and AST nodes of each module of `src/harmgraphs`.

    python tools/src_size.py [REV]      # the working tree against REV (default HEAD)

Lines are physical lines, as `wc -l` counts them; nodes are the nodes `ast.walk`
visits in the parsed module.  At a revision each module is read with `git show
REV:path`, so nothing is checked out.  A module on one side only counts 0 on the
other.  The last row holds the totals; the deltas are tree - REV.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/harmgraphs"
Sizes = dict[str, tuple[int, int]]  # module file name -> (lines, nodes)


def measure(text: str) -> tuple[int, int]:
    """(lines, AST nodes) of one module's source."""
    return text.count("\n"), sum(1 for _ in ast.walk(ast.parse(text)))


def tree_sizes(root: Path = ROOT) -> Sizes:
    """(lines, nodes) of each module in the working tree."""
    return {path.name: measure(path.read_text()) for path in sorted((root / PACKAGE).glob("*.py"))}


def revision_sizes(rev: str, root: Path = ROOT) -> Sizes:
    """(lines, nodes) of each module at a git revision."""

    def git(*args: str) -> str:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True)
        return done.stdout

    paths = git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {Path(p).name: measure(git("show", f"{rev}:{p}")) for p in paths if p.endswith(".py")}


def table(tree: Sizes, base: Sizes, rev: str = "HEAD") -> str:
    """One row per module and a totals row: the base's lines and nodes, the tree's and the
    delta of each."""
    header = ["module", f"{rev} lines", "tree lines", "delta", f"{rev} nodes", "tree nodes", "delta"]
    rows = []
    for name in sorted(tree.keys() | base.keys()):
        (bl, bn), (tl, tn) = base.get(name, (0, 0)), tree.get(name, (0, 0))
        rows.append([name, bl, tl, tl - bl, bn, tn, tn - bn])
    rows.append(["total", *map(sum, list(zip(*rows))[1:])])
    cells = [header] + [[f"{v:+d}" if h == "delta" else str(v) for h, v in zip(header, row)] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(
        "  ".join([row[0].ljust(widths[0]), *(c.rjust(w) for c, w in zip(row[1:], widths[1:]))]) + "\n"
        for row in cells
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="src_size", description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    sys.stdout.write(table(tree_sizes(), revision_sizes(args.rev), args.rev))
    return 0


if __name__ == "__main__":
    sys.exit(main())
