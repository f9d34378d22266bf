"""Time `harmgraphs` command lines at a git revision and in the working tree, in one process.

    python tools/ab.py REV ARGV [ARGV ...]
    python tools/ab.py 0ae4a93 "dims --kind young --level 3" "verify lattice --levels 12"

Each ARGV is one quoted command line, split as a shell would.  REV's `src/harmgraphs` is
read with `git show REV:path`, as `tools/src_size.py` reads it, and the working tree's from
disk; each is compiled from memory and imported under its own package name
(`harmgraphs_rev`, `harmgraphs_tree`), so both sides share one interpreter and a drift of
the host between runs falls out of their ratio.  Per argv, one untimed call on each side
fills the caches, then CALLS = 40 pairs of `cli.main` calls, each after a full garbage
collection, alternate which side runs first.  One row per argv: each side's minimum, the
median over the pairs of tree time / REV time and its lower and upper quartile (a median
inside the spread between pairs tells no change from the host's drift), and whether every
call on both sides gave the same exit code and report sha256.  The exit code is 0 when every argv's reports match,
else 1; a revision git cannot read (or no git checkout) is a usage error, git's message on
one line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.abc
import importlib.util
import io
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

_spec = importlib.util.spec_from_file_location("src_size", Path(__file__).with_name("src_size.py"))
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

CALLS = 40  # timed pairs per argv


class SourcePackage(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Imports one package's modules, named `package` and `package.<module>`, from source text."""

    def __init__(self, package: str, sources: src_size.Sources, origin: str):
        self.package, self.sources, self.origin = package, sources, origin

    def find_spec(self, fullname, path=None, target=None):
        head, _, name = fullname.partition(".")
        if head != self.package or f"{name or '__init__'}.py" not in self.sources:
            return None
        return importlib.util.spec_from_loader(fullname, self, is_package=not name)

    def exec_module(self, module) -> None:
        name = f"{module.__name__.partition('.')[2] or '__init__'}.py"
        exec(compile(self.sources[name], f"{self.origin}/{name}", "exec"), module.__dict__)

    def cli(self):
        """The package's `cli` module, imported once."""
        if self not in sys.meta_path:
            sys.meta_path.insert(0, self)
        return importlib.import_module(f"{self.package}.cli")


def call(cli, argv: list[str]) -> tuple[float, tuple[int, str]]:
    """(seconds, (exit code, report sha256)) of one `cli.main(argv)`, its output captured.  A
    full collection first gives each call the clean heap of a fresh process: without it, the
    collections a call triggers pay for what earlier calls left, and identical sides differ
    by 1-2%."""
    out = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return seconds, (code, hashlib.sha256(out.getvalue().encode()).hexdigest())


def compare(rev_cli, tree_cli, argv: list[str]) -> tuple[float, float, list[float], bool]:
    """(REV's minimum, the tree's minimum, the lower quartile, median and upper quartile of the
    tree/REV ratios, whether every outcome matches) over CALLS alternating pairs, after one
    untimed call on each side."""
    sides = (rev_cli, tree_cli)
    outcomes = {call(cli, argv)[1] for cli in sides}
    times: tuple[list[float], list[float]] = ([], [])
    for k in range(CALLS):
        for s in (0, 1) if k % 2 == 0 else (1, 0):
            seconds, outcome = call(sides[s], argv)
            times[s].append(seconds)
            outcomes.add(outcome)
    ratios = statistics.quantiles([t / r for r, t in zip(*times)], n=4)
    return min(times[0]), min(times[1]), ratios, len(outcomes) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ab", description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("argvs", nargs="+", metavar="ARGV", help="one quoted harmgraphs command line")
    args = parser.parse_args(argv)
    try:
        base = src_size.revision_sources(args.rev)
    except (OSError, subprocess.CalledProcessError) as exc:  # no git, no checkout, or no such revision
        parser.error(" ".join((getattr(exc, "stderr", None) or str(exc)).split()))
    rev_cli = SourcePackage("harmgraphs_rev", base, args.rev).cli()
    tree_cli = SourcePackage("harmgraphs_tree", src_size.tree_sources(), "tree").cli()
    cells = [["argv", f"{args.rev} min ms", "tree min ms", "median tree/rev", "quartiles", "same report"]]
    same = True
    for line in args.argvs:
        rev_min, tree_min, (low, ratio, high), match = compare(rev_cli, tree_cli, shlex.split(line))
        times = (f"{rev_min * 1e3:.3f}", f"{tree_min * 1e3:.3f}", f"{ratio:.3f}", f"{low:.3f}-{high:.3f}")
        cells.append([line, *times, "yes" if match else "no"])
        same = same and match
    sys.stdout.write(src_size._format(cells))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
