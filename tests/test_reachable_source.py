"""Every top-level definition in `src/` is reached from a root: the CLI's `main`,
a name the benchmark tracer wraps, or a name the package exports.  A reference
kept only for the tests belongs in `tests/oracles.py`, not in the library.

Reachability is by name: a reached definition reaches every top-level
definition, in any module, whose name it mentions as a name or an attribute.
That over-approximates the call graph, so a failure is a real orphan.
"""

import ast
from pathlib import Path

import harmgraphs
from test_tracing_targets import WHERE

SRC = Path(harmgraphs.__file__).resolve().parent


def _definitions():
    """(module, name) -> the names its top-level statement mentions."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            mentions = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            mentions |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            for name in names:
                out[(module, name)] = mentions
    return out


def _roots():
    yield "main"
    yield "__all__"
    for where in WHERE:
        yield where.partition(":")[2].split(".")[0]
    yield from harmgraphs.__all__


def test_every_source_definition_is_reached():
    definitions = _definitions()
    by_name = {}
    for module, name in definitions:
        by_name.setdefault(name, []).append((module, name))
    reached, todo = set(), [d for root in _roots() for d in by_name.get(root, ())]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo += [d for name in definitions[key] for d in by_name.get(name, ())]
    orphans = sorted(f"{module}.{name}" for module, name in definitions.keys() - reached)
    assert orphans == []
