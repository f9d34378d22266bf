"""Every top-level definition in `src/`, and every method of a class there, is reached
from a root: the CLI's `main`, a name the benchmark tracer wraps, or a name the
package exports.  A reference kept only for the tests belongs in `tests/oracles.py`,
not in the library.

Reachability is by name: a reached definition reaches every definition, in any
module, whose name it mentions as a name or an attribute.  A class's statement
mentions everything in its body, its methods included, and each of its methods
other than the dunders (which Python calls by protocol) is a definition of its own,
looked up by the method's name.  That over-approximates the call graph, so a
failure is a real orphan.
"""

import ast
from pathlib import Path

import harmgraphs
from test_tracing_targets import WHERE

SRC = Path(harmgraphs.__file__).resolve().parent

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _mentions(node) -> set[str]:
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _definitions(sources):
    """(module, qualified name) -> (the name it is looked up by, the names its statement
    mentions), for the module sources by name."""
    out = {}
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            mentions = _mentions(node)
            for name in names:
                out[(module, name)] = name, mentions
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _FUNCTIONS) and not member.name.startswith("__"):
                        out[(module, f"{node.name}.{member.name}")] = member.name, _mentions(member)
    return out


def _orphans(sources, roots) -> list[str]:
    definitions = _definitions(sources)
    by_name = {}
    for key, (name, _) in definitions.items():
        by_name.setdefault(name, []).append(key)
    reached, todo = set(), [d for root in roots for d in by_name.get(root, ())]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        todo += [d for name in definitions[key][1] for d in by_name.get(name, ())]
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - reached)


def _roots():
    yield "main"
    yield "__all__"
    for where in WHERE:
        yield from where.partition(":")[2].split(".")  # a traced method roots its class and itself
    yield from harmgraphs.__all__


def test_every_source_definition_is_reached():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _orphans(sources, list(_roots())) == []


def test_a_method_only_the_tests_call_is_an_orphan():
    source = '''
class Shape:
    def __len__(self):
        return self.rows()

    def rows(self):
        return 1

    @property
    def size(self):
        return 2

    def spare(self):
        return 3


def main():
    return len(Shape()) + Shape().size
'''
    assert _orphans({"m": source}, ["main"]) == ["m.Shape.spare"]
    assert _orphans({"m": source}, ["main", "spare"]) == []


def test_the_package_exports_exactly_the_names_it_imports():
    # `__all__` is derived from the module's globals: a stray import would join it
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert harmgraphs.__all__ == imported
