"""The benchmark tracer wraps harmgraphs functions by `module:qualname`.

A refactor that unbinds one of those names would otherwise show only in a
traced benchmark run; this resolves every target the way `Tracer.install`
does, without installing anything.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from harmgraphs import harmonic

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WHERE = [where for target in _tracing_module().TARGETS for where in target.attrs]


@pytest.mark.parametrize("where", WHERE)
def test_every_traced_name_resolves(where):
    module_name, _, qualname = where.partition(":")
    *path, attr = qualname.split(".")
    owner = importlib.import_module(module_name)
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])


def test_every_family_defines_its_own_level_form():
    # the base has no `level_phi`, so a family class without one fails as it is created;
    # each family binds `phi` and `level_phi` where the tracer wraps them
    families = [
        cls for name, cls in vars(harmonic).items()
        if isinstance(cls, type) and issubclass(cls, harmonic.HarmonicFamily)
        and cls is not harmonic.HarmonicFamily and not name.startswith("_")
    ]
    assert len(families) == 8
    for cls in families:
        assert {"phi", "level_phi"} <= vars(cls).keys(), cls.__name__
