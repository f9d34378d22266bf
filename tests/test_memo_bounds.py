"""No module keeps an unbounded memo: a cache that grows with every new key
holds memory for the life of the process, and the right algorithm needs none."""

import importlib
import pkgutil

import harmgraphs


def _unbounded_memos(module):
    for name, obj in vars(module).items():
        members = [(name, obj)]
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            members += [(f"{name}.{key}", value) for key, value in vars(obj).items()]
        for where, fn in members:
            params = getattr(fn, "cache_parameters", None)
            if callable(params) and params()["maxsize"] is None:
                yield f"{module.__name__}:{where}"


def test_no_module_keeps_an_unbounded_lru_cache():
    names = ["harmgraphs", *(m.name for m in pkgutil.walk_packages(harmgraphs.__path__, "harmgraphs."))]
    assert len(names) > 1
    found = [memo for name in names for memo in _unbounded_memos(importlib.import_module(name))]
    assert found == []
