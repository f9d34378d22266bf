"""Spans and counters around harmgraphs' public functions, from outside the package.

`Tracer.install()` replaces each target function by a wrapper in every
`harmgraphs` module namespace that binds it (`dim` is bound in `graphs`,
`harmonic` and `cli`; `invert_matrix` in `exact` and `interp`), and each
target method on its class. A wrapper records one span per call: id, target,
parent span on the same thread, thread, start, end, a per-call size and, for
`cpu` targets, the thread's CPU time. Spans stay in memory until `summary()`
derives the per-target figures and `write_spans()` dumps them.

Self time is a span's duration minus the durations of its child spans. A
child is recorded with the span open on its own thread, so children never
overlap and their sum is the part of the interval they cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PHI_CLASSES = (
    "YoungZZ", "JackZZ", "KingmanTA", "SchurT",
    "TruncYoung", "GammaShaped", "TruncKingman", "TruncSchur",
)


@dataclass(frozen=True)
class Target:
    name: str
    attrs: tuple[str, ...]
    metrics: tuple[str, ...] = ("calls", "self_s")
    key: Callable | None = None
    size: Callable | None = None
    cpu: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _fn(module: str, *names: str) -> list[Target]:
    return [Target(f"{module}.{n}", (f"harmgraphs.{module}:{n}",)) for n in names]


def _nrows(args, result) -> int:
    return args[0].nrows


def _length(args, result) -> int:
    return len(result)


TARGETS: tuple[Target, ...] = (
    Target("exact.det", ("harmgraphs.exact:det",), ("calls", "size_sum", "self_s"), size=_nrows),
    Target("exact.pfaffian", ("harmgraphs.exact:pfaffian",)),
    Target("exact.solve_linear", ("harmgraphs.exact:solve_linear",),
           ("calls", "size_sum", "self_s"), size=_nrows),
    # distinct matrix sizes are the distinct engine degrees
    Target("exact.invert_matrix", ("harmgraphs.exact:invert_matrix",),
           key=lambda args, kwargs: args[0].nrows),
    Target("partitions.partitions_of", ("harmgraphs.partitions:partitions_of",),
           ("calls", "items", "self_s"), size=_length),
    *_fn("partitions", "partitions_up_to"),
    Target("graphs.dim", ("harmgraphs.graphs:dim",), ("calls", "distinct", "useful_ratio", "self_s"),
           key=lambda args, kwargs: (args[2].name, args[2].theta, args[0].parts, args[1].parts)),
    *_fn("graphs", "edge_multiplicity", "dim_closed_form"),
    Target("graphs.level", ("harmgraphs.graphs:level",), ("calls", "items"), size=_length),
    *_fn("series", "factorial_series_from_rational", "poly_mul"),
    *_fn("interp", "shifted_schur_eval", "shifted_schur_at_diagram", "schur_eval",
         "monomial_eval", "factorial_monomial_eval", "pstar_eval"),
    Target("interp.shifted_schur_h_coeffs", ("harmgraphs.interp:shifted_schur_h_coeffs",),
           ("calls", "distinct", "self_s"), key=lambda args, kwargs: args[0]),
    *_fn("interp", "express_in_generator_basis", "apply_functional"),
    Target("harmonic.phi", tuple(f"harmgraphs.harmonic:{c}.phi" for c in PHI_CLASSES),
           ("calls", "distinct", "useful_ratio", "self_s"),
           key=lambda args, kwargs: (args[0], args[1])),
    *[Target(f"harmonic.{n}", (f"harmgraphs.harmonic:{n}",), ("calls", "busy_s"))
      for n in ("check_harmonicity", "level_measure", "lattice_bound_approx")],
    Target("boundary.selberg_verify", ("harmgraphs.boundary:selberg_verify",),
           ("calls", "busy_s"), cpu=True),
    Target("boundary.convergence_experiment", ("harmgraphs.boundary:convergence_experiment",),
           ("calls", "busy_s")),
    *_fn("boundary", "density_value", "young_kernel", "kingman_kernel"),
    Target("cli.main", ("harmgraphs.cli:main",), ("calls", "busy_s")),
    Target("cli.report", tuple(f"harmgraphs.cli:Report.{m}" for m in ("to_text", "to_json", "to_csv")),
           ("self_s",), size=lambda args, result: len(args[0].rows)),
)

LAYERS = ("exact", "partitions", "graphs", "series", "interp", "harmonic", "boundary")

_UNITS = {"calls": "count", "distinct": "count", "items": "count", "size_sum": "count",
          "useful_ratio": "ratio", "self_s": "s", "busy_s": "s"}
_HIGHER_BETTER = {"useful_ratio"}


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in BENCHMARK.json form."""
    out = []
    for t in TARGETS:
        for m in t.metrics:
            out.append((f"{t.name}.{m}", _UNITS[m], m in _HIGHER_BETTER))
    out += [(f"{layer}.self_s", "s", False) for layer in LAYERS]
    out += [
        ("interp.engine.useful_ratio", "ratio", True),
        ("cli.report_rows", "count", False),
        ("cli.report_bytes", "bytes", False),
        ("cli.selberg.parallel_efficiency", "ratio", True),
        ("host.calib_s", "s", False),
        ("trace.overhead_ratio", "ratio", False),
    ]
    return [{"name": n, "unit": u, "better": "higher" if hi else "lower"} for n, u, hi in out]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.keys: list[set] = [set() for _ in TARGETS]
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "harmgraphs" or name.startswith("harmgraphs."))]
        for fid, target in enumerate(TARGETS):
            for where in target.attrs:
                module_name, _, qualname = where.partition(":")
                *path, attr = qualname.split(".")
                owner = sys.modules[module_name]
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapper = self._wrap(fid, target, original)
                if path:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fid: int, target: Target, fn):
        record = self.spans.append
        next_id = self._ids.__next__
        local = self._local
        clock = time.perf_counter
        cpu_clock = time.thread_time if target.cpu else None
        thread_id = threading.get_ident
        key, size = target.key, target.size
        seen = self.keys[fid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = next_id()
            parent = stack[-1] if stack else -1
            if key is not None:
                seen.add(key(args, kwargs))
            stack.append(idx)
            n = 0
            c0 = cpu_clock() if cpu_clock else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    n = size(args, result)
                return result
            finally:
                t1 = clock()
                cpu = cpu_clock() - c0 if cpu_clock else 0.0
                stack.pop()
                record((idx, fid, parent, thread_id(), t0, t1, n, cpu))

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, distinct, size, self_s, busy_s and cpu_s."""
        child: dict[int, float] = defaultdict(float)
        fid_of: dict[int, int] = {}
        for idx, fid, parent, _tid, t0, t1, _n, _cpu in self.spans:
            fid_of[idx] = fid
            if parent >= 0:
                child[parent] += t1 - t0
        out = {t.name: {"calls": 0, "distinct": len(self.keys[i]), "size": 0,
                        "self_s": 0.0, "busy_s": 0.0, "cpu_s": 0.0}
               for i, t in enumerate(TARGETS)}
        for idx, fid, parent, _tid, t0, t1, n, cpu in self.spans:
            s = out[TARGETS[fid].name]
            s["calls"] += 1
            s["size"] += n
            s["self_s"] += (t1 - t0) - child.get(idx, 0.0)
            s["cpu_s"] += cpu
            if fid_of.get(parent) != fid:  # recursion is busy only once
                s["busy_s"] += t1 - t0
        return out

    def write_spans(self, path: str) -> None:
        threads: dict[int, int] = {}
        base = min((s[4] for s in self.spans), default=0.0)
        rows = [[idx, fid, parent, threads.setdefault(tid, len(threads)),
                 round(t0 - base, 9), round(t1 - base, 9), n, round(cpu, 9)]
                for idx, fid, parent, tid, t0, t1, n, cpu in sorted(self.spans)]
        doc = {"names": [t.name for t in TARGETS],
               "fields": ["id", "name", "parent", "thread", "start_s", "end_s", "size", "cpu_s"],
               "spans": rows}
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
