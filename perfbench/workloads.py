"""The benchmark's workloads: which `harmgraphs` invocations each one runs.

A workload is a fixed list of steps. A step is an argv template with one
`{x}` slot and a pool of values for it; `--seed` picks one value per step.
Every pool is small and bounded in rational height, so the amount of work
stays comparable from seed to seed, and every argv any seed can produce is
listed by `all_argvs()` (its report digest is stored in `digests.json`).

Family parameters are conjugate pairs (e^2 < 4t), so no vertex has phi = 0
and no seed gets a degenerate, cheaper family. Convergence uses width-2
lambda only: on wider faces the binned distance is not computed and the
`convergence-monotone` row fails.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    template: tuple[str, ...]
    pool: tuple[str, ...] = ("",)

    def argv(self, value: str) -> list[str]:
        return [part.format(x=value) for part in self.template]


def _step(command: str, pool: tuple[str, ...] = ("",)) -> Step:
    return Step(tuple(shlex.split(command)), pool)


YOUNG_ZZ = ("e=1,t=5/4", "e=2,t=2", "e=1,t=1", "e=3,t=3")
JACK = ("e=1,t=5/4,theta=1/2", "e=2,t=2,theta=1/2", "e=1,t=1,theta=2", "e=3,t=3,theta=2")
KINGMAN = ("t=1,alpha=1/2", "t=2,alpha=1/3", "t=1/2,alpha=1/4", "t=3/2,alpha=1/2")
SCHUR_T = ("2", "1/2", "5/2", "3")
JACK_THETA = ("1/2", "2", "1/3", "3")
GAMMA_LAMBDA = ("2+1", "1+1", "2", "3+1")
WIDTH2_LAMBDA = ("2+1", "3+1", "2+2", "3+2")
PIERI_SEEDS = ("7", "11", "29", "31")
KERNEL_SEEDS = ("7", "11", "19", "23")

WORKLOADS: dict[str, tuple[Step, ...]] = {
    # graphs / harmonic / partitions: phi, recursive dim, Jack edge weights.
    "closed-form-sweep": (
        _step("check-harmonic --family young-zz:{x} --levels 14", YOUNG_ZZ),
        _step("check-harmonic --family jack:{x} --levels 12", JACK),
        _step("check-harmonic --family kingman:{x} --levels 12", KINGMAN),
        _step("check-harmonic --family schur:t={x} --levels 16", SCHUR_T),
        _step("measure --family young-zz:{x} --n 16", YOUNG_ZZ),
        _step("dims --kind jack({x}) --level 14", JACK_THETA),
        _step("verify lattice --levels 12"),
    ),
    # interp generator-basis engine: one functional at high degree, then
    # many functionals at low degree under the documented thread pool.
    "generator-engine": (
        _step("check-harmonic --family gamma:lambda={x},cap=7 --levels 7", GAMMA_LAMBDA),
        _step("verify selberg --graph gamma --max-size 6 --workers 2"),
    ),
    # exact det/Pfaffian, series, interp evaluators, boundary Selberg; never
    # touches the engine. dimension-ratio makes many memoized skew dim queries.
    "identity-suites": (
        _step("verify pieri --seed {x}", PIERI_SEEDS),
        _step("verify selberg --graph young --max-size 6"),
        _step("verify selberg --graph kingman --max-size 6"),
        _step("verify selberg --graph schur --max-size 6"),
        _step("verify staircase"),
        _step("verify interpolation"),
        _step("verify kernels --seed {x}", KERNEL_SEEDS),
        _step("verify dimension-ratio"),
    ),
    # partitions at large n (width-bounded enumeration) plus boundary.
    "convergence": (
        _step("converge --family trunc-young:lambda={x} --n 500,1000,2000", WIDTH2_LAMBDA),
        _step("converge --family trunc-kingman:lambda={x} --n 500,1000,2000", WIDTH2_LAMBDA),
    ),
}


def plan(workload: str, seed: int) -> list[list[str]]:
    """The argv of each invocation of one pass of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    return [step.argv(rng.choice(step.pool)) for step in WORKLOADS[workload]]


def all_argvs() -> list[list[str]]:
    """Every argv that some seed can produce, each once, in a fixed order."""
    seen: dict[str, list[str]] = {}
    for steps in WORKLOADS.values():
        for step in steps:
            for value in step.pool:
                argv = step.argv(value)
                seen.setdefault(argv_key(argv), argv)
    return list(seen.values())


def argv_key(argv: list[str]) -> str:
    return shlex.join(argv)


def workers(argv: list[str]) -> int:
    """Threads the invocation asks for; counts from >1 depend on interleaving."""
    if "--workers" in argv:
        return int(argv[argv.index("--workers") + 1])
    return 1
