"""Workload definitions: the zexlab commands each workload runs, built from a seed.

A workload is a list of jobs.  A job is one ``zexlab`` command with a flat
key=value config file, run in-process through ``zexlab.cli.main``.  Jobs marked
``seeded`` take their inputs from the workload seed; the others are fixed, so
their outputs can be compared with the recorded reference on every seed.

This module imports only the standard library: the measured child imports it
before it starts the set-up clock.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# zexlab.acceptance.DEFAULT_SEED; the reference outputs were recorded with it.
DEFAULT_SEED = 7

SIZES = ("full", "tiny")

# Gates that the tiny verify run keeps: one seeded gate, one pure-Python gate
# and the determinism bundle, which touches every emitting layer.
TINY_VERIFY_GATES = ("shift_bounds", "besov_machinery", "determinism")

# Partitions per adaptive command: zexlab.adaptive.default_epsilons uses j = 1..8.
DEFAULT_EPSILON_COUNT = 8

CUSP = "cusp alpha=0.5 center=0.5"


@dataclass(frozen=True)
class Job:
    name: str
    command: str                  # zexlab subcommand
    config: dict                  # config key -> value text
    seeded: bool                  # inputs depend on the workload seed
    gates: tuple = field(default=())  # verify only: gate subset, () = all

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    @property
    def p_values(self) -> tuple:
        return tuple(float(v) for v in self.config.get("p", "2").split(","))


def _window(lo_exp: int, hi_exp: int) -> str:
    """Config window 2^-lo_exp : 2^-hi_exp."""
    return f"{2.0 ** -lo_exp!r}:{2.0 ** -hi_exp!r}"


def _modulus(name, function, d, level, p, kind, seeded, window=None) -> Job:
    config = {"function": function, "d": str(d), "L": str(level), "p": p,
              "kind": kind}
    if window is not None:
        config["window"] = window
    return Job(name, "modulus", config, seeded)


def verify_jobs(seed: int, size: str) -> list:
    gates = TINY_VERIFY_GATES if size == "tiny" else ()
    return [Job("verify", "verify", {"seed": str(seed)}, True, gates)]


def sup_p2_jobs(seed: int, size: str) -> list:
    l1, l2, l3 = (16, 10, 6) if size == "full" else (8, 5, 4)
    rand = f"random level={l1 - 6} seed={seed}"
    return [
        _modulus("d1-interior-cusp", CUSP, 1, l1, "2", "interior", False),
        _modulus("d1-interior-random", rand, 1, l1, "2", "interior", True),
        _modulus("d1-whole-cusp", CUSP, 1, l1, "2", "whole", False,
                 _window(l1 - 2, 4)),
        _modulus("d2-interior-cusp", CUSP, 2, l2, "2", "interior", False),
        _modulus("d2-whole-cusp", CUSP, 2, l2, "2", "whole", False),
        _modulus("d3-interior-cusp", CUSP, 3, l3, "2", "interior", False),
        _modulus("d3-whole-cusp", CUSP, 3, l3, "2", "whole", False),
    ]


def sup_p3_jobs(seed: int, size: str) -> list:
    l1, l2, l3 = (16, 9, 6) if size == "full" else (8, 5, 4)
    rand = f"random level={l2 - 3} seed={seed}"
    return [
        _modulus("d1-interior-cusp", CUSP, 1, l1, "1,3", "interior", False,
                 _window(l1 - 2, 4)),
        _modulus("d1-whole-cusp", CUSP, 1, l1, "1,3", "whole", False,
                 _window(l1 - 2, 5)),
        _modulus("d2-interior-random", rand, 2, l2, "1,3", "interior", True),
        _modulus("d3-interior-cusp", CUSP, 3, l3, "1,3", "interior", False),
    ]


def adaptive_rough_jobs(seed: int, size: str) -> list:
    level, rand_level = (10, 8) if size == "full" else (6, 4)
    config = {"function": f"random level={rand_level} seed={seed}", "d": "2",
              "L": str(level), "p": "2"}
    return [Job("random-d2", "adaptive", config, True)]


WORKLOADS = {
    "verify": verify_jobs,
    "sup-p2": sup_p2_jobs,
    "sup-p3": sup_p3_jobs,
    "adaptive-rough": adaptive_rough_jobs,
}


def jobs(workload: str, seed: int, size: str = "full") -> list:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r}; known: {', '.join(SIZES)}")
    return WORKLOADS[workload](seed, size)
