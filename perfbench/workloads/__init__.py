"""The benchmark's workloads, by name; each module has ``build(seed, cycle)``."""

from importlib import import_module

NAMES = ("moyal-deformation", "ansatz-solve", "matrix-calculus", "cli-oneshot")


def load(name: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return import_module(f"perfbench.workloads.{name.replace('-', '_')}")
