"""Pieces shared by the three workloads."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Request:
    """One closed-loop request: a type, an instance name and its inputs."""

    kind: str
    name: str
    args: dict = field(default_factory=dict)


@dataclass
class Stats:
    """Facts that checks gather for the per-layer metrics."""

    solves: int = 0
    certified: int = 0
    gap_rel_max: float = 0.0
    named_paths: int = 0
    named_relations: int = 0
    ladder_residual_max: float = 0.0
    energy_drift_max: float = 0.0


def round_rng(seed: int, salt: int, index: int) -> np.random.Generator:
    """Generator for round `index` of the workload with this salt.

    The same arguments give the same draws; the salt keeps workloads that
    share a seed from drawing the same numbers.
    """
    return np.random.default_rng([seed, salt, index])
