"""Optimization objectives.

The paper optimizes minimum latency by default and reports latency-area
product as a secondary metric; energy and EDP are supported as alternative
objectives (Sec. V-A).  On top of the scalar objectives this module defines
vector-valued objective sets (:class:`ObjectiveSet` /
:func:`objective_vector`) for multi-objective Pareto-front search: every
component is a pure function of the same cost-model report, so one batched
evaluation pass feeds all objectives at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from repro.arch.area import AreaBreakdown
from repro.cost.performance import ModelPerformance


class Objective(enum.Enum):
    """What the search minimizes."""

    LATENCY = "latency"
    ENERGY = "energy"
    EDP = "edp"
    AREA = "area"
    LATENCY_AREA_PRODUCT = "latency_area_product"

    @staticmethod
    def from_name(name: str) -> "Objective":
        """Look up an objective by its value string (case-insensitive)."""
        key = name.strip().lower()
        for objective in Objective:
            if objective.value == key:
                return objective
        known = ", ".join(objective.value for objective in Objective)
        raise ValueError(f"unknown objective {name!r}; available: {known}")


def objective_value(
    objective: Objective,
    performance: ModelPerformance,
    area: AreaBreakdown,
) -> float:
    """Scalar value (lower is better) of ``objective`` for a design point."""
    if objective is Objective.LATENCY:
        return performance.latency
    if objective is Objective.ENERGY:
        return performance.energy
    if objective is Objective.EDP:
        return performance.edp
    if objective is Objective.AREA:
        return area.total
    if objective is Objective.LATENCY_AREA_PRODUCT:
        return performance.latency * area.total
    raise ValueError(f"unhandled objective {objective!r}")


def objective_column(
    objective: Objective,
    latency: np.ndarray,
    energy: np.ndarray,
    area_total: np.ndarray,
) -> np.ndarray:
    """:func:`objective_value` over a priced batch, one entry per design.

    ``latency``, ``energy`` and ``area_total`` are per-design float64
    arrays; each entry is computed with the same float operations as
    :func:`objective_value`, so it carries the same bits.
    """
    if objective is Objective.LATENCY:
        return latency
    if objective is Objective.ENERGY:
        return energy
    if objective is Objective.EDP:
        return latency * energy
    if objective is Objective.AREA:
        return area_total
    if objective is Objective.LATENCY_AREA_PRODUCT:
        return latency * area_total
    raise ValueError(f"unhandled objective {objective!r}")


def objective_vector(
    objectives: Iterable[Objective],
    performance: ModelPerformance,
    area: AreaBreakdown,
) -> Tuple[float, ...]:
    """Per-objective values (lower is better each) from one evaluation.

    All components derive from the *same* performance report and area
    breakdown, so a single cost-model pass prices every objective.
    """
    return tuple(
        objective_value(objective, performance, area) for objective in objectives
    )


@dataclass(frozen=True)
class ObjectiveSet:
    """An ordered set of objectives for multi-objective search.

    The first objective is the *primary* one: it drives the scalar fitness
    the single-objective machinery (best-so-far tracking, penalty grading)
    keeps using, so the scalar path stays bit-identical whether or not a
    vector of objectives is requested alongside it.
    """

    objectives: Tuple[Objective, ...]

    def __post_init__(self) -> None:
        objectives = tuple(self.objectives)
        if not objectives:
            raise ValueError("an ObjectiveSet needs at least one objective")
        if len(set(objectives)) != len(objectives):
            raise ValueError(f"duplicate objectives in {objectives}")
        object.__setattr__(self, "objectives", objectives)

    @staticmethod
    def from_names(
        names: Union[str, Iterable[str]],
    ) -> "ObjectiveSet":
        """Build a set from ``"latency,energy,area"`` or an iterable of names."""
        if isinstance(names, str):
            names = [part for part in names.split(",") if part.strip()]
        return ObjectiveSet(tuple(Objective.from_name(name) for name in names))

    @property
    def primary(self) -> Objective:
        """The first objective (drives the scalar fitness)."""
        return self.objectives[0]

    @property
    def names(self) -> Tuple[str, ...]:
        """Value strings of the objectives, in order."""
        return tuple(objective.value for objective in self.objectives)

    def values(
        self, performance: ModelPerformance, area: AreaBreakdown
    ) -> Tuple[float, ...]:
        """Objective vector of one evaluated design point."""
        return objective_vector(self.objectives, performance, area)

    def __len__(self) -> int:
        return len(self.objectives)

    def __iter__(self) -> Iterator[Objective]:
        return iter(self.objectives)
