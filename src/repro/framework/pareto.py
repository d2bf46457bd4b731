"""Multi-objective search primitives: dominance, sorting, archives, results.

Everything in this module works on *minimization* objective vectors (plain
tuples of floats, lower is better on every axis), which is the convention
of :func:`repro.framework.objective.objective_vector`.  The building blocks
are the classic NSGA-II ones — fast non-dominated sort and crowding
distance — shared between the NSGA-II optimizer
(:mod:`repro.optim.nsga2`), the tracker-side :class:`ParetoArchive` that
collects the front of *every* search, and the analysis helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.framework.evaluator import EvaluationResult
from repro.framework.objective import Objective

#: Default bound of a tracker-side Pareto archive.  Fronts of the 2-3
#: objective problems this repository searches rarely exceed a few dozen
#: distinct points; the bound exists so a pathological search cannot grow
#: the archive without limit.
DEFAULT_ARCHIVE_CAPACITY = 256


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when vector ``a`` Pareto-dominates ``b`` (minimization).

    ``a`` dominates ``b`` when it is no worse on every objective and
    strictly better on at least one.
    """
    strictly_better = False
    for value_a, value_b in zip(a, b):
        if value_a > value_b:
            return False
        if value_a < value_b:
            strictly_better = True
    return strictly_better


def _domination_matrix(values: Sequence[Sequence[float]]) -> np.ndarray:
    """Pairwise dominance: ``matrix[i, j]`` is True when ``i`` dominates ``j``.

    One broadcasted comparison instead of O(N^2) Python ``dominates``
    calls; the diagonal is False (a vector never dominates itself) and
    equal vectors never dominate each other, matching :func:`dominates`.
    """
    matrix = np.asarray(values, dtype=float)
    no_worse = (matrix[:, None, :] <= matrix[None, :, :]).all(axis=2)
    strictly_better = (matrix[:, None, :] < matrix[None, :, :]).any(axis=2)
    return no_worse & strictly_better


def non_dominated_indices(values: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated vectors among ``values``.

    Duplicates of a non-dominated vector are all kept (equal vectors never
    dominate each other); callers that want one representative per distinct
    vector should dedupe first.
    """
    if len(values) == 0:
        return []
    dominated = _domination_matrix(values).any(axis=0)
    return np.flatnonzero(~dominated).tolist()


def fast_non_dominated_sort(
    values: Sequence[Sequence[float]],
) -> List[List[int]]:
    """NSGA-II fast non-dominated sort: indices grouped into fronts.

    Front 0 is the non-dominated set; front ``i`` is non-dominated once
    fronts ``< i`` are removed.  Every index appears in exactly one front.

    Vectorized over the pairwise dominance matrix; fronts come back with
    *exactly* the index order of the classic pure-Python sort (pinned by
    the parity tests against a reference copy), because within-front
    order decides which of several duplicate vectors receives the infinite
    boundary crowding distance — and therefore selection, and therefore
    whole search trajectories.  The reference emits a member as soon as its last
    remaining dominator is processed, so the order key within a front is
    (position of that dominator in the previous front, member index).
    """
    count = len(values)
    if count == 0:
        return []
    dominance = _domination_matrix(values)
    remaining = dominance.sum(axis=0)
    fronts: List[List[int]] = []
    current = np.flatnonzero(remaining == 0)
    while current.size:
        fronts.append(current.tolist())
        remaining[current] = -1
        processed = dominance[current]
        decremented = remaining - processed.sum(axis=0)
        released = np.flatnonzero((remaining > 0) & (decremented == 0))
        remaining = np.where(remaining > 0, decremented, remaining)
        if released.size > 1:
            last_dominator = (len(current) - 1) - processed[::-1, released].argmax(
                axis=0
            )
            released = released[np.lexsort((released, last_dominator))]
        current = released
    return fronts


def crowding_distances(values: Sequence[Sequence[float]]) -> np.ndarray:
    """NSGA-II crowding distance of each vector within one front.

    Boundary points on any objective get infinite distance, so selection
    pressure always preserves the per-objective extremes of a front.
    """
    count = len(values)
    distances = np.zeros(count)
    if count == 0:
        return distances
    matrix = np.asarray(values, dtype=float)
    if count <= 2:
        distances[:] = np.inf
        return distances
    for axis in range(matrix.shape[1]):
        order = np.argsort(matrix[:, axis], kind="stable")
        column = matrix[order, axis]
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        span = column[-1] - column[0]
        if span <= 0.0:
            continue
        distances[order[1:-1]] += (column[2:] - column[:-2]) / span
    return distances


class ParetoArchive:
    """Bounded archive of non-dominated evaluation results.

    The archive keeps at most ``capacity`` mutually non-dominated results,
    deduplicated by objective vector (the first design reaching a vector is
    kept).  When an insertion would exceed the capacity the most crowded
    point is evicted, which preserves the per-objective extremes (their
    crowding distance is infinite).
    """

    def __init__(self, capacity: int = DEFAULT_ARCHIVE_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[Tuple[float, ...], EvaluationResult] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, result: EvaluationResult) -> bool:
        """Offer a result to the archive; True when it enters the front."""
        vector = result.objective_vector
        if vector is None:
            raise ValueError("archive results need an objective_vector")
        vector = tuple(vector)
        if vector in self._entries:
            return False
        for existing in self._entries:
            if dominates(existing, vector):
                return False
        self._entries = {
            existing: entry
            for existing, entry in self._entries.items()
            if not dominates(vector, existing)
        }
        self._entries[vector] = result
        if len(self._entries) > self.capacity:
            self._evict_most_crowded()
        return True

    def front(self) -> List[EvaluationResult]:
        """The archived results, sorted by objective vector."""
        return [self._entries[vector] for vector in sorted(self._entries)]

    def entries_in_order(self) -> List[EvaluationResult]:
        """The archived results in *insertion* order (checkpoint snapshots).

        Eviction tie-breaking under crowding depends on entry order, so a
        checkpoint must capture — and :meth:`restore_entries` must rebuild —
        this order exactly for resumed searches to stay bit-identical.
        """
        return list(self._entries.values())

    def restore_entries(self, results) -> None:
        """Reload a checkpoint snapshot, preserving its insertion order.

        Entries are reinserted directly (not through :meth:`add`): a
        snapshot is already deduplicated and mutually non-dominated, and
        re-filtering could reorder ties.
        """
        self._entries = {}
        for result in results:
            if result.objective_vector is None:
                raise ValueError("archive results need an objective_vector")
            self._entries[tuple(result.objective_vector)] = result

    def front_values(self) -> List[Tuple[float, ...]]:
        """The archived objective vectors, sorted."""
        return sorted(self._entries)

    def _evict_most_crowded(self) -> None:
        vectors = list(self._entries)
        distances = crowding_distances(vectors)
        victim = vectors[int(np.argmin(distances))]
        del self._entries[victim]


@dataclass(frozen=True)
class ParetoResult:
    """Outcome of one multi-objective search: the front plus bookkeeping.

    ``front`` entries are full :class:`EvaluationResult` objects (design,
    genome, objective vector), sorted by objective vector, so every design
    on the trade-off curve can be serialized or shipped downstream just
    like a single-objective best.
    """

    optimizer_name: str
    objectives: Tuple[Objective, ...]
    front: Tuple[EvaluationResult, ...]
    evaluations: int
    sampling_budget: int
    wall_time_seconds: float
    #: Batched-view usage of the underlying tracker: multi-objective search
    #: must not silently drop the batched fast path, so runs record it.
    batch_calls: int = 0
    batched_evaluations: int = 0

    @property
    def objective_names(self) -> Tuple[str, ...]:
        """Value strings of the searched objectives, in order."""
        return tuple(objective.value for objective in self.objectives)

    @property
    def front_values(self) -> Tuple[Tuple[float, ...], ...]:
        """Objective vectors of the front, in front order."""
        return tuple(tuple(entry.objective_vector) for entry in self.front)

    @property
    def found_valid(self) -> bool:
        """True when the search found at least one budget-respecting design."""
        return bool(self.front)

    @property
    def evals_per_second(self) -> float:
        """Search throughput (evaluations per wall-clock second)."""
        if self.wall_time_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.wall_time_seconds

    def is_non_dominated(self) -> bool:
        """True when no front member dominates another (sanity invariant)."""
        values = self.front_values
        return len(non_dominated_indices(values)) == len(values)

    def extreme_value(self, objective: Objective) -> float:
        """Best value of ``objective`` on the front (``inf`` when empty)."""
        try:
            axis = self.objectives.index(objective)
        except ValueError:
            raise ValueError(
                f"{objective} is not among the searched objectives {self.objectives}"
            ) from None
        if not self.front:
            return float("inf")
        return min(values[axis] for values in self.front_values)

    def extreme_point(self, objective: Objective) -> Optional[EvaluationResult]:
        """Front member with the best value of ``objective`` (None when empty)."""
        if not self.front:
            return None
        axis = self.objectives.index(objective)
        return min(self.front, key=lambda entry: entry.objective_vector[axis])

    def summary(self) -> str:
        """One-line human-readable summary."""
        names = ",".join(self.objective_names)
        if not self.front:
            return (
                f"{self.optimizer_name}[{names}]: empty front "
                f"({self.evaluations}/{self.sampling_budget} samples)"
            )
        extremes = " ".join(
            f"{objective.value}<={self.extreme_value(objective):.3e}"
            for objective in self.objectives
        )
        return (
            f"{self.optimizer_name}[{names}]: front of {len(self.front)} "
            f"({extremes}) ({self.evaluations}/{self.sampling_budget} samples, "
            f"{self.wall_time_seconds:.1f}s, {self.evals_per_second:.0f} evals/s)"
        )
