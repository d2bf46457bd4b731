"""Common interface of all optimization algorithms."""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.encoding.genome import Genome
from repro.framework.search import SearchTracker


def checkpoint_generation(
    tracker: SearchTracker, state: Callable[[], Dict[str, Any]]
) -> None:
    """Announce a generation boundary to the tracker, if it supports them.

    Checkpointable loops call this as the first statement of every
    ``while not tracker.exhausted`` iteration, passing a zero-argument
    callable that captures the loop's JSON-able state.  Tracker stubs
    without the hook (plain fitness functions in unit tests) are a no-op.
    """
    hook = getattr(tracker, "checkpoint_generation", None)
    if hook is not None:
        hook(state)


def resume_state(
    tracker: SearchTracker, kind: str
) -> Optional[Dict[str, Any]]:
    """The tracker's restored loop state for this optimizer, or None.

    Consumes ``tracker.resume_state`` (set by a checkpoint restore) after
    validating that the stored ``kind`` matches the running loop — a
    checkpoint taken under one optimizer must never silently seed another.
    """
    state = getattr(tracker, "resume_state", None)
    if state is None:
        return None
    tracker.resume_state = None
    found = state.get("kind")
    if found != kind:
        raise ValueError(
            f"checkpoint holds {found!r} loop state, this loop is {kind!r}"
        )
    return state


def matrix_view(tracker: SearchTracker, name: str) -> Callable:
    """The tracker's gene-matrix evaluation view ``name``, or a TypeError.

    The GA loops (DiGamma, stdGA, NSGA-II) breed a packed gene matrix and
    score it through ``evaluate_matrix`` / ``evaluate_matrix_results``;
    a tracker without the view cannot drive them, and says so by name.
    """
    view = getattr(tracker, name, None)
    if view is None:
        raise TypeError(
            f"this optimizer requires a tracker with the gene-matrix view "
            f"SearchTracker.{name}; {type(tracker).__name__} has none"
        )
    return view


def evaluate_genomes(tracker: SearchTracker, genomes: Sequence[Genome]) -> List[float]:
    """Score a population through the tracker's batched view.

    Falls back to one-by-one evaluation for tracker stubs without a batch
    API.  Either way the returned list is truncated when the sampling
    budget runs out mid-population; callers should stop in that case.
    """
    batch = getattr(tracker, "evaluate_batch", None)
    if batch is not None:
        return batch(genomes)
    fitnesses: List[float] = []
    for genome in genomes:
        if tracker.exhausted:
            break
        fitnesses.append(tracker.evaluate_genome(genome))
    return fitnesses


def evaluate_vectors(
    tracker: SearchTracker, vectors: Sequence[np.ndarray]
) -> List[float]:
    """Vector-view counterpart of :func:`evaluate_genomes`."""
    batch = getattr(tracker, "evaluate_vector_batch", None)
    if batch is not None:
        return batch(vectors)
    fitnesses: List[float] = []
    for vector in vectors:
        if tracker.exhausted:
            break
        fitnesses.append(tracker.evaluate_vector(vector))
    return fitnesses


class Optimizer(abc.ABC):
    """Base class for optimization algorithms.

    An optimizer spends the tracker's sampling budget by calling
    ``tracker.evaluate_genome`` or ``tracker.evaluate_vector``; the tracker
    records the best design point, so ``run`` does not return anything.
    Implementations should stop when ``tracker.exhausted`` becomes true;
    evaluating past the budget raises
    :class:`~repro.framework.search.BudgetExhausted`, which the framework
    treats as normal termination.
    """

    #: Display name used in experiment tables.
    name: str = "optimizer"

    #: True when the optimizer's loop participates in the checkpoint
    #: protocol (calls :func:`checkpoint_generation` and can consume
    #: :func:`resume_state`).  The framework only creates checkpoint
    #: stores/sessions for optimizers that declare support; others run
    #: fresh on every attempt and observe interrupts at job boundaries.
    supports_checkpoint: bool = False

    @abc.abstractmethod
    def run(self, tracker: SearchTracker, rng: np.random.Generator) -> None:
        """Search the design space until the sampling budget is exhausted."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
