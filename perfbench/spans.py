"""In-memory span recorder and the wrappers that feed it.

A traced benchmark pass wraps public entry points of the ``repro``
modules (see :mod:`perfbench.layers`) with thin functions that record one
span per call: entry-point name, start and end (``perf_counter_ns``), the
index of the enclosing span and the id of the pass.  Nothing under ``src/``
is edited; the wrappers are installed on the classes and modules at run
time and removed again afterwards.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of every span of a pass sum exactly to the
duration of the pass's root span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name of the root span a benchmark pass opens around its timed phase.
ROOT_LAYER = "pass"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``owner.attribute`` recorded under ``layer``.

    ``collect`` names a kind of object to remember (the bound ``self`` of
    each call) so that counters can be read from it after the pass;
    ``record_result`` counts truthy return values (for acceptance ratios).
    """

    module: str
    attribute: str
    layer: str
    owner: Optional[str] = None
    collect: Optional[str] = None
    record_result: bool = False

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attribute}" if self.owner else self.attribute


class Tracer:
    """Records spans of one process; reset between benchmark passes."""

    def __init__(self) -> None:
        self.entry_names: List[str] = []
        self.entry_layers: List[str] = []
        self._entry_ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.reset(run_id=0)

    def reset(self, run_id: int) -> None:
        """Drop recorded spans and collected objects; start run ``run_id``."""
        #: ``[entry id, start ns, end ns, parent index, run id]`` per span.
        self.spans: List[List[int]] = []
        self._stack: List[int] = []
        self.run_id = run_id
        self.objects: Dict[str, Dict[int, object]] = {}
        self.truthy_results: Counter = Counter()
        #: Wrappers record only between :meth:`begin` and :meth:`end`.
        self.active = False

    def begin(self) -> None:
        """Open the run's root span; wrappers record until :meth:`end`."""
        self.active = True
        self._root = self.enter(self.entry_id(ROOT_LAYER, ROOT_LAYER))

    def end(self) -> None:
        """Close the run's root span; later calls are not recorded."""
        self.exit(self._root)
        self.active = False

    # -- recording ---------------------------------------------------------

    def entry_id(self, name: str, layer: str) -> int:
        known = self._entry_ids.get(name)
        if known is None:
            known = len(self.entry_names)
            self._entry_ids[name] = known
            self.entry_names.append(name)
            self.entry_layers.append(layer)
        return known

    def enter(self, entry: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [entry, 0, 0, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter_ns()
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    def remember(self, kind: str, obj: object) -> None:
        self.objects.setdefault(kind, {})[id(obj)] = obj

    # -- wrapping ----------------------------------------------------------

    def install(self, entries: List[EntryPoint]) -> None:
        """Wrap every entry point; modules that imported a wrapped function
        by name get the wrapper too."""
        for entry in entries:
            module = sys.modules[entry.module]
            owner = getattr(module, entry.owner) if entry.owner else module
            original = owner.__dict__[entry.attribute]
            wrapper = self._wrapper(entry, original)
            self._patch(owner, entry.attribute, original, wrapper)
            if entry.owner is None:
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(entry.attribute) is original
                    ):
                        self._patch(other, entry.attribute, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _wrapper(self, entry: EntryPoint, original: Callable) -> Callable:
        entry_index = self.entry_id(entry.name, entry.layer)
        collect = entry.collect
        record_result = entry.record_result
        name = entry.name
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if collect is not None:
                tracer.remember(collect, args[0])
            index = tracer.enter(entry_index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(index)
            if record_result and result:
                tracer.truthy_results[name] += 1
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def calls(self, name: str) -> int:
        entry = self._entry_ids.get(name)
        if entry is None:
            return 0
        return sum(1 for span in self.spans if span[0] == entry)

    def self_times_ns(self) -> Dict[str, int]:
        """Self time per layer over every span of the current run."""
        spans = self.spans
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        children = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        totals: Counter = Counter()
        layers = self.entry_layers
        for span, covered in zip(spans, children):
            totals[layers[span[0]]] += span[2] - span[1] - covered
        return dict(totals)

    def root_wall_ns(self) -> int:
        """Duration of the run's root span."""
        root = self.spans[self._root]
        return root[2] - root[1]
