"""The analytical HW performance evaluator.

This module plays the role MAESTRO plays in the paper: given a layer and an
accelerator design point (PE hierarchy + mapping + platform bandwidths) it
derives latency, traffic, energy, utilization and minimum buffer
requirements.  The analysis is data-centric: reuse is inferred from loop
order, spatial mapping and tile sizes (see :mod:`repro.cost.reuse`), never
from simulation, so a single evaluation costs microseconds and the
optimization loop can afford tens of thousands of samples.

Two implementations of the per-layer analysis coexist:

* the **fast engine** (:mod:`repro.cost.engine`), which works on
  precomputed layer statics and tuple-indexed mappings; per-design
  pricing memoizes its layer reports in a bounded LRU keyed on the
  clipped per-layer mapping; and
* the **reference path** (``engine="reference"``), the original dict-based
  analysis kept verbatim as ground truth for the bit-identical parity tests
  and as the baseline for the throughput benchmarks.

Whole populations have one pricing path, :meth:`CostModel.evaluate_model_matrix`:
packed gene rows expanded into (design, layer) work rows, deduplicated with
one ``np.unique`` over the rows' bytes within the call and priced by the
vector engine (:mod:`repro.cost.vector_engine`); it keeps no cache across
calls.  The engine's report columns stay arrays: per-design latency, energy
and buffer requirements are column sums and maxima
(:class:`PerformanceBatch`), and a design's :class:`LazyModelPerformance`
is only built when someone indexes the batch.
:meth:`CostModel.evaluate_model_batch` is a thin adapter that flattens a
list of mappings onto it.  Single designs go through one tiered loop —
layer LRU, then the persistent on-disk tier (:mod:`repro.cost.persist`),
then the per-layer pricing function — that every cost backend shares.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping as TMapping,
    Tuple,
    Union,
)

import numpy as np

from repro.arch.energy import EnergyModel
from repro.cost.cache import CacheStats, LRUCache
from repro.cost.engine import (
    energy_coefficients,
    evaluate_layer_key,
    layer_mapping_key,
    make_report,
    report_values,
)
from repro.cost.persist import (
    PersistentLayerCache,
    cache_namespace,
    tuple_key_digest,
)
from repro.cost.vector_engine import (
    GENES_PER_LEVEL,
    VectorEngine,
    columns_to_values,
    values_to_columns,
)
from repro.cost.performance import LayerPerformance, ModelPerformance
from repro.cost.reuse import (
    LevelAnalysis,
    analyze_levels,
    operand_fetches,
    spatial_distinct_factor,
)
from repro.mapping.mapping import Mapping, mapping_from_cache_key
from repro.mapping.tiles import buffer_requirements, operand_footprint
from repro.workloads.dims import DIMS
from repro.workloads.layer import Layer
from repro.workloads.model import Model
from repro.workloads.statics import LayerStatics, layer_statics, model_statics

#: Accepted ways of supplying mappings to :meth:`CostModel.evaluate_model`.
MappingProvider = Union[Mapping, Callable[[Layer], Mapping], TMapping[str, Mapping]]

#: Default bound of the per-design loop's layer-report cache.  Each entry
#: is one flat tuple of scalar report fields (a few hundred bytes,
#: invisible to the cyclic GC), so the default costs a couple of MB.
DEFAULT_LAYER_CACHE_SIZE = 16384


#: Kept as an alias: the canonical implementation moved next to the engine
#: so the vector engine can share it without an import cycle.
_report_values = report_values


class LazyModelPerformance(ModelPerformance):
    """A model report whose per-layer objects materialize on first access.

    The batch path scores thousands of designs per generation, but almost
    none of them are ever inspected layer by layer — only the handful that
    win a search get serialized or summarised.  This subclass stores the
    design's rows of the vector engine's float and integer report columns
    plus the four aggregates the fitness path reads (latency, energy,
    buffer requirements, computed in the exact accumulation order of the
    eager properties) and stitches the :class:`LayerPerformance` tuple on
    first access.  Every other inherited property goes through
    ``self.layers`` and therefore works unchanged.
    """

    @staticmethod
    def build(
        model_name: str,
        names: tuple,
        counts: tuple,
        floats: np.ndarray,
        ints: np.ndarray,
        latency: float,
        energy: float,
        l1_requirement_bytes: int,
        l2_requirement_bytes: int,
    ) -> "LazyModelPerformance":
        performance = object.__new__(LazyModelPerformance)
        performance.__dict__.update(
            model_name=model_name,
            _names=names,
            _counts=counts,
            _floats=floats,
            _ints=ints,
            _latency=latency,
            _energy=energy,
            _l1_requirement=l1_requirement_bytes,
            _l2_requirement=l2_requirement_bytes,
        )
        return performance

    @property
    def layers(self) -> tuple:
        cached = self.__dict__.get("_layers")
        if cached is None:
            cached = tuple(
                make_report(name, *entry, count)
                for name, entry, count in zip(
                    self._names,
                    columns_to_values(self._floats, self._ints),
                    self._counts,
                )
            )
            self.__dict__["_layers"] = cached
        return cached

    @property
    def latency(self) -> float:
        return self._latency

    @property
    def energy(self) -> float:
        return self._energy

    @property
    def l1_requirement_bytes(self) -> int:
        return self._l1_requirement

    @property
    def l2_requirement_bytes(self) -> int:
        return self._l2_requirement


class PerformanceBatch(Sequence):
    """One model priced under many designs, kept as report columns.

    ``floats`` / ``ints`` are the vector engine's report columns over the
    call's distinct work rows, and ``rows[d, l]`` is the work row of design
    ``d``'s ``l``-th unique layer.  The per-design aggregates the scoring
    path reads are arrays: :attr:`latency` and :attr:`energy` accumulate
    ``value * count`` layer by layer from 0.0 (the order of the eager
    :class:`ModelPerformance` sums, so the bits are identical), and
    :attr:`l1_requirement_bytes` / :attr:`l2_requirement_bytes` are row
    maxima.  ``batch[d]`` builds design ``d``'s
    :class:`LazyModelPerformance`, so the batch reads like the list of
    reports it replaces.
    """

    def __init__(
        self,
        model_name: str,
        names: tuple,
        counts: tuple,
        floats: np.ndarray,
        ints: np.ndarray,
        rows: np.ndarray,
    ):
        self.model_name = model_name
        self.names = names
        self.counts = counts
        self.floats = floats
        self.ints = ints
        self.rows = rows
        latency = np.zeros(len(rows))
        energy = np.zeros(len(rows))
        layer_latency = floats[:, 0][rows]
        layer_energy = floats[:, 7][rows]
        for layer, count in enumerate(counts):
            latency = latency + layer_latency[:, layer] * count
            energy = energy + layer_energy[:, layer] * count
        self.latency = latency
        self.energy = energy
        self.l1_requirement_bytes = ints[:, 3][rows].max(axis=1)
        self.l2_requirement_bytes = ints[:, 4][rows].max(axis=1)
        self._scalars = list(
            zip(
                latency.tolist(),
                energy.tolist(),
                self.l1_requirement_bytes.tolist(),
                self.l2_requirement_bytes.tolist(),
            )
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> LazyModelPerformance:
        rows = self.rows[index]
        return LazyModelPerformance.build(
            self.model_name,
            self.names,
            self.counts,
            self.floats[rows],
            self.ints[rows],
            *self._scalars[index],
        )


def _model_dims_matrix(model: Model) -> np.ndarray:
    """Unique-layer dimension sizes as an ``(L, 6)`` int64 matrix.

    Memoized on the model instance (like :func:`model_statics`); the batch
    path clips a mapping's tiles against every layer in two ``np.minimum``
    calls instead of per-layer ``map(min, ...)`` loops.
    """
    matrix = model.__dict__.get("_dims_matrix")
    if matrix is None:
        matrix = np.array(
            [statics.dims for _, statics in model_statics(model)],
            dtype=np.int64,
        )
        object.__setattr__(model, "_dims_matrix", matrix)
    return matrix


@dataclass(frozen=True)
class CostModel:
    """MAESTRO-style analytical evaluator.

    Parameters
    ----------
    energy_model:
        Per-MAC and per-byte energy coefficients.
    bytes_per_element:
        Tensor element width in bytes.
    cache_size:
        Bound of the per-design loop's layer-report cache (0 disables
        caching).  The gene-matrix path never consults it.
    engine:
        ``"fast"`` (default) uses the tuple-based engine and the cache;
        ``"reference"`` runs the original dict-based analysis uncached.

    Other backends subclass this model and replace only
    :attr:`backend_name` and :attr:`_price_layer`; the caches and the
    tiered per-design loop are shared.
    """

    energy_model: EnergyModel = EnergyModel()
    bytes_per_element: int = 1
    cache_size: int = DEFAULT_LAYER_CACHE_SIZE
    engine: str = "fast"

    #: Backend name scoping this model's persistent-tier digests.
    backend_name: ClassVar[str] = "analytic"
    #: Per-layer pricing function of the tiered per-design loop.
    _price_layer = staticmethod(evaluate_layer_key)

    def __post_init__(self) -> None:
        if self.engine not in ("fast", "reference"):
            raise ValueError(
                f"engine must be 'fast' or 'reference', got {self.engine!r}"
            )
        object.__setattr__(self, "_cache", LRUCache(self.cache_size))
        object.__setattr__(
            self, "_energy_coefficients", energy_coefficients(self.energy_model)
        )
        # Persistent-tier key namespace: scopes every L2 digest to this
        # backend + technology configuration so cross-backend /
        # cross-element-width rows can never alias on disk.
        object.__setattr__(
            self,
            "_l2_namespace",
            cache_namespace(
                self.backend_name,
                self.bytes_per_element,
                self._energy_coefficients,
            ),
        )

    # -- cache introspection -----------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the per-layer report cache."""
        return self._cache.stats()

    def cache_clear(self) -> None:
        """Drop all memoized layer reports and their counters."""
        self._cache.clear()

    @property
    def layer_cache(self) -> LRUCache:
        """The layer-report cache of the per-design loop."""
        return self._cache

    def attach_persistent_cache(self, tier: PersistentLayerCache) -> None:
        """Back the layer-report LRU with a persistent L2 tier.

        Per-design lookups (:meth:`evaluate_model`, :meth:`evaluate_layer`)
        that miss the in-memory cache then probe the on-disk store before
        falling back to the engine, and freshly priced rows are written
        back — only while the cache is enabled, so ``use_cache=False``
        keeps the tier inactive too.  The gene-matrix path never touches
        the tier.
        """
        self._cache.tier = tier

    # -- vector engine -----------------------------------------------------

    def vector_engine(self) -> VectorEngine:
        """The lazily created population-axis engine of this cost model."""
        engine = self.__dict__.get("_vector_engine")
        if engine is None:
            engine = VectorEngine(self.bytes_per_element, self._energy_coefficients)
            object.__setattr__(self, "_vector_engine", engine)
        return engine

    @property
    def vector_stats(self) -> Dict[str, int]:
        """Vectorized / scalar-fallback / persistent-tier counters.

        ``rows_vectorized`` and ``rows_fallback`` count engine rows by how
        they were priced, with ``rows_fallback`` further broken down by
        reason in the ``fallback_*`` counters (``fallback_depth``,
        ``fallback_statics_overflow``, ``fallback_intermediate_overflow``,
        ``fallback_small_batch``, ``fallback_gene_overflow``).  The
        ``l2_*`` counters report the persistent tier when one is attached
        (an L2 hit also counts as an L1 miss, so the L1 hit/miss counters
        are identical cold or warm and the tier's effect is purely who
        supplies the miss).  A backend without a vector path reports zero
        rows and fallbacks.
        """
        tier = self._cache.tier
        if tier is None:
            stats = {"l2_hits": 0, "l2_misses": 0, "l2_writes": 0}
        else:
            stats = tier.counters()
        engine = self.__dict__.get("_vector_engine")
        if engine is None:
            stats.update(rows_vectorized=0, rows_fallback=0)
            stats.update(
                fallback_depth=0,
                fallback_statics_overflow=0,
                fallback_intermediate_overflow=0,
                fallback_small_batch=0,
                fallback_gene_overflow=0,
            )
        else:
            stats.update(
                rows_vectorized=engine.rows_vectorized,
                rows_fallback=engine.rows_fallback,
            )
            stats.update(engine.fallback_counters)
        return stats

    # -- single layer ------------------------------------------------------

    def evaluate_layer(
        self,
        layer: Layer,
        mapping: Mapping,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> LayerPerformance:
        """Evaluate one layer under one mapping.

        The mapping's tile sizes are interpreted after clipping to the
        layer's dimensions, so any syntactically valid mapping can be
        evaluated (the encoding never produces hard failures, only bad
        scores).
        """
        if self.engine == "reference":
            return self.evaluate_layer_reference(
                layer, mapping, noc_bandwidth, dram_bandwidth
            )
        (report,) = self._layer_reports(
            ((layer, layer_statics(layer)),),
            mapping,
            noc_bandwidth,
            dram_bandwidth,
        )
        return report

    def evaluate_layer_reference(
        self,
        layer: Layer,
        mapping: Mapping,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> LayerPerformance:
        """The original (uncached, dict-based) per-layer analysis.

        Ground truth for the fast engine: the parity tests assert that
        :meth:`evaluate_layer` reproduces this bit for bit.
        """
        if noc_bandwidth <= 0 or dram_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        bpe = self.bytes_per_element
        analyses = analyze_levels(layer, mapping)
        relevance = layer.relevance()

        inner = analyses[-1]
        inner_volume = 1
        for dim in DIMS:
            inner_volume *= inner.tile[dim]

        total_steps = 1
        for analysis in analyses:
            total_steps *= analysis.total_trips
        compute_cycles = float(inner_volume * total_steps)

        dram_bytes = self._dram_traffic(layer, analyses[0], relevance)
        l2_to_l1_bytes = self._on_chip_traffic(layer, analyses, relevance)

        noc_cycles = l2_to_l1_bytes / noc_bandwidth
        dram_cycles = dram_bytes / dram_bandwidth
        startup = self._startup_cycles(
            layer, analyses, noc_bandwidth, dram_bandwidth
        )
        latency = max(compute_cycles, noc_cycles, dram_cycles) + startup

        macs = layer.macs
        l1_access_bytes = 2.0 * macs * bpe + l2_to_l1_bytes
        l2_access_bytes = l2_to_l1_bytes + dram_bytes
        energy = self.energy_model.compute_energy(macs) + self.energy_model.movement_energy(
            l1_bytes=l1_access_bytes,
            l2_bytes=l2_access_bytes,
            dram_bytes=dram_bytes,
        )

        active_pes = 1
        for analysis in analyses:
            active_pes *= analysis.active

        requirement = buffer_requirements(layer, mapping, bpe)
        return LayerPerformance(
            layer_name=layer.name,
            latency=latency,
            compute_cycles=compute_cycles,
            noc_cycles=noc_cycles,
            dram_cycles=dram_cycles,
            macs=macs,
            l2_to_l1_bytes=l2_to_l1_bytes,
            dram_bytes=dram_bytes,
            l1_access_bytes=l1_access_bytes,
            energy=energy,
            active_pes=active_pes,
            num_pes=mapping.num_pes,
            l1_requirement_bytes=requirement.l1_bytes_per_pe,
            l2_requirement_bytes=requirement.l2_bytes,
            count=layer.count,
        )

    # -- whole model -------------------------------------------------------

    def evaluate_model(
        self,
        model: Model,
        mappings: MappingProvider,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> ModelPerformance:
        """Evaluate every unique layer of ``model`` and aggregate.

        ``mappings`` may be a single :class:`Mapping` (applied to every
        layer, clipped to each layer's dimensions), a callable
        ``layer -> Mapping``, or a dict keyed by layer name.
        """
        if self.engine == "reference":
            reports: List[LayerPerformance] = []
            for layer in model.unique_layers():
                mapping = _resolve_mapping(mappings, layer, clip=True)
                reports.append(
                    self.evaluate_layer(layer, mapping, noc_bandwidth, dram_bandwidth)
                )
            return ModelPerformance(model_name=model.name, layers=tuple(reports))

        reports = self._layer_reports(
            model_statics(model), mappings, noc_bandwidth, dram_bandwidth
        )
        return ModelPerformance(model_name=model.name, layers=tuple(reports))

    def _layer_reports(
        self,
        pairs: Iterable[Tuple[Layer, LayerStatics]],
        mappings: MappingProvider,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> List[LayerPerformance]:
        """The tiered per-design loop: layer LRU, persistent tier, pricing.

        One cache/engine round per ``(layer, statics)`` pair, with
        per-evaluation constants hoisted and the cache dict operated on
        directly (see LRUCache.data) to keep the per-layer overhead at a
        couple of dict operations.  The cache stores plain field tuples
        rather than report objects: tuples of scalars are untracked by the
        cyclic GC, so thousands of cached entries do not slow collections
        down; reports are rebuilt on hits via the engine's bulk
        constructor.  Keys hold the statics object itself (canonical per
        layer shape, identity-hashed), which keeps them cheap while
        distinguishing layers whose shapes clip a mapping identically.
        Misses are priced by :attr:`_price_layer`.
        """
        if noc_bandwidth <= 0 or dram_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        cache = self._cache
        cache_on = cache.maxsize > 0
        tier = cache.tier if cache_on else None
        namespace = self._l2_namespace
        data = cache.data
        maxsize = cache.maxsize
        hits = misses = 0
        price = self._price_layer
        bpe = self.bytes_per_element
        energy = self._energy_coefficients
        shared = mappings if isinstance(mappings, Mapping) else None
        reports = []
        for layer, statics in pairs:
            mapping = shared if shared is not None else _resolve_mapping(mappings, layer)
            key = layer_mapping_key(statics, mapping)
            entry = None
            digest = None
            if cache_on:
                cache_key = (statics, key, noc_bandwidth, dram_bandwidth)
                entry = data.get(cache_key)
                if entry is not None:
                    hits += 1
                else:
                    # An L2 hit below still counts as an L1 miss: the L1
                    # counters are identical cold or warm, the tier only
                    # changes who supplies the missing row.
                    misses += 1
                    if tier is not None:
                        digest = tuple_key_digest(
                            namespace, statics, key,
                            noc_bandwidth, dram_bandwidth,
                        )
                        entry = tier.get(digest)
                        if entry is not None:
                            data[cache_key] = entry
                            if len(data) > maxsize:
                                data.popitem(last=False)
            if entry is None:
                report = price(
                    statics,
                    key,
                    noc_bandwidth,
                    dram_bandwidth,
                    bpe,
                    energy,
                    layer.name,
                    layer.count,
                )
                if cache_on:
                    values = _report_values(report)
                    data[cache_key] = values
                    if len(data) > maxsize:
                        data.popitem(last=False)
                    if digest is not None:
                        tier.put(digest, values)
            else:
                report = make_report(layer.name, *entry, layer.count)
            reports.append(report)
        cache.hits += hits
        cache.misses += misses
        if tier is not None:
            tier.flush()
        return reports

    # -- whole population --------------------------------------------------

    def evaluate_model_batch(
        self,
        model: Model,
        mappings: Sequence[Union[Mapping, tuple]],
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> List[ModelPerformance]:
        """Evaluate one model under many mappings in a single array pass.

        Each entry of ``mappings`` is a :class:`Mapping` or its raw
        :meth:`Mapping.cache_key` parts.  A thin adapter over the
        population path: a uniform-depth batch whose genes fit int64 is
        flattened into a gene matrix and priced by
        :meth:`evaluate_model_matrix` (in-call row dedup only; the layer
        LRU and the persistent tier serve per-design pricing).  Mixed-depth
        batches and genes beyond int64 are priced row by (design, layer)
        row through :meth:`VectorEngine.evaluate_rows`,
        which groups rows by depth and keeps the scalar fallbacks exact.
        Reports are identical to calling :meth:`evaluate_model` once per
        mapping either way.
        """
        if self.engine == "reference":
            return [
                self.evaluate_model(
                    model,
                    mapping
                    if isinstance(mapping, Mapping)
                    else mapping_from_cache_key(mapping),
                    noc_bandwidth,
                    dram_bandwidth,
                )
                for mapping in mappings
            ]
        if noc_bandwidth <= 0 or dram_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        keys = [
            mapping.cache_key() if isinstance(mapping, Mapping) else mapping
            for mapping in mappings
        ]
        if not keys:
            return []
        if len({len(key) for key in keys}) == 1:
            try:
                matrix = np.array(
                    [
                        [
                            gene
                            for (spatial, parallel, order), tiles in key
                            for gene in (spatial, parallel, *order, *tiles)
                        ]
                        for key in keys
                    ],
                    dtype=np.int64,
                )
            except OverflowError:
                pass  # beyond int64: the row path's scalar fallback is exact
            else:
                return list(
                    self.evaluate_model_matrix(
                        model, matrix, noc_bandwidth, dram_bandwidth
                    )
                )
        pairs = model_statics(model)
        engine = self.vector_engine()
        rows = []
        for key in keys:
            mapping = mapping_from_cache_key(key)
            rows.extend(
                (statics, layer_mapping_key(statics, mapping))
                for _, statics in pairs
            )
        floats, ints = values_to_columns(
            engine.evaluate_rows(rows, noc_bandwidth, dram_bandwidth)
        )
        return list(
            PerformanceBatch(
                model.name,
                tuple(layer.name for layer, _ in pairs),
                tuple(layer.count for layer, _ in pairs),
                floats,
                ints,
                np.arange(len(floats)).reshape(len(keys), len(pairs)),
            )
        )

    def __getstate__(self) -> dict:
        # Worker processes re-derive engine state lazily.
        state = dict(self.__dict__)
        state.pop("_vector_engine", None)
        return state

    # -- gene-matrix population path ---------------------------------------

    def evaluate_model_matrix(
        self,
        model: Model,
        design_matrix: np.ndarray,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> PerformanceBatch:
        """Evaluate one model under many *repaired gene rows* in one pass.

        ``design_matrix`` is a ``(designs, 14 * num_levels)`` int64
        :class:`~repro.encoding.genome_matrix.GenomeMatrix` slice of any
        hierarchy depth whose rows are already repaired (spatial >= 1,
        tiles >= 1, orders are permutations).  The per-(design, layer) work
        rows are assembled with array gathers — vectorized tile clipping
        against the model's dimension matrix, no per-member tuple
        construction — and deduplicated with one ``np.unique`` over their
        raw bytes within the call; no cache is read or written.  The
        returned :class:`PerformanceBatch` holds per-design aggregate
        arrays and builds each design's report on indexing; reports are
        bit-identical to :meth:`evaluate_model` on each row's mapping.
        This is the one population pricing path
        (:meth:`evaluate_model_batch` adapts mapping lists onto it).
        """
        if self.engine == "reference":
            raise ValueError(
                "the gene-matrix path requires the fast engine; "
                "use evaluate_model_batch with engine='reference'"
            )
        if noc_bandwidth <= 0 or dram_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        pairs = model_statics(model)
        dims_matrix = _model_dims_matrix(model)
        engine = self.vector_engine()
        layer_slots = [engine.statics_slot(statics) for _, statics in pairs]
        num_layers = len(pairs)
        num_designs = len(design_matrix)

        # Row layout: the layer's statics slot, then 14 genes per level
        # with the tiles clipped against the layer's dimensions.
        num_levels = design_matrix.shape[1] // GENES_PER_LEVEL
        width = 1 + GENES_PER_LEVEL * num_levels
        work = np.empty((num_designs * num_layers, width), dtype=np.int64)
        work[:, 0] = np.tile(layer_slots, num_designs)
        parent = dims_matrix[None, :, :]
        for level in range(num_levels):
            src = level * GENES_PER_LEVEL
            dst = 1 + level * GENES_PER_LEVEL
            work[:, dst:dst + 8] = np.repeat(
                design_matrix[:, src:src + 8], num_layers, axis=0
            )
            clipped = np.minimum(
                design_matrix[:, None, src + 8:src + 14], parent
            )
            work[:, dst + 8:dst + 14] = clipped.reshape(-1, 6)
            parent = clipped

        # Rows are deduplicated by raw bytes within the call: the statics
        # slot in column 0 keeps same-gene rows of different layer shapes
        # apart, so equal bytes mean equal reports.  Composite tuple keys
        # are never built on this path (the engine's scalar fallback builds
        # them on demand).
        _, first, inverse = np.unique(
            work.view(np.dtype((np.void, width * 8))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        unique = work[first]
        statics_of_slot = {
            slot: statics for slot, (_, statics) in zip(layer_slots, pairs)
        }
        floats, ints = engine.evaluate_packed(
            _WorkRowView(unique, statics_of_slot),
            unique[:, 1:],
            unique[:, 0],
            noc_bandwidth,
            dram_bandwidth,
        )
        return PerformanceBatch(
            model.name,
            tuple(layer.name for layer, _ in pairs),
            tuple(layer.count for layer, _ in pairs),
            floats,
            ints,
            inverse.reshape(num_designs, num_layers),
        )

    # -- internals ---------------------------------------------------------

    def _dram_traffic(
        self,
        layer: Layer,
        outer: LevelAnalysis,
        relevance: Dict[str, tuple],
    ) -> float:
        """Off-chip traffic in bytes: reads of W and I, read/write of O."""
        bpe = self.bytes_per_element
        macro_footprint = operand_footprint(layer, outer.macro)
        traffic = 0.0
        for operand in ("W", "I"):
            fetches = operand_fetches(outer, relevance[operand])
            traffic += fetches * macro_footprint[operand] * bpe

        out_fetches = operand_fetches(outer, relevance["O"])
        out_elements = out_fetches * macro_footprint["O"]
        final_output = layer.tensor_sizes()["O"]
        # Final results are written once; any surplus represents partial-sum
        # tiles spilled to DRAM, each costing a write and a later read.
        spills = max(0.0, float(out_elements - final_output))
        traffic += (final_output + 2.0 * spills) * bpe
        return traffic

    def _on_chip_traffic(
        self,
        layer: Layer,
        analyses: List[LevelAnalysis],
        relevance: Dict[str, tuple],
    ) -> float:
        """Traffic delivered over the NoC from the shared buffer downwards."""
        if len(analyses) < 2:
            return 0.0
        bpe = self.bytes_per_element
        traffic = 0.0
        steps_above = analyses[0].total_trips
        for level_index in range(1, len(analyses)):
            analysis = analyses[level_index]
            tile_footprint = operand_footprint(layer, analysis.tile)
            for operand in ("W", "I", "O"):
                fetches = operand_fetches(analysis, relevance[operand])
                distinct = spatial_distinct_factor(
                    analyses,
                    level_index,
                    relevance[operand],
                    is_output=operand == "O",
                )
                traffic += (
                    steps_above * fetches * tile_footprint[operand] * distinct * bpe
                )
            steps_above *= analysis.total_trips
        return traffic

    def _startup_cycles(
        self,
        layer: Layer,
        analyses: List[LevelAnalysis],
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> float:
        """Pipeline fill: first L2 tile from DRAM plus first L1 tile over the NoC."""
        bpe = self.bytes_per_element
        outer_footprint = operand_footprint(layer, analyses[0].macro)
        fill_l2 = (outer_footprint["W"] + outer_footprint["I"]) * bpe / dram_bandwidth
        fill_l1 = 0.0
        if len(analyses) > 1:
            inner_footprint = operand_footprint(layer, analyses[-1].tile)
            fill_l1 = (
                (inner_footprint["W"] + inner_footprint["I"]) * bpe / noc_bandwidth
            )
        return fill_l2 + fill_l1


class _WorkRowView:
    """Lazy ``(statics, key)`` view of packed work rows.

    :meth:`VectorEngine.evaluate_packed` consults its ``rows`` argument
    only for scalar-fallback rows (non-vectorizable statics, exactness
    flags), so composite tuple keys are built on demand instead of eagerly
    for the whole batch.
    """

    __slots__ = ("_work", "_statics_of_slot")

    def __init__(self, work, statics_of_slot):
        self._work = work
        self._statics_of_slot = statics_of_slot

    def __len__(self) -> int:
        return len(self._work)

    def __getitem__(self, index: int):
        genes = self._work[index].tolist()
        # Row layout: statics slot, then 14 genes per level.
        key = tuple(
            (
                (genes[base], genes[base + 1], tuple(genes[base + 2:base + 8])),
                tuple(genes[base + 8:base + 14]),
            )
            for base in range(1, len(genes), GENES_PER_LEVEL)
        )
        return self._statics_of_slot[genes[0]], key


def _resolve_mapping(
    mappings: MappingProvider, layer: Layer, clip: bool = False
) -> Mapping:
    """Turn any accepted mapping provider into a concrete per-layer mapping.

    The fast engine clips tile sizes itself while building the memoization
    key, so eager clipping (``clip=True``) is only performed on the
    reference path, where it reproduces the original evaluation flow.
    """
    if isinstance(mappings, Mapping):
        return mappings.clipped_to_layer(layer) if clip else mappings
    if callable(mappings):
        mapping = mappings(layer)
        return mapping.clipped_to_layer(layer) if clip else mapping
    try:
        mapping = mappings[layer.name]
    except KeyError as error:
        raise KeyError(f"no mapping provided for layer {layer.name!r}") from error
    return mapping.clipped_to_layer(layer) if clip else mapping
