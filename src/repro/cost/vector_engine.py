"""Population-axis vectorized layer evaluation (NumPy structure-of-arrays).

The scalar fast engine (:mod:`repro.cost.engine`) evaluates one
(layer, mapping) pair per call; a GA generation asks for thousands of them.
This module evaluates a whole batch of such pairs — one *row* per distinct
(population member, unique layer) work row of the call — in a single NumPy
pass:

* a packer flattens each row's layer mapping key (spatial sizes, parallel
  dims, loop orders, clipped tiles) into one ``int64`` matrix — one
  :data:`GENES_PER_LEVEL`-column block per hierarchy level — and resolves
  the per-layer invariants through a small statics table, and
* the reuse/latency/energy arithmetic of the scalar engine
  (:func:`repro.cost.engine._evaluate_two_level` and its depth-general
  sibling ``_evaluate_general``) is re-expressed as level-stacked
  elementwise array operations **in the same operation order**.

The gene-matrix path (:meth:`VectorEngine.evaluate_packed`) hands back the
report fields as float and integer columns, which the cost model aggregates
without building per-row tuples; :meth:`VectorEngine.evaluate_rows` stitches
the columns into :func:`~repro.cost.engine.report_values` tuples for the
callers that read them row by row.

Hierarchy depth is a parameter, not an assumption: 1-level, 2-level and
3+-level rows all ride the array pipeline (mixed-depth batches are grouped
by depth first).

Bit-identical results are the contract (enforced by
``tests/cost/test_vector_engine.py``).  The scalar engine does its integer
arithmetic exactly (Python ints) and rounds once when a quantity enters the
float domain; IEEE-754 float64 multiplication/addition of *exactly
representable* operands is also correctly rounded, so the array pipeline
produces the same bits as long as every integer-chain intermediate stays
below 2**53.  Rows where any monitored intermediate reaches that limit —
and rows with oversized layer statics — are flagged and routed through the
scalar engine instead (the *scalar fallback*; see the README's
engine-selection notes, and the per-reason ``fallback_*`` counters this
engine keeps).  On the paper's workloads the flags never fire: traffic and
trip-count intermediates top out around 1e13, two orders of magnitude below
the limit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cost.engine import (
    LayerMappingKey,
    evaluate_layer_key,
    report_values,
)
from repro.workloads.statics import REDUCTION_INDEXES, LayerStatics

#: One row of work: a layer's statics plus one clipped mapping key.
Row = Tuple[LayerStatics, LayerMappingKey]

#: Columns per hierarchy level in the packed gene matrix: spatial size,
#: parallel dim index, six order positions, six tile sizes.
GENES_PER_LEVEL = 14

#: Positions of the float columns (latency, compute, noc, dram, l2_to_l1,
#: dram_bytes, l1_access, energy) and of the integer columns (macs,
#: active_pes, num_pes, l1_requirement, l2_requirement) of
#: :meth:`VectorEngine.evaluate_packed` within a report_values tuple.
FLOAT_FIELDS = (0, 1, 2, 3, 5, 6, 7, 8)
INT_FIELDS = (4, 9, 10, 11, 12)

#: Integer-chain intermediates must stay below 2**53 for float64 products to
#: be exact.  The guard subtracts a relative margin much larger than the
#: worst accumulated rounding error (~1e-15), so a chain whose *exact* value
#: brushes the limit can never sneak past the flag after rounding.
_EXACT_LIMIT = float(2**53) * (1.0 - 1e-9)

#: Below this many rows the NumPy fixed costs outweigh the per-row win and
#: the batch is simply evaluated by the scalar engine.
MIN_VECTOR_ROWS = 8

#: Positions 0..5 within a loop order (broadcast helper for the scans).
_ORDER_POSITIONS = np.arange(6, dtype=np.int64)

#: Dimension-space mask of the reduction dimensions (for output "distinct"
#: factors, mirroring ``spatial_distinct_factor``).
_REDUCTION_MASK = np.array(
    [index in REDUCTION_INDEXES for index in range(6)], dtype=bool
)


class VectorEngine:
    """Batched, bit-identical counterpart of the scalar fast engine.

    One instance per :class:`~repro.cost.maestro.CostModel`; it owns a small
    statics table (one row per unique layer shape seen) and fallback
    telemetry: ``rows_vectorized`` / ``rows_fallback`` totals plus the
    per-reason ``fallback_counters`` dict, which makes the scalar-fallback
    rate *diagnosable* (a non-zero ``fallback_depth`` would mean a hierarchy
    depth regressed off the vector path).
    """

    def __init__(
        self,
        bytes_per_element: int,
        energy: Tuple[float, float, float, float],
    ):
        self.bytes_per_element = int(bytes_per_element)
        self.energy = energy
        self._bpe_f = float(self.bytes_per_element)
        # Scaling by 1 or a power of two never rounds, so products that are
        # only multiplied by ``bpe`` afterwards need no exactness flag.
        self._bpe_exact = (
            self.bytes_per_element & (self.bytes_per_element - 1)
        ) == 0
        self._statics_index: dict = {}
        self._statics_rows: List[tuple] = []
        self._table: Optional[tuple] = None
        self.rows_vectorized = 0
        self.rows_fallback = 0
        self.fallback_counters = {
            "fallback_depth": 0,
            "fallback_statics_overflow": 0,
            "fallback_intermediate_overflow": 0,
            "fallback_small_batch": 0,
            "fallback_gene_overflow": 0,
        }

    # -- statics table -----------------------------------------------------

    def _statics_slot(self, statics: LayerStatics) -> int:
        """Row of ``statics`` in the table (assigned on first sight)."""
        slot = self._statics_index.get(statics)
        if slot is None:
            dims = statics.dims
            # Oversized shapes would overflow the int64/float64 pipeline;
            # their rows always take the scalar path.
            vectorizable = (
                statics.macs < 2**53
                and statics.output_elements < 2**53
                and statics.stride < 2**31
                and all(size < 2**31 for size in dims)
            )
            self._statics_rows.append(
                (
                    dims,
                    statics.stride,
                    statics.is_depthwise,
                    statics.macs,
                    statics.output_elements,
                    tuple(index in statics.weight_indexes for index in range(6)),
                    tuple(index in statics.input_indexes for index in range(6)),
                    tuple(index in statics.output_indexes for index in range(6)),
                    vectorizable,
                )
            )
            slot = len(self._statics_rows) - 1
            self._statics_index[statics] = slot
            self._table = None
        return slot

    def _stacked_table(self) -> tuple:
        """Statics columns as stacked arrays (rebuilt after new shapes)."""
        if self._table is None:
            rows = self._statics_rows
            self._table = (
                np.array([row[0] for row in rows], dtype=np.int64),  # dims
                np.array([row[1] for row in rows], dtype=np.int64),  # stride
                np.array([row[2] for row in rows], dtype=bool),  # depthwise
                np.array([row[3] for row in rows], dtype=np.float64),  # macs
                np.array([row[3] for row in rows], dtype=np.int64),
                np.array([row[4] for row in rows], dtype=np.float64),  # out
                np.array([row[5] for row in rows], dtype=bool),  # W mask
                np.array([row[6] for row in rows], dtype=bool),  # I mask
                np.array([row[7] for row in rows], dtype=bool),  # O mask
            )
        return self._table

    # -- public API --------------------------------------------------------

    def evaluate_rows(
        self,
        rows: Sequence[Row],
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> List[tuple]:
        """Evaluate every (statics, key) row; returns report value tuples.

        The tuples follow :func:`repro.cost.engine.report_values` field
        order, so they drop straight into the layer-report cache and are
        reconstituted per layer with ``make_report``.  Handles any
        hierarchy depth: mixed-depth batches are grouped by depth and each
        group rides :meth:`evaluate_packed`.  The gene-matrix path calls
        :meth:`evaluate_packed` directly, skipping the per-row flattening
        and tuple stitching done here; this entry serves the batches it
        cannot pack (mixed depths, genes beyond int64).
        """
        count = len(rows)
        values: List[Optional[tuple]] = [None] * count
        # depth -> (positions, flattened gene rows, statics slots)
        groups: dict = {}
        for position, (statics, key) in enumerate(rows):
            if len(key) == 0:
                values[position] = self._scalar_values(
                    statics, key, noc_bandwidth, dram_bandwidth, "depth"
                )
                continue
            slot = self._statics_slot(statics)
            flat_row: tuple = ()
            for static, tile in key:
                flat_row += static[:2] + static[2] + tile
            group = groups.setdefault(len(key), ([], [], []))
            group[0].append(position)
            group[1].append(flat_row)
            group[2].append(slot)

        for positions, flat, group_slots in groups.values():
            try:
                matrix = np.array(flat, dtype=np.int64)
            except OverflowError:
                # A gene beyond int64 (pathological hand-built mappings);
                # the scalar engine's arbitrary-precision ints handle it.
                for position in positions:
                    statics, key = rows[position]
                    values[position] = self._scalar_values(
                        statics, key, noc_bandwidth, dram_bandwidth,
                        "gene_overflow",
                    )
                continue
            floats, ints = self.evaluate_packed(
                [rows[position] for position in positions],
                matrix,
                np.array(group_slots, dtype=np.int64),
                noc_bandwidth,
                dram_bandwidth,
            )
            for position, value in zip(positions, columns_to_values(floats, ints)):
                values[position] = value
        return values

    def evaluate_packed(
        self,
        rows: Sequence[Row],
        matrix: np.ndarray,
        slots: np.ndarray,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate uniform-depth rows whose genes are already packed.

        ``matrix`` is the ``(n, 14 * num_levels)`` int64 gene matrix
        (spatial, parallel, order, tiles per level) the batch path assembles
        with array gathers — hierarchy depth is inferred from its width;
        ``slots`` are the rows' statics-table slots.  ``rows`` is consulted
        only when a row needs the scalar fallback.

        Returns ``(floats, ints)``: the ``(n, 8)`` float64 and ``(n, 5)``
        integer report columns (the :data:`FLOAT_FIELDS` and
        :data:`INT_FIELDS` of a report_values tuple), with the
        scalar-fallback rows patched in.  The integer columns switch to
        ``object`` dtype (exact Python ints) when a scalar-priced value
        leaves int64.
        """
        count = len(rows)
        statics_rows = self._statics_rows
        fallback: List[Tuple[int, str]] = []
        keep: Optional[np.ndarray] = None
        if not all(row[8] for row in statics_rows):
            vectorizable = np.array(
                [row[8] for row in statics_rows], dtype=bool
            )[slots]
            if not vectorizable.all():
                keep = np.flatnonzero(vectorizable)
                fallback = [
                    (position, "statics_overflow")
                    for position in np.flatnonzero(~vectorizable).tolist()
                ]
        remaining = count if keep is None else len(keep)
        if remaining < MIN_VECTOR_ROWS:
            floats = np.zeros((count, len(FLOAT_FIELDS)))
            ints = np.zeros((count, len(INT_FIELDS)), dtype=np.int64)
            positions = range(count) if keep is None else keep.tolist()
            fallback += [(position, "small_batch") for position in positions]
        else:
            if keep is None:
                floats, ints, inexact = self._evaluate_matrix(
                    matrix, slots, noc_bandwidth, dram_bandwidth
                )
                flagged = np.flatnonzero(inexact)
            else:
                kept_floats, kept_ints, inexact = self._evaluate_matrix(
                    matrix[keep], slots[keep], noc_bandwidth, dram_bandwidth
                )
                floats = np.zeros((count, len(FLOAT_FIELDS)))
                ints = np.zeros((count, len(INT_FIELDS)), dtype=np.int64)
                floats[keep] = kept_floats
                ints[keep] = kept_ints
                flagged = keep[np.flatnonzero(inexact)]
            fallback += [
                (position, "intermediate_overflow") for position in flagged.tolist()
            ]
            self.rows_vectorized += remaining - len(flagged)
        for position, reason in fallback:
            statics, key = rows[position]
            values = self._scalar_values(
                statics, key, noc_bandwidth, dram_bandwidth, reason
            )
            floats[position] = [values[index] for index in FLOAT_FIELDS]
            exact = [values[index] for index in INT_FIELDS]
            try:
                ints[position] = exact
            except OverflowError:
                ints = ints.astype(object)
                ints[position] = exact
        return floats, ints

    def statics_slot(self, statics: LayerStatics) -> int:
        """Public view of the statics-table slot (for batch-path callers)."""
        return self._statics_slot(statics)

    # -- internals ---------------------------------------------------------

    def _scalar_values(
        self,
        statics: LayerStatics,
        key: LayerMappingKey,
        noc_bandwidth: float,
        dram_bandwidth: float,
        reason: str,
    ) -> tuple:
        """One row through the scalar engine (fallback path).

        ``reason`` names the per-reason counter to bump (``depth``,
        ``statics_overflow``, ``intermediate_overflow``, ``small_batch`` or
        ``gene_overflow``); ``rows_fallback`` stays the total.
        """
        self.rows_fallback += 1
        self.fallback_counters["fallback_" + reason] += 1
        report = evaluate_layer_key(
            statics,
            key,
            noc_bandwidth,
            dram_bandwidth,
            self.bytes_per_element,
            self.energy,
            "",
            1,
        )
        return report_values(report)

    def _evaluate_matrix(
        self,
        matrix: np.ndarray,
        slots: np.ndarray,
        noc_bandwidth: float,
        dram_bandwidth: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vectorized, depth-general evaluation.

        Mirrors ``engine._evaluate_two_level`` / ``engine._evaluate_general``
        operation for operation as a loop over hierarchy levels (the depth
        comes from the matrix width); see the module docstring for the
        exactness argument behind the ``inexact`` flags.  Returns the float
        columns (latency, compute, noc, dram, l2_to_l1, dram_bytes,
        l1_access, energy), the integer columns (macs, active_pes, num_pes,
        l1_requirement, l2_requirement) and the per-row inexactness flags.
        """
        (
            dims_table, stride_table, dw_table, macs_f_table, macs_i_table,
            out_f_table, w_table, i_table, o_table,
        ) = self._stacked_table()
        dims = dims_table[slots]
        stride = stride_table[slots]
        depthwise = dw_table[slots]
        w_mask = w_table[slots]
        i_mask = i_table[slots]
        o_mask = o_table[slots]

        num_levels = matrix.shape[1] // GENES_PER_LEVEL
        spatial = []
        par = []
        order = []
        tile = []
        for level in range(num_levels):
            base = level * GENES_PER_LEVEL
            spatial.append(matrix[:, base])
            par.append(matrix[:, base + 1])
            order.append(matrix[:, base + 2:base + 8])
            tile.append(matrix[:, base + 8:base + 14])
        # One row index per call: direct fancy indexing replaces the
        # take/put_along_axis wrappers (same gathers, less overhead).
        row = np.arange(len(matrix))
        row_column = row[:, None]

        inexact = np.zeros(len(matrix), dtype=bool)

        # -- per-level reuse analysis (engine: base/active/folds/trips) ----
        def _analyze(parent, tile_l, par_l, spatial_l):
            base = -(-parent // tile_l)
            chunks = base[row, par_l]
            active = np.minimum(spatial_l, chunks)
            folds = -(-chunks // active)
            trips = base.copy()
            trips[row, par_l] = folds
            covered = tile_l[row, par_l] * active
            parent_extent = parent[row, par_l]
            macro = tile_l.copy()
            macro[row, par_l] = np.minimum(parent_extent, covered)
            return trips, macro, active

        trips = []
        macros = []
        actives = []
        parent = dims
        for level in range(num_levels):
            trips_l, macro_l, active_l = _analyze(
                parent, tile[level], par[level], spatial[level]
            )
            trips.append(trips_l)
            macros.append(macro_l)
            actives.append(active_l)
            parent = tile[level]

        trips_in_order = []
        prefixes = []
        products = []
        for level in range(num_levels):
            in_order = trips[level][row_column, order[level]].astype(np.float64)
            prefix = np.cumprod(in_order, axis=1)
            product = prefix[:, 5]
            inexact |= product >= _EXACT_LIMIT
            trips_in_order.append(in_order)
            prefixes.append(prefix)
            products.append(product)

        inner_volume = np.cumprod(tile[-1].astype(np.float64), axis=1)[:, 5]
        inexact |= inner_volume >= _EXACT_LIMIT
        total_steps = products[0]
        for level in range(1, num_levels):
            total_steps = total_steps * products[level]
            inexact |= total_steps >= _EXACT_LIMIT
        compute_cycles = inner_volume * total_steps

        # -- operand footprints (flag every integer-chain intermediate) ----
        def _footprints(extents):
            k = extents[:, 0].astype(np.float64)
            c = extents[:, 1].astype(np.float64)
            y = extents[:, 2]
            x = extents[:, 3]
            r = extents[:, 4].astype(np.float64)
            s = extents[:, 5].astype(np.float64)
            in_y = ((y - 1) * stride + extents[:, 4]).astype(np.float64)
            in_x = ((x - 1) * stride + extents[:, 5]).astype(np.float64)
            inexact_local = in_y >= _EXACT_LIMIT
            inexact_local |= in_x >= _EXACT_LIMIT
            rs = r * s
            inexact_local |= rs >= _EXACT_LIMIT
            crs = c * rs
            inexact_local |= crs >= _EXACT_LIMIT
            weight = np.where(depthwise, crs, k * crs)
            inexact_local |= weight >= _EXACT_LIMIT
            yx = y.astype(np.float64) * x.astype(np.float64)
            inexact_local |= yx >= _EXACT_LIMIT
            output = np.where(depthwise, c, k) * yx
            inexact_local |= output >= _EXACT_LIMIT
            c_in_y = c * in_y
            inexact_local |= c_in_y >= _EXACT_LIMIT
            inputs = c_in_y * in_x
            inexact_local |= inputs >= _EXACT_LIMIT
            return weight, inputs, output, inexact_local

        macro_w, macro_i, macro_o, flagged = _footprints(macros[0])
        inexact |= flagged

        # -- operand fetch scans (engine: _operand_fetches) ----------------
        def _fetches(rel_in_order, trips_in_order, prefix):
            iterating = rel_in_order & (trips_in_order > 1.0)
            position = np.where(iterating, _ORDER_POSITIONS, -1).max(axis=1)
            gathered = prefix[row, np.maximum(position, 0)]
            return np.where(position >= 0, gathered, 1.0)

        rel_w0 = w_mask[row_column, order[0]]
        rel_i0 = i_mask[row_column, order[0]]
        rel_o0 = o_mask[row_column, order[0]]

        bpe = self._bpe_f
        bpe_exact = self._bpe_exact

        # A product that only feeds the float domain from here on needs no
        # exactness flag even when it exceeds 2**53: with both operands
        # exact, IEEE-754 rounds it once — the same single rounding the
        # scalar engine performs when its exact integer enters the float
        # accumulation.  Only scaling by a non-power-of-two ``bpe`` would
        # add a second rounding, hence the ``bpe_exact`` guards.

        # -- off-chip traffic (engine: dram_bytes accumulation) ------------
        out_elements = out_f_table[slots]
        term = _fetches(rel_w0, trips_in_order[0], prefixes[0]) * macro_w
        if not bpe_exact:
            inexact |= term >= _EXACT_LIMIT
        dram_bytes = term * bpe
        term = _fetches(rel_i0, trips_in_order[0], prefixes[0]) * macro_i
        if not bpe_exact:
            inexact |= term >= _EXACT_LIMIT
        dram_bytes = dram_bytes + term * bpe
        fetched_out = _fetches(rel_o0, trips_in_order[0], prefixes[0]) * macro_o
        inexact |= fetched_out >= _EXACT_LIMIT  # feeds an exact subtraction
        spills = np.maximum(0.0, fetched_out - out_elements)
        dram_bytes = dram_bytes + (out_elements + 2.0 * spills) * bpe

        # -- NoC traffic (engine: l2_to_l1_bytes accumulation) -------------
        actives_f = [active.astype(np.float64) for active in actives]

        def _distinct(mask, is_output, depth):
            distinct = None
            for level in range(depth):
                at = mask[row, par[level]]
                if is_output:
                    at = at | _REDUCTION_MASK[par[level]]
                factor = np.where(at, actives_f[level], 1.0)
                distinct = factor if distinct is None else distinct * factor
            return distinct

        l2_to_l1_bytes = np.zeros(len(matrix))
        inner_w = inner_i = inner_o = None
        steps_above = products[0]
        for level_index in range(1, num_levels):
            rel_w_l = w_mask[row_column, order[level_index]]
            rel_i_l = i_mask[row_column, order[level_index]]
            rel_o_l = o_mask[row_column, order[level_index]]
            tile_w, tile_i, tile_o, flagged = _footprints(tile[level_index])
            inexact |= flagged
            for footprint, rel_l, mask, is_output in (
                (tile_w, rel_w_l, w_mask, False),
                (tile_i, rel_i_l, i_mask, False),
                (tile_o, rel_o_l, o_mask, True),
            ):
                term = steps_above * _fetches(
                    rel_l, trips_in_order[level_index], prefixes[level_index]
                )
                inexact |= term >= _EXACT_LIMIT
                term = term * footprint
                inexact |= term >= _EXACT_LIMIT
                distinct = _distinct(mask, is_output, level_index + 1)
                inexact |= distinct >= _EXACT_LIMIT
                term = term * distinct
                if not bpe_exact:
                    inexact |= term >= _EXACT_LIMIT
                l2_to_l1_bytes = l2_to_l1_bytes + term * bpe
            if level_index < num_levels - 1:
                steps_above = steps_above * products[level_index]
                inexact |= steps_above >= _EXACT_LIMIT
            inner_w, inner_i, inner_o = tile_w, tile_i, tile_o

        noc_cycles = l2_to_l1_bytes / noc_bandwidth
        dram_cycles = dram_bytes / dram_bandwidth

        # -- pipeline fill (engine: startup) -------------------------------
        fill = macro_w + macro_i
        if not bpe_exact:
            inexact |= fill >= _EXACT_LIMIT
        startup = fill * bpe / dram_bandwidth
        if num_levels > 1:
            # The scalar engine adds an exact 0.0 here for one-level
            # hierarchies, which is the float identity — skipping the term
            # entirely is bit-identical.
            fill = inner_w + inner_i
            if not bpe_exact:
                inexact |= fill >= _EXACT_LIMIT
            startup = startup + fill * bpe / noc_bandwidth
        latency = (
            np.maximum(np.maximum(compute_cycles, noc_cycles), dram_cycles)
            + startup
        )

        # -- energy (engine: evaluate_layer tail) --------------------------
        macs = macs_f_table[slots]
        inexact |= macs >= _EXACT_LIMIT
        mac_energy, l1_energy, l2_energy, dram_energy = self.energy
        l1_access_bytes = 2.0 * macs * bpe + l2_to_l1_bytes
        l2_access_bytes = l2_to_l1_bytes + dram_bytes
        energy_total = macs * mac_energy + (
            (l1_access_bytes * l1_energy + l2_access_bytes * l2_energy)
            + dram_bytes * dram_energy
        )

        # -- minimum buffer capacities (exact integers in the report) ------
        if num_levels == 1:
            # One-level hierarchies size both buffers from the raw inner
            # tile footprint (not the macro), mirroring the scalar engine.
            tile_w, tile_i, tile_o, flagged = _footprints(tile[0])
            inexact |= flagged
            partial = tile_w + tile_i
            inexact |= partial >= _EXACT_LIMIT
            l1_requirement = (partial + tile_o) * bpe
            inexact |= l1_requirement >= _EXACT_LIMIT
            l2_requirement = l1_requirement
        else:
            partial = inner_w + inner_i
            inexact |= partial >= _EXACT_LIMIT
            l1_requirement = (partial + inner_o) * bpe
            inexact |= l1_requirement >= _EXACT_LIMIT
            partial = macro_w + macro_i
            inexact |= partial >= _EXACT_LIMIT
            l2_requirement = (partial + macro_o) * bpe
            inexact |= l2_requirement >= _EXACT_LIMIT
            for level_index in range(1, num_levels - 1):
                mid_w, mid_i, mid_o, flagged = _footprints(macros[level_index])
                inexact |= flagged
                partial = mid_w + mid_i
                inexact |= partial >= _EXACT_LIMIT
                l2_requirement = l2_requirement + (partial + mid_o) * bpe
                inexact |= l2_requirement >= _EXACT_LIMIT

        float_columns = np.stack(
            (
                latency, compute_cycles, noc_cycles, dram_cycles,
                l2_to_l1_bytes, dram_bytes, l1_access_bytes, energy_total,
            ),
            axis=1,
        )
        active_pes = actives[0]
        num_pes = spatial[0]
        for level in range(1, num_levels):
            active_pes = active_pes * actives[level]
            num_pes = num_pes * spatial[level]
        safe = ~inexact
        int_columns = np.stack(
            (
                macs_i_table[slots],
                active_pes,
                num_pes,
                np.where(safe, l1_requirement, 0.0).astype(np.int64),
                np.where(safe, l2_requirement, 0.0).astype(np.int64),
            ),
            axis=1,
        )
        return float_columns, int_columns, inexact


def columns_to_values(floats: np.ndarray, ints: np.ndarray) -> List[tuple]:
    """Stitch :meth:`VectorEngine.evaluate_packed` columns into value tuples.

    One C-level ``tolist`` per column block, then ``zip`` builds the tuples
    in :func:`repro.cost.engine.report_values` field order.
    """
    f = floats.T.tolist()
    g = ints.T.tolist()
    return list(
        zip(
            f[0], f[1], f[2], f[3], g[0], f[4], f[5], f[6], f[7],
            g[1], g[2], g[3], g[4],
        )
    )


def values_to_columns(values: Sequence[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """The inverse of :func:`columns_to_values` (exact: ints beyond int64
    keep ``object`` dtype)."""
    floats = np.array(
        [[value[index] for index in FLOAT_FIELDS] for value in values],
        dtype=np.float64,
    ).reshape(-1, len(FLOAT_FIELDS))
    exact = [[value[index] for index in INT_FIELDS] for value in values]
    try:
        ints = np.array(exact, dtype=np.int64)
    except OverflowError:
        ints = np.array(exact, dtype=object)
    return floats, ints.reshape(-1, len(INT_FIELDS))
