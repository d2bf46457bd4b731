"""The population as a first-class NumPy gene matrix.

A :class:`GenomeMatrix` stores a whole population as one ``int64``
member x gene array instead of a list of :class:`Genome` objects.  Each
cluster level occupies :data:`LEVEL_WIDTH` consecutive columns in the exact
order the vector engine's packed gene matrix consumes them
(:meth:`repro.cost.vector_engine.VectorEngine.evaluate_packed`):

========  =======================================================
``0``     spatial size (the HW gene ``pi``)
``1``     parallel dimension index (position in ``DIMS``)
``2:8``   loop order as dimension indexes, outermost first
``8:14``  tile sizes in canonical ``DIMS`` order
========  =======================================================

so a repaired row *is* the flattened :meth:`Genome.cache_key` and feeds the
cost model without any per-member object construction.  The matrix can only
represent syntactically valid genomes (dimension names are indexes, orders
stay permutations under every shipped operator), which is what makes the
vectorized repair below so small: it clamps magnitudes, never names.

Search loops keep genomes on the boundary: populations are sampled as
genomes (same RNG stream as always) and packed once; winning rows
materialize back into genomes lazily.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.encoding.genome import Genome, GenomeSpace, LevelGenes
from repro.mapping.mapping import Mapping, mapping_from_cache_key
from repro.workloads.dims import DIM_INDEX, DIMS

#: Columns per cluster level: spatial, parallel index, 6 order slots, 6 tiles.
LEVEL_WIDTH = 14

#: Column offsets within one level block.
SPATIAL_COL = 0
PARALLEL_COL = 1
ORDER_COLS = slice(2, 8)
TILE_COLS = slice(8, 14)


class GenomeMatrix:
    """A population of encoded design points as one int64 gene matrix."""

    __slots__ = ("data", "num_levels")

    def __init__(self, data: np.ndarray, num_levels: int):
        if data.ndim != 2 or data.shape[1] != LEVEL_WIDTH * num_levels:
            raise ValueError(
                f"expected a (members, {LEVEL_WIDTH * num_levels}) matrix for "
                f"{num_levels} levels, got shape {data.shape}"
            )
        self.data = np.ascontiguousarray(data, dtype=np.int64)
        self.num_levels = num_levels

    def __len__(self) -> int:
        return len(self.data)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_genomes(cls, genomes: Sequence[Genome]) -> "GenomeMatrix":
        """Pack a genome population into a matrix (genomes must be valid).

        Every genome must have the same hierarchy depth: a matrix has one
        row width.
        """
        if not genomes:
            raise ValueError("cannot pack an empty population")
        depths = sorted({genome.num_levels for genome in genomes})
        if len(depths) > 1:
            raise ValueError(
                f"cannot pack genomes of mixed hierarchy depths {depths} "
                "into one gene matrix"
            )
        num_levels = depths[0]
        data = np.array(
            [genome_to_genes(genome) for genome in genomes], dtype=np.int64
        )
        return cls(data, num_levels)

    @classmethod
    def empty(cls, size: int, num_levels: int) -> "GenomeMatrix":
        """An uninitialized population of ``size`` members."""
        return cls(
            np.empty((size, LEVEL_WIDTH * num_levels), dtype=np.int64), num_levels
        )

    def copy(self) -> "GenomeMatrix":
        """Deep copy of the population."""
        return GenomeMatrix(self.data.copy(), self.num_levels)

    def truncated(self, size: int) -> "GenomeMatrix":
        """The first ``size`` members (a view, not a copy)."""
        return GenomeMatrix(self.data[:size], self.num_levels)

    # -- genome boundary ---------------------------------------------------

    def genome_at(self, index: int) -> Genome:
        """Materialize one member as a :class:`Genome`."""
        return row_to_genome(self.data[index], self.num_levels)

    def to_genomes(self) -> List[Genome]:
        """Materialize the whole population (boundary/debugging use)."""
        return [self.genome_at(index) for index in range(len(self))]


def genome_to_genes(genome: Genome) -> List[int]:
    """Flatten one genome into a plain gene list (raises on bad dim names).

    The list form is what the search inner loops mutate: Python list
    indexing beats NumPy scalar indexing by a wide margin at this row
    width, and a generation's children convert to the matrix in one
    ``np.array`` call.
    """
    genes: List[int] = []
    for level in genome.levels:
        genes.append(int(level.spatial_size))
        genes.append(DIM_INDEX[level.parallel_dim])
        genes.extend(DIM_INDEX[dim] for dim in level.order)
        tiles = level.tiles
        genes.extend(int(tiles[dim]) for dim in DIMS)
    return genes


def genome_to_row(genome: Genome) -> np.ndarray:
    """Flatten one genome into a gene row (raises on invalid dim names)."""
    return np.array(genome_to_genes(genome), dtype=np.int64)


def row_to_genome(row: np.ndarray, num_levels: int) -> Genome:
    """Rebuild a :class:`Genome` from one gene row."""
    genes = [int(value) for value in row]
    levels: List[LevelGenes] = []
    for level_index in range(num_levels):
        base = level_index * LEVEL_WIDTH
        levels.append(
            LevelGenes(
                spatial_size=genes[base + SPATIAL_COL],
                parallel_dim=DIMS[genes[base + PARALLEL_COL]],
                order=[DIMS[genes[base + column]] for column in range(2, 8)],
                tiles={
                    dim: genes[base + 8 + position]
                    for position, dim in enumerate(DIMS)
                },
            )
        )
    return Genome(levels=levels)


def row_cache_key(row: Sequence[int], num_levels: int) -> tuple:
    """The member's :meth:`Genome.cache_key` built straight from its genes.

    ``row`` must be repaired (spatial >= 1, tiles >= 1), which makes the
    key's clamping a no-op; pass ``row.tolist()`` for plain-int tuples.
    """
    parts = []
    for level_index in range(num_levels):
        base = level_index * LEVEL_WIDTH
        parts.append(
            (
                (row[base], row[base + 1], tuple(row[base + 2 : base + 8])),
                tuple(row[base + 8 : base + 14]),
            )
        )
    return tuple(parts)


def mapping_from_row(row: np.ndarray, num_levels: int) -> Mapping:
    """Decode one repaired gene row into an immutable :class:`Mapping`."""
    return mapping_from_cache_key(row_cache_key(row.tolist(), num_levels))


def mapping_from_fingerprint(fingerprint: bytes, num_levels: int) -> Mapping:
    """Decode a row fingerprint (the row's raw bytes) back into a mapping."""
    row = np.frombuffer(fingerprint, dtype=np.int64)
    return mapping_from_row(row, num_levels)


def repaired_matrix(matrix: GenomeMatrix, space: GenomeSpace) -> GenomeMatrix:
    """Vectorized counterpart of :func:`repro.encoding.repair.repaired_copy`.

    Returns a repaired copy of the whole population in a handful of array
    operations; per-member results are bit-identical to running
    ``repaired_copy(genome, space)`` member by member (pinned by
    ``tests/encoding/test_genome_matrix.py``).  Only magnitudes need
    clamping: the matrix encoding cannot represent invalid dimension names
    or (under the shipped operators) non-permutation orders.
    """
    num_levels = matrix.num_levels
    data = matrix.data.copy()
    view = data.reshape(len(data), num_levels, LEVEL_WIDTH)
    spatials = view[:, :, SPATIAL_COL]
    if space.hw_is_fixed:
        fixed = space.fixed_pe_array
        spatials[:, : len(fixed)] = np.asarray(fixed, dtype=np.int64)
    else:
        max_pes = space.max_pes
        np.clip(spatials, 1, max_pes, out=spatials)
        # Shrink the innermost levels first until the PE product fits,
        # mirroring repaired_copy's scalar loop with masked array updates.
        product = spatials.prod(axis=1)
        for index in range(num_levels - 1, -1, -1):
            over = product > max_pes
            if not over.any():
                break
            column = spatials[over, index]
            others = product[over] // column
            allowed = np.maximum(1, max_pes // np.maximum(1, others))
            product[over] = others * allowed
            spatials[over, index] = allowed
    tiles = view[:, :, TILE_COLS]
    bounds = np.array([space.dim_bounds[dim] for dim in DIMS], dtype=np.int64)
    np.clip(tiles, 1, bounds, out=tiles)
    return GenomeMatrix(data, num_levels)
