"""A fully decoded accelerator design point."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.area import AreaBreakdown
from repro.arch.hardware import HardwareConfig
from repro.cost.performance import ModelPerformance
from repro.mapping.mapping import Mapping


@dataclass(frozen=True)
class AcceleratorDesign:
    """HW configuration + mapping + evaluated performance + area.

    This is what the co-optimization framework ultimately returns: the
    decoded counterpart of an encoded individual (paper Fig. 3(d-e)).
    """

    hardware: HardwareConfig
    mapping: Mapping
    performance: ModelPerformance
    area: AreaBreakdown

    @property
    def latency(self) -> float:
        """Total model latency in cycles."""
        return self.performance.latency

    @property
    def energy(self) -> float:
        """Total model energy (normalised units)."""
        return self.performance.energy

    @property
    def latency_area_product(self) -> float:
        """Latency times total area (the paper's secondary metric)."""
        return self.performance.latency * self.area.total

    def describe(self) -> str:
        """Multi-line human-readable description (Fig. 7-style)."""
        pe_pct, buf_pct = self.area.pe_to_buffer_ratio
        lines = [
            f"Hardware: {self.hardware.describe()}",
            f"Area: {self.area.total:.3e} um^2 "
            f"(PE {pe_pct:.0f}% : buffer {buf_pct:.0f}%)",
            f"Latency: {self.latency:.3e} cycles   "
            f"Latency-area product: {self.latency_area_product:.3e}",
            "Mapping:",
        ]
        lines.extend("  " + line for line in self.mapping.describe().splitlines())
        return "\n".join(lines)


class LazyRowMappingDesign(AcceleratorDesign):
    """A design point whose mapping rebuilds from a gene-row fingerprint.

    The gene-matrix evaluation path identifies designs by the raw bytes of
    their repaired :class:`~repro.encoding.genome_matrix.GenomeMatrix` row
    (which carries every gene).  Populations score thousands of designs
    per generation while only the few that win a search ever have their
    mapping inspected (serialization, ``describe``), so the mapping only
    materializes for those.
    """

    @staticmethod
    def build(
        hardware: HardwareConfig,
        fingerprint: bytes,
        performance: ModelPerformance,
        area: AreaBreakdown,
    ) -> "LazyRowMappingDesign":
        design = object.__new__(LazyRowMappingDesign)
        design.__dict__.update(
            hardware=hardware,
            performance=performance,
            area=area,
            _fingerprint=fingerprint,
        )
        return design

    @property
    def mapping(self) -> Mapping:
        cached = self.__dict__.get("_mapping")
        if cached is None:
            from repro.encoding.genome_matrix import (
                LEVEL_WIDTH,
                mapping_from_fingerprint,
            )

            fingerprint = self._fingerprint
            num_levels = len(fingerprint) // (8 * LEVEL_WIDTH)
            cached = mapping_from_fingerprint(fingerprint, num_levels)
            self.__dict__["_mapping"] = cached
        return cached
