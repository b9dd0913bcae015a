"""Energy accounting helpers for crossbar executions.

The paper's headline metrics are cycles and cells, but its motivation
is the energy cost of data movement on von Neumann machines; this
module provides a simple, documented energy model so that users can
compare CIM designs in energy terms as well.  Costs are attributed per
micro-op kind using the per-event figures from the device model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.crossbar.device import DeviceModel


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy attributed to each operation category, in femtojoules."""

    by_category: Dict[str, float]

    @property
    def total_fj(self) -> float:
        return sum(self.by_category.values())

    @property
    def total_pj(self) -> float:
        return self.total_fj / 1e3

    @property
    def total_nj(self) -> float:
        return self.total_fj / 1e6

    def fraction(self, category: str) -> float:
        """Share of total energy spent in *category* (0 when unused)."""
        total = self.total_fj
        if total == 0:
            return 0.0
        return self.by_category.get(category, 0.0) / total


class EnergyModel:
    """Accumulates energy per operation category.

    The model charges:

    * one set pulse per cell initialised to logic one,
    * one reset pulse per NOR output cell that actually switches,
    * set/reset pulses per written cell in word writes,
    * one sense event per cell in word reads.

    These match the charging already done inside
    :class:`repro.crossbar.array.CrossbarArray`; this class exists to
    attribute the totals to categories for reporting.
    """

    def __init__(self, device: DeviceModel):
        self.device = device
        self._by_category: Dict[str, float] = {}

    def charge(self, category: str, energy_fj: float) -> None:
        """Add *energy_fj* femtojoules to *category*."""
        if energy_fj < 0:
            raise ValueError("energy must be non-negative")
        self._by_category[category] = self._by_category.get(category, 0.0) + energy_fj

    def charge_writes(self, category: str, set_cells: int, reset_cells: int) -> None:
        """Charge write pulses: *set_cells* sets plus *reset_cells* resets."""
        self.charge(
            category,
            set_cells * self.device.e_set_fj + reset_cells * self.device.e_reset_fj,
        )

    def charge_reads(self, category: str, cells: int) -> None:
        """Charge sensing *cells* bits."""
        self.charge(category, cells * self.device.e_read_fj)

    def breakdown(self) -> EnergyBreakdown:
        return EnergyBreakdown(by_category=dict(self._by_category))
