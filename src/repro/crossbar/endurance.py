"""Endurance analysis and wear-leveling for crossbar arrays.

ReRAM cells tolerate 1e10-1e11 write cycles (paper Sec. II-A), so a CIM
design must both minimise writes and spread them evenly.  The paper's
Kogge-Stone adder applies wear-leveling by periodically exchanging the
scratch region with the operand/result region, which "approximately
halves the wear effects" (Sec. IV-B).

:class:`EnduranceReport` summarises per-cell write counts of an array;
:class:`WearLevelingController` implements the region-swap policy and
exposes the logical-to-physical row mapping it maintains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.crossbar.array import CrossbarArray


@dataclass(frozen=True)
class EnduranceReport:
    """Write-wear summary of one crossbar array."""

    max_writes: int
    total_writes: int
    mean_writes: float
    nonzero_cells: int
    cells: int

    @property
    def imbalance(self) -> float:
        """Ratio of the hottest cell to the mean (1.0 = perfectly even)."""
        if self.mean_writes == 0:
            return 0.0
        return self.max_writes / self.mean_writes

    def lifetime_multiplications(self, endurance_cycles: int) -> int:
        """How many operations the array survives if each repeats this
        wear pattern, limited by the hottest cell."""
        if self.max_writes == 0:
            return endurance_cycles
        return endurance_cycles // self.max_writes


def analyze(array) -> EnduranceReport:
    """Build an :class:`EnduranceReport` from an array's write counters.

    Accepts a :class:`CrossbarArray` or a
    :class:`~repro.crossbar.array.WordPackedCrossbarArray`; the latter's
    counters are per-lane (every lane experiences the same pulses), so
    the report reads as the wear of one lane."""
    writes = array.writes
    return EnduranceReport(
        max_writes=int(writes.max()),
        total_writes=int(writes.sum()),
        mean_writes=float(writes.mean()),
        nonzero_cells=int(np.count_nonzero(writes)),
        cells=array.cells,
    )


def row_write_histogram(array: CrossbarArray) -> List[int]:
    """Maximum write count per row (useful to spot hot scratch rows)."""
    return [int(array.writes[row].max()) for row in range(array.rows)]


class WearLevelingController:
    """Region-swap wear-leveling (paper Sec. IV-B).

    The controller partitions the physical rows of an array into two
    equal-purpose regions, *A* and *B*.  After every :meth:`swap` the
    logical roles of the regions are exchanged, so writes that always
    target the logical scratch region alternate between two physical
    row sets.  Over many operations the hottest cell receives roughly
    half the writes it would without leveling.

    The controller only maintains the mapping; callers translate
    logical rows through :meth:`physical_row` before touching the array.
    Swapping is a periphery-level remapping (address decoder update), so
    it costs no array cycles — matching the paper's claim that wear
    leveling "does not lower performance".
    """

    def __init__(self, region_a: Sequence[int], region_b: Sequence[int]):
        if len(region_a) != len(region_b):
            raise ValueError(
                "wear-leveling regions must have equal size, got "
                f"{len(region_a)} and {len(region_b)}"
            )
        if set(region_a) & set(region_b):
            raise ValueError("wear-leveling regions must be disjoint")
        self._region_a = list(region_a)
        self._region_b = list(region_b)
        self.swaps = 0
        self._mapping: Dict[int, int] = {}
        self._rebuild_mapping()

    def _rebuild_mapping(self) -> None:
        self._mapping = {row: row for row in self._region_a + self._region_b}
        if self.swaps % 2 == 1:
            for a_row, b_row in zip(self._region_a, self._region_b):
                self._mapping[a_row] = b_row
                self._mapping[b_row] = a_row

    def swap(self) -> None:
        """Exchange the logical roles of the two regions."""
        self.swaps += 1
        self._rebuild_mapping()

    def advance(self, count: int) -> None:
        """Apply *count* successive swaps in one step.

        Batched stage execution retires B multiplications per pass; the
        mapping only depends on swap parity, so advancing is O(1).
        """
        if count < 0:
            raise ValueError("swap count must be non-negative")
        self.swaps += count
        self._rebuild_mapping()

    def job_groups(
        self, jobs: int, enabled: bool = True
    ) -> Iterator[List[int]]:
        """Group *jobs* (>= 1) successive multiplications by wear state.

        Each job meets the state it would in sequential order: the even
        jobs the current state, then — after one swap — the odd jobs.
        A group is yielded while the controller stands in its state
        (:meth:`row_permutation` places it); the groups' lanes may
        still replay together, since the state only moves rows.  Once
        exhausted, the controller stands where *jobs* single-job swaps
        would leave it.  With leveling not *enabled*, all jobs form one
        group and nothing swaps.
        """
        if not enabled:
            yield list(range(jobs))
            return
        start = self.swaps
        yield list(range(0, jobs, 2))
        self.swap()
        if jobs > 1:
            yield list(range(1, jobs, 2))
        self.advance(start + jobs - self.swaps)

    @property
    def swapped(self) -> bool:
        """True when the regions are currently exchanged."""
        return self.swaps % 2 == 1

    def row_permutation(self, rows: int) -> Optional[List[int]]:
        """Physical row of each logical row ``0..rows-1`` in the
        current state (rows outside both regions stay), or ``None``
        while unswapped, where every row maps to itself."""
        if not self.swapped:
            return None
        mapping = self._mapping
        return [mapping.get(row, row) for row in range(rows)]

    def manages(self, logical_row: int) -> bool:
        """Whether *logical_row* lies in one of the two regions."""
        return logical_row in self._mapping

    def physical_row(self, logical_row: int) -> int:
        """Translate a logical row to its current physical row."""
        try:
            return self._mapping[logical_row]
        except KeyError:
            raise ValueError(
                f"row {logical_row} is not managed by this controller"
            ) from None

    def translate(self, logical_rows: Sequence[int]) -> List[int]:
        """Translate a sequence of logical rows."""
        return [self.physical_row(row) for row in logical_rows]
