"""Reference (non-simulating) multiplier with the same interface.

Workload studies (elliptic curves, MSM, big NTTs) need thousands of
field multiplications; routing each through the NOR-level simulator is
bit-exact but slow.  :class:`ReferenceMultiplier` is a drop-in for
:class:`~repro.karatsuba.design.KaratsubaCimMultiplier` that computes
with native integers while exposing identical width checks, metrics,
and timing (from the analytic cost model) — so cycle projections stay
honest while host time stays bounded.

The equivalence of the two paths is itself under test: the property
suite asserts the simulating multiplier matches native products, so
substituting this class changes nothing but host speed.
"""

from __future__ import annotations

from repro.karatsuba import cost
from repro.sim.exceptions import DesignError
from repro.sim.stats import DesignMetrics


class ReferenceMultiplier:
    """Interface-compatible, non-simulating stand-in for the CIM design."""

    def __init__(self, n_bits: int):
        if n_bits < 16 or n_bits % 4:
            raise DesignError(
                f"operand width must be a multiple of 4 and >= 16, got {n_bits}"
            )
        self.n_bits = n_bits
        self.multiplications = 0

    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int) -> int:
        """Width-checked product (native arithmetic)."""
        if a < 0 or b < 0:
            raise DesignError("operands must be non-negative")
        if a >> self.n_bits or b >> self.n_bits:
            raise DesignError(f"operands must fit in {self.n_bits} bits")
        self.multiplications += 1
        return a * b

    def square(self, a: int) -> int:
        return self.multiply(a, a)

    # ------------------------------------------------------------------
    def timing(self) -> cost.DesignCost:
        return cost.design_cost(self.n_bits, 2)

    def metrics(self) -> DesignMetrics:
        return cost.design_metrics(self.n_bits, depth=2)

    @property
    def area_cells(self) -> int:
        return cost.design_cost(self.n_bits, 2).area_cells

    def cycle_cost(self) -> int:
        """Pipelined cycles consumed by the multiplications so far."""
        return self.multiplications * self.timing().bottleneck_cc
