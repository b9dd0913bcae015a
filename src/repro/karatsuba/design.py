"""Public API: the CIM Karatsuba large-integer multiplier.

:class:`KaratsubaCimMultiplier` is the top-level object a user
instantiates: it wires the three pipelined stage subarrays behind the
Karatsuba Multiplication Controller (paper Fig. 5), multiplies
arbitrary operands bit-exactly through the cycle-accurate simulator,
and reports the paper's headline metrics.

>>> mul = KaratsubaCimMultiplier(64)
>>> mul.multiply(0xDEADBEEF, 0xC0FFEE)
3943961561335998397
>>> mul.metrics().area_cells
4404
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.crossbar.device import DeviceModel
from repro.crossbar.endurance import EnduranceReport, analyze
from repro.karatsuba import cost
from repro.karatsuba.pipeline import KaratsubaPipeline, StreamResult
from repro.magic.backend import DEFAULT_BACKEND
from repro.sim.exceptions import DesignError
from repro.sim.stats import DesignMetrics


class KaratsubaCimMultiplier:
    """The paper's three-stage pipelined Karatsuba multiplier (L = 2).

    Parameters
    ----------
    n_bits:
        Operand width; a multiple of 4, at least 16.  The paper
        evaluates 64, 128, 256 and 384 (FHE and pairing-based ZKP
        sizes).
    wear_leveling:
        Enable the scratch-region exchange of Sec. IV-B (default on).
    device:
        Optional ReRAM device model override for energy/endurance
        studies.
    backend:
        Batched executor backend the pipeline stages run on (one of
        :data:`repro.magic.BACKEND_NAMES` or an instance); defaults to
        :data:`repro.magic.backend.DEFAULT_BACKEND`.
    """

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device: DeviceModel = None,
        backend: object = DEFAULT_BACKEND,
    ):
        self.n_bits = n_bits
        self.wear_leveling = wear_leveling
        self.pipeline = KaratsubaPipeline(
            n_bits, wear_leveling=wear_leveling, device=device, backend=backend
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def multiply(self, a: int, b: int) -> int:
        """Multiply two ``n_bits``-wide non-negative integers.

        The product is computed inside the simulated crossbars — chunk
        additions NOR-by-NOR on Kogge-Stone adders, partial products in
        the nine multiplier rows, recombination on the 1.5n-bit adder —
        and returned as a Python integer.
        """
        return self.pipeline.multiply(a, b)

    def multiply_stream(
        self, operand_pairs: Iterable[Tuple[int, int]]
    ) -> StreamResult:
        """Multiply a stream of operand pairs with pipelined timing."""
        return self.pipeline.run_stream(operand_pairs)

    def square(self, a: int) -> int:
        """Square an operand (a multiplication with both inputs equal)."""
        return self.multiply(a, a)

    def multiply_signed(self, a: int, b: int) -> int:
        """Two's-complement style signed multiplication.

        The datapath is unsigned (Sec. IV); signed operands are handled
        sign-magnitude at the controller: multiply magnitudes, apply the
        product sign.  Magnitudes must fit ``n_bits``.
        """
        magnitude = self.multiply(abs(a), abs(b))
        return -magnitude if (a < 0) != (b < 0) and magnitude else magnitude

    def squaring_metrics(self):
        """Cost of the dedicated squarer variant (see
        :func:`repro.karatsuba.cost.squaring_cost`)."""
        return cost.squaring_cost(self.n_bits)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def timing(self) -> cost.DesignCost:
        """Static stage/pipeline timing."""
        return self.pipeline.timing()

    def metrics(self) -> DesignMetrics:
        """Headline metrics as reported in the paper's Table I."""
        return cost.design_metrics(self.n_bits, depth=2)

    def measured_metrics(self) -> DesignMetrics:
        """Metrics from the live simulator state (stage clocks and wear
        counters) rather than the closed forms; these agree with
        :meth:`metrics` and the tests assert it."""
        timing = self.timing()
        return DesignMetrics(
            name="ours-L2-measured",
            n_bits=self.n_bits,
            latency_cc=timing.latency_cc,
            area_cells=timing.area_cells,
            throughput_per_mcc=timing.throughput_per_mcc,
            max_writes_per_cell=None,
        )

    def endurance_reports(self) -> List[EnduranceReport]:
        """Wear summaries of the two crossbar-based stages."""
        return [
            analyze(unit.array)
            for _, unit in self.pipeline.controller.crossbar_units()
        ]

    def lifetime_multiplications(self, endurance_cycles: int = 10**10) -> int:
        """Design lifetime in multiplications, limited by the hottest
        cell at the analytic per-multiplication wear rate."""
        per_mult = cost.max_writes_per_cell(self.n_bits)
        return endurance_cycles // per_mult

    # ------------------------------------------------------------------
    @property
    def area_cells(self) -> int:
        """Total memristor count across the three subarrays."""
        return self.pipeline.controller.area_cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        timing = self.timing()
        return (
            f"KaratsubaCimMultiplier(n={self.n_bits}, "
            f"area={self.area_cells} cells, "
            f"throughput={timing.throughput_per_mcc:.0f}/Mcc)"
        )


def supported_widths(max_bits: int = 512) -> List[int]:
    """Widths the L = 2 design accepts up to *max_bits*."""
    if max_bits < 16:
        raise DesignError("max_bits must be at least 16")
    return [n for n in range(16, max_bits + 1) if n % 4 == 0]
