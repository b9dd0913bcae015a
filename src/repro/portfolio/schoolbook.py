"""Schoolbook (single-row, full-width) multiplier design point.

The paper's Sec. III baseline: no splitting at all, one MultPIM-style
row multiplier (:mod:`repro.arith.rowmul`) spanning the full ``n``-bit
operands.  Latency ``n * (ceil(log2 n) + 14) + 3`` grows superlinearly,
which is why the paper discards it *at its design point* (n >= 64) —
but below the Karatsuba pipeline's fill overhead the single row is
simply faster (291 cc vs ~790 cc at n = 16), and the portfolio tuner
measures exactly that crossover instead of assuming it away.

The controller exposes the same surface as
:class:`repro.karatsuba.controller.KaratsubaController` so the bank
dispatcher, degrade ladder and pipeline timing algebra drive it
unchanged.  The three pipeline slots are ``operands`` (2 cc: write the
two operand cell groups), ``multiply`` (the row latency) and ``store``
(1 cc: release the product) — the row multiplier dominates, so the
design is effectively unpipelined.  There are no MAGIC adder programs:
the optimizer and transient-fault hook have nothing to act on (the
fault surface is the numeric row model), which the reliability
accessors report honestly (no-op repair, empty optimizer stats).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.arith import rowmul
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec
from repro.karatsuba.controller import JobRecord
from repro.magic.backend import DEFAULT_BACKEND
from repro.reliability.residue import DEFAULT_RESIDUE_BITS, ResidueChecker
from repro.sim.clock import Clock
from repro.sim.exceptions import DesignError
from repro.telemetry import spans as _telemetry
from repro.telemetry.spans import NOOP_SPAN

#: Smallest supported width (operand staging needs at least one
#: partition per operand bit group; matches the service floor).
MIN_BITS = 4

#: Cycles charged for staging the two operand cell groups / releasing
#: the product (periphery writes, same convention as the pipeline
#: stages' I/O cycles).
OPERAND_CYCLES = 2
STORE_CYCLES = 1

#: The single row's one product, as a lock-step ``(out, lhs, rhs)`` step.
_STEPS = (("product", "a", "b"),)


def latency_cc(n_bits: int) -> int:
    """Row latency at full width: ``n(ceil(log2 n) + 14) + 3``."""
    _check_width(n_bits)
    return rowmul.latency_cc(n_bits)


def area_cells(n_bits: int) -> int:
    """Single row: ``12n`` cells."""
    _check_width(n_bits)
    return rowmul.area_cells(n_bits)


def _check_width(n_bits: int) -> None:
    if n_bits < MIN_BITS:
        raise DesignError(
            f"the schoolbook design needs n >= {MIN_BITS}, got {n_bits}"
        )


class SchoolbookController:
    """Drives multiplications through the single full-width row."""

    stage_names: Tuple[str, str, str] = ("operands", "multiply", "store")
    #: No crossbar-backed stage attributes: the numeric row model has
    #: no compiled programs, spare rows, or wear state to inspect.
    stage_attr_names: Tuple[str, ...] = ()

    def __init__(
        self,
        n_bits: int,
        wear_leveling: bool = True,
        device=None,
        spare_rows: int = 2,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
        optimize: bool = False,
        backend: object = DEFAULT_BACKEND,
    ):
        _check_width(n_bits)
        self.n_bits = n_bits
        self.optimize = optimize
        self.backend = backend
        self.wear_leveling = wear_leveling
        self.row = RowMultiplier(RowMultiplierSpec(n_bits))
        self.checker = ResidueChecker("schoolbook", residue_bits)
        self.clock = Clock()
        self.jobs = 0
        self._fault_hook = None

    # ------------------------------------------------------------------
    def run_job(self, a: int, b: int) -> JobRecord:
        return self.run_jobs_batch([(a, b)])[0]

    def run_jobs_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[JobRecord]:
        pairs = list(pairs)
        if not pairs:
            return []
        for a, b in pairs:
            if a < 0 or b < 0:
                raise DesignError("operands must be non-negative")
            if a >> self.n_bits or b >> self.n_bits:
                raise DesignError(
                    f"operands must fit in {self.n_bits} bits"
                )
        tracer = _telemetry.active()
        stage_span = (
            tracer.span(
                "stage.multiply",
                clock=self.clock,
                width=self.n_bits,
                jobs=len(pairs),
            )
            if tracer is not None
            else NOOP_SPAN
        )
        mul_cc = latency_cc(self.n_bits)
        with stage_span:
            products = rowmul.lockstep_pass(
                {"product": self.row},
                _STEPS,
                [{"a": a, "b": b} for a, b in pairs],
                self.checker,
                self.wear_leveling,
            )
            # Jobs run back to back in the single row; the batch
            # advances the clock once per job (no lane parallelism to
            # exploit — the row is the whole datapath).
            self.clock.tick(
                len(pairs) * (OPERAND_CYCLES + mul_cc + STORE_CYCLES),
                category="rowmul",
            )
        self.jobs += len(pairs)
        return [
            JobRecord(
                a=a,
                b=b,
                product=product["product"],
                precompute_cycles=OPERAND_CYCLES,
                multiply_cycles=mul_cc,
                postcompute_cycles=STORE_CYCLES,
            )
            for (a, b), product in zip(pairs, products)
        ]

    # ------------------------------------------------------------------
    def stage_latencies(self) -> Tuple[int, int, int]:
        return (OPERAND_CYCLES, latency_cc(self.n_bits), STORE_CYCLES)

    @property
    def area_cells(self) -> int:
        return area_cells(self.n_bits)

    def max_writes(self) -> int:
        return self.row.max_writes()

    def total_energy_fj(self) -> float:
        """The row multiplier models wear but not device energy
        (consistent with the Karatsuba multiplication stage)."""
        return 0.0

    # -- reliability ---------------------------------------------------
    @property
    def fault_hook(self):
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        # Stored for interface parity; the numeric row model has no
        # MAGIC micro-ops for the hook to intercept.
        self._fault_hook = hook

    def diagnose_and_repair(self) -> dict:
        return {}

    def spare_rows_free(self) -> int:
        return 0

    def optimizer_stats(self) -> dict:
        return {"enabled": False}

    def residue_stats(self) -> List[Dict[str, object]]:
        return [self.checker.stats()]
