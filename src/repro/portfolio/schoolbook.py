"""Schoolbook (single-row, full-width) multiplier design point.

The paper's Sec. III baseline: no splitting at all, one MultPIM-style
row multiplier (:mod:`repro.arith.rowmul`) spanning the full ``n``-bit
operands.  Latency ``n * (ceil(log2 n) + 14) + 3`` grows superlinearly,
which is why the paper discards it *at its design point* (n >= 64) —
but below the Karatsuba pipeline's fill overhead the single row is
simply faster (291 cc vs ~790 cc at n = 16), and the portfolio tuner
measures exactly that crossover instead of assuming it away.

The controller shares the
:class:`repro.karatsuba.controller.PipelineController` surface so the
bank dispatcher, degrade ladder and pipeline timing algebra drive it
unchanged.  The three pipeline slots are ``operands`` (2 cc: write the
two operand cell groups), ``multiply`` (the row latency) and ``store``
(1 cc: release the product) — the row multiplier dominates, so the
design is effectively unpipelined.  No slot owns a MAGIC crossbar:
the optimizer and transient-fault hook have nothing to act on (the
fault surface is the numeric row model), which the reliability
accessors report honestly (no-op repair, empty optimizer stats).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.arith.rowmul import LockstepRowStage
from repro.karatsuba.controller import JobRecord, PipelineController
from repro.karatsuba.cost import StageLayout
from repro.magic.backend import DEFAULT_BACKEND
from repro.reliability.residue import DEFAULT_RESIDUE_BITS
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


def layouts(n_bits: int) -> Tuple[StageLayout, StageLayout, StageLayout]:
    """The three slots at *n_bits*: operand staging, the one full-width
    row (``12n`` cells, ``n(ceil(log2 n) + 14) + 3`` cc) and product
    release."""
    _check_width(n_bits)
    return (
        StageLayout("operands", overhead={"write": OPERAND_CYCLES}),
        StageLayout("multiply", multipliers=1, multiplier_width=n_bits),
        StageLayout("store", overhead={"write": STORE_CYCLES}),
    )


def _check_width(n_bits: int) -> None:
    if n_bits < MIN_BITS:
        raise DesignError(
            f"the schoolbook design needs n >= {MIN_BITS}, got {n_bits}"
        )


class PeripheryStage:
    """A pipeline slot of fixed periphery cycles that owns no cells:
    operand staging or product release, as its *layout* gives them."""

    units: Tuple[object, ...] = ()
    checker = None
    area_cells = 0

    def __init__(self, layout: StageLayout):
        self.layout = layout
        self.cycles = layout.latency_cc

    def latency_cc(self) -> int:
        return self.cycles

    def max_writes(self) -> int:
        return 0


class SchoolbookController(PipelineController):
    """Drives multiplications through the single full-width row."""

    stage_attr_names = ("operands", "multiply", "store")

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
        operands, multiply, store = layouts(n_bits)
        super().__init__(n_bits, optimize, backend)
        self.operands = PeripheryStage(operands)
        self.multiply = LockstepRowStage(
            multiply,
            _STEPS,
            "schoolbook",
            wear_leveling=wear_leveling,
            residue_bits=residue_bits,
        )
        self.store = PeripheryStage(store)
        self.row = self.multiply.rows["product"]
        self.clock = Clock()

    # ------------------------------------------------------------------
    def run_jobs_batch(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[JobRecord]:
        pairs = self._checked_pairs(pairs)
        if not pairs:
            return []
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
        latencies = self.stage_latencies()
        with stage_span:
            products = self.multiply.lockstep_pass(
                [{"a": a, "b": b} for a, b in pairs]
            )
            # Jobs run back to back in the single row; the batch
            # advances the clock once per job (no lane parallelism to
            # exploit — the row is the whole datapath).
            self.clock.tick(len(pairs) * sum(latencies), category="rowmul")
        self.jobs += len(pairs)
        return [
            JobRecord(a, b, product["product"], *latencies)
            for (a, b), product in zip(pairs, products)
        ]
