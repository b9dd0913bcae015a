"""Seeded fault-injection campaigns over the service stack.

The campaign runner behind ``repro fault-campaign``: it sweeps fault
kind × operand width over seeded trials, drives each trial through a
fresh :class:`~repro.service.workers.BankDispatcher` +
:class:`~repro.service.degrade.DegradeController` pair (the production
escalation ladder, oracle audit off unless asked), and classifies each
trial's outcome:

``benign``
    The injected fault never corrupted an observable value; the
    products are bit-exact and no check fired.
``corrected``
    At least one in-band check fired and recovery restored bit-exact
    products without quarantining a way (spare-row remap and/or
    replay-in-place).
``escalated``
    Recovery needed the quarantine rung (a healthy way was consumed)
    or degraded to :class:`~repro.service.requests.NoHealthyWayError`.
``sdc``
    Silent data corruption: a product came back wrong.  The acceptance
    bar for single-fault campaigns is **zero**.

Single-fault semantics: permanent trials pin one seeded stuck-at cell;
transient trials install a :class:`SingleUpsetInjector` that delivers
exactly one upset (NOR flip, failed write pulse, or read disturb) at a
seeded operation index, so every detection is attributable to exactly
one injected fault.

Per-trial seeds derive from ``sha256(f"{seed}:{width}:{kind}:{trial}")``
— stable across runs, platforms and ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crossbar.faults import StuckAtFault, inject, row_view
from repro.service.degrade import DegradeController, RecoveryReport
from repro.service.requests import NoHealthyWayError
from repro.service.workers import BankDispatcher

#: Fault kinds the campaign can inject.
KIND_SA0 = "sa0"
KIND_SA1 = "sa1"
KIND_TRANSIENT = "transient"
KIND_WRITE_FAILURE = "write-failure"
KIND_READ_DISTURB = "read-disturb"
ALL_KINDS = (
    KIND_SA0,
    KIND_SA1,
    KIND_TRANSIENT,
    KIND_WRITE_FAILURE,
    KIND_READ_DISTURB,
)
DEFAULT_KINDS = (KIND_SA0, KIND_SA1, KIND_TRANSIENT, KIND_WRITE_FAILURE)

#: Trial outcomes, in increasing order of severity.
OUTCOMES = ("benign", "corrected", "escalated", "sdc")


def derive_seed(base: int, width: int, kind: str, trial: int) -> int:
    """Stable per-trial seed: sha256 over the trial coordinates."""
    key = f"{base}:{width}:{kind}:{trial}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


class SingleUpsetInjector:
    """Executor fault hook delivering exactly one seeded upset.

    Unlike the rate-based
    :class:`~repro.crossbar.faults.TransientFaultInjector`, this hook
    counts eligible operations down to a seeded index, strikes one cell
    there, and then goes quiet — single-fault semantics, so a campaign
    trial's detection is attributable to exactly one upset (and a
    replay after diagnosis runs clean, as a real transient would).
    """

    def __init__(self, kind: str, rng: random.Random, window: int = 0):
        if kind not in (KIND_TRANSIENT, KIND_WRITE_FAILURE, KIND_READ_DISTURB):
            raise ValueError(f"not a transient fault kind: {kind!r}")
        import numpy as np

        self._np = np
        self.kind = kind
        self.rng = rng
        # Default strike windows sit well inside one batch's operation
        # stream at every supported width, so the upset lands with
        # near-certainty: a batched stage pass issues hundreds of NOR
        # steps, >= 8 input writes, and ~10 result reads.
        if window <= 0:
            window = {
                KIND_TRANSIENT: 200,
                KIND_WRITE_FAILURE: 8,
                KIND_READ_DISTURB: 4,
            }[kind]
        self.countdown = rng.randrange(window)
        self.fired = False

    @property
    def upsets(self) -> int:
        return 1 if self.fired else 0

    # -- helpers --------------------------------------------------------
    def _strike(self, array, view, commit, candidates) -> None:
        """Flip one candidate cell (flat indices into *view*)."""
        flat = int(self.rng.choice(list(candidates)))
        index = self._np.unravel_index(flat, view.shape)
        view[index] = not bool(view[index])
        if commit is not None:
            commit()
        self.fired = True
        array.repin_faults()

    def _masked(self, view, mask):
        ones = self._np.ones(view.shape, dtype=bool)
        if mask is None:
            return ones
        return ones & self._np.asarray(mask, dtype=bool)

    # -- hook callbacks -------------------------------------------------
    def on_nor(self, array, out_row: int, mask) -> None:
        if self.fired or self.kind != KIND_TRANSIENT:
            return
        view, commit = row_view(array, out_row)
        cells = self._np.flatnonzero(self._masked(view, mask))
        if cells.size == 0:
            return
        if self.countdown > 0:
            self.countdown -= 1
            return
        self._strike(array, view, commit, cells)

    def on_write(self, array, row: int, mask, pre) -> None:
        if self.fired or self.kind != KIND_WRITE_FAILURE or pre is None:
            return
        view, commit = row_view(array, row)
        # A failed pulse only matters where the write changed the cell.
        changed = self._masked(view, mask) & (view != pre)
        cells = self._np.flatnonzero(changed)
        if cells.size == 0:
            return
        if self.countdown > 0:
            self.countdown -= 1
            return
        flat = int(self.rng.choice(list(cells)))
        index = self._np.unravel_index(flat, view.shape)
        view[index] = pre[index]
        if commit is not None:
            commit()
        self.fired = True
        array.repin_faults()

    def on_read(self, array, row: int) -> None:
        if self.fired or self.kind != KIND_READ_DISTURB:
            return
        if self.countdown > 0:
            self.countdown -= 1
            return
        view, commit = row_view(array, row)
        cells = self._np.flatnonzero(self._np.ones(view.shape, dtype=bool))
        self._strike(array, view, commit, cells)


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: the sweep grid and per-trial service knobs."""

    widths: Tuple[int, ...] = (64, 256)
    kinds: Tuple[str, ...] = DEFAULT_KINDS
    trials: int = 5
    seed: int = 0
    #: Operand pairs per trial batch.
    batch: int = 4
    ways_per_width: int = 2
    spare_rows: int = 2
    max_retries: int = 3
    oracle_audit: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("need at least one trial per cell")
        if self.batch < 1:
            raise ValueError("need at least one pair per batch")
        for kind in self.kinds:
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one seeded fault-injection trial."""

    width: int
    kind: str
    trial: int
    seed: int
    outcome: str
    #: In-band detections raised while recovering.
    detections: int
    #: Detection channels, in order ("residue", "differential",
    #: "protocol", "audit").
    detection_checks: Tuple[str, ...]
    #: Rows remapped onto spare word lines.
    remapped_rows: int
    #: Batch replays on the faulted way.
    inplace_replays: int
    #: Healthy ways consumed by quarantine.
    quarantined_ways: int
    #: Upsets actually delivered (permanent faults count as 1).
    upsets: int


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated campaign outcome."""

    config: CampaignConfig
    trials: Tuple[TrialResult, ...] = field(default=())

    # -- aggregates -----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        totals = {outcome: 0 for outcome in OUTCOMES}
        for trial in self.trials:
            totals[trial.outcome] += 1
        return totals

    def by_cell(self) -> Dict[Tuple[int, str], Dict[str, int]]:
        cells: Dict[Tuple[int, str], Dict[str, int]] = {}
        for trial in self.trials:
            cell = cells.setdefault(
                (trial.width, trial.kind),
                {outcome: 0 for outcome in OUTCOMES},
            )
            cell[trial.outcome] += 1
        return cells

    @property
    def sdc(self) -> int:
        return self.counts()["sdc"]

    @property
    def struck(self) -> int:
        """Trials whose fault actually corrupted an observable value."""
        return sum(1 for t in self.trials if t.outcome != "benign")

    @property
    def detected(self) -> int:
        return sum(1 for t in self.trials if t.detections > 0)

    @property
    def detection_rate(self) -> float:
        """Detected fraction of non-benign trials (1.0 when none)."""
        struck = self.struck
        if struck == 0:
            return 1.0
        return self.detected / struck

    @property
    def residue_coverage(self) -> float:
        """Residue-check share of the stage self-check detections.

        ``residue / (residue + differential)`` — how much of the
        detection load the in-band ABFT code carries versus the exact
        differential backstop; 1.0 when neither fired (e.g. protocol
        detections only).
        """
        residue = differential = 0
        for trial in self.trials:
            for check in trial.detection_checks:
                if check == "residue":
                    residue += 1
                elif check == "differential":
                    differential += 1
        total = residue + differential
        return 1.0 if total == 0 else residue / total

    def overhead(self) -> List[Dict[str, object]]:
        """Residue-check cost per swept width, from the cost model."""
        from repro.karatsuba.cost import design_cost, residue_overhead

        rows: List[Dict[str, object]] = []
        for width in self.config.widths:
            over = residue_overhead(width, depth=2)
            pipeline_cc = design_cost(width, depth=2).latency_cc
            rows.append(
                {
                    "n_bits": width,
                    "checks": over.checks,
                    "latency_cc": over.latency_cc,
                    "writes": over.writes,
                    "pipeline_cc": pipeline_cc,
                    "fraction": over.fraction_of(pipeline_cc),
                }
            )
        return rows

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view (``repro fault-campaign --json``)."""
        return {
            "config": {
                "widths": list(self.config.widths),
                "kinds": list(self.config.kinds),
                "trials": self.config.trials,
                "seed": self.config.seed,
                "batch": self.config.batch,
                "spare_rows": self.config.spare_rows,
                "oracle_audit": self.config.oracle_audit,
            },
            "counts": self.counts(),
            "cells": {
                f"{width}:{kind}": counts
                for (width, kind), counts in sorted(self.by_cell().items())
            },
            "detection_rate": self.detection_rate,
            "residue_coverage": self.residue_coverage,
            "overhead": self.overhead(),
            "trials": [
                {
                    "width": t.width,
                    "kind": t.kind,
                    "trial": t.trial,
                    "seed": t.seed,
                    "outcome": t.outcome,
                    "detections": t.detections,
                    "checks": list(t.detection_checks),
                    "remapped_rows": t.remapped_rows,
                    "inplace_replays": t.inplace_replays,
                    "quarantined_ways": t.quarantined_ways,
                    "upsets": t.upsets,
                }
                for t in self.trials
            ],
        }


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
def _classify(
    recovery: Optional[RecoveryReport],
    expected: List[int],
) -> str:
    if recovery is None:
        return "escalated"
    if recovery.report.products != expected:
        return "sdc"
    if recovery.detections == 0:
        return "benign"
    if recovery.faulty_ways:
        return "escalated"
    return "corrected"


def run_trial(config: CampaignConfig, width: int, kind: str, trial: int) -> TrialResult:
    """Run one seeded single-fault trial and classify its outcome."""
    seed = derive_seed(config.seed, width, kind, trial)
    rng = random.Random(seed)
    dispatcher = BankDispatcher(
        ways_per_width=config.ways_per_width,
        spare_rows=config.spare_rows,
    )
    controller = DegradeController(
        dispatcher,
        max_retries=config.max_retries,
        oracle_audit=config.oracle_audit,
    )
    pairs = [
        (rng.getrandbits(width), rng.getrandbits(width))
        for _ in range(config.batch)
    ]
    expected = [a * b for a, b in pairs]

    # The wear-aware ranker breaks idle ties by way id, so way 0 takes
    # the first batch: fault it.
    way = dispatcher.pool(width)[0]
    injector: Optional[SingleUpsetInjector] = None
    if kind in (KIND_SA0, KIND_SA1):
        _, unit = rng.choice(way.pipeline.controller.crossbar_units())
        fault = StuckAtFault(
            row=rng.randrange(unit.array.rows),
            col=rng.randrange(unit.array.cols),
            kind=kind,
        )
        inject(unit.array, [fault])
    else:
        injector = SingleUpsetInjector(kind, rng)
        way.pipeline.controller.fault_hook = injector

    recovery: Optional[RecoveryReport]
    try:
        recovery = controller.execute(width, pairs)
    except NoHealthyWayError:
        recovery = None

    outcome = _classify(recovery, expected)
    return TrialResult(
        width=width,
        kind=kind,
        trial=trial,
        seed=seed,
        outcome=outcome,
        detections=recovery.detections if recovery else 0,
        detection_checks=recovery.detection_checks if recovery else (),
        remapped_rows=len(recovery.remapped_rows) if recovery else 0,
        inplace_replays=recovery.inplace_replays if recovery else 0,
        quarantined_ways=len(recovery.faulty_ways)
        if recovery
        else config.ways_per_width,
        upsets=injector.upsets if injector is not None else 1,
    )


def run_campaign(config: Optional[CampaignConfig] = None) -> CampaignReport:
    """Sweep fault kind × width over seeded trials."""
    config = config if config is not None else CampaignConfig()
    results: List[TrialResult] = []
    for width in config.widths:
        for kind in config.kinds:
            for trial in range(config.trials):
                results.append(run_trial(config, width, kind, trial))
    return CampaignReport(config=config, trials=tuple(results))
