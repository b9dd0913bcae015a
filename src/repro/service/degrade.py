"""Wear-aware dispatch, fault recovery, graceful degradation.

Robustness policies for the service, in the spirit of Count2Multiply's
treatment of fault tolerance as a first-class concern for bulk-bitwise
in-memory engines:

* **wear-aware rotation** — :func:`make_wear_aware_ranker` extends the
  dispatcher's least-loaded policy with the hottest-cell write count
  (from :mod:`repro.crossbar.endurance` accounting), so equally loaded
  ways rotate towards the least-worn device;
* **endurance budgets** — :class:`EndurancePolicy` retires a way whose
  hottest cell crosses its write budget.  The pool keeps serving with
  fewer ways (graceful degradation) until none remain, at which point
  dispatch raises :class:`~repro.service.requests.NoHealthyWayError`;
* **fault recovery** — :class:`DegradeController.execute` runs a
  detection-driven escalation ladder.  Detection is *in-band*: the
  Karatsuba stages verify every sensed sub-result against mod-(2^r − 1)
  residue predictions (:mod:`repro.reliability.residue`) and raise
  :class:`~repro.sim.exceptions.StageSelfCheckError`; ``sa0`` cells
  violate the MAGIC init precondition and raise
  :class:`~repro.sim.exceptions.MagicProtocolError`.  Each detection
  climbs the ladder:

  1. **diagnose + remap** — write-verify the way's crossbars
     (:meth:`~repro.crossbar.array.CrossbarArray.verify_row_writable`)
     and remap defective rows onto spare word lines; an empty diagnosis
     means the upset was transient and a replay alone suffices;
  2. **replay on the same way** — re-run the batch in place (budgeted
     by ``max_inplace_replays`` per way), so a remapped permanent fault
     or a transient flip costs no healthy way;
  3. **quarantine and retry** — when spares or the in-place budget are
     exhausted, quarantine the way and replay on the next healthy one
     (budgeted by ``max_retries``);
  4. **degrade** — no healthy way / budget left raises
     :class:`NoHealthyWayError`.

  The pure-Python oracle ``a * b`` is demoted to an opt-in audit mode
  (``oracle_audit=True``): production detection is the in-band residue
  checks; the audit exists for differential testing and chaos drills.

The controller is pure policy: all mechanics (way selection, SIMD
execution, cache eviction) live in :class:`~repro.service.workers.BankDispatcher`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crossbar.endurance import analyze
from repro.service.requests import NoHealthyWayError
from repro.service.workers import BankDispatcher, DispatchReport, Way, WayRanker
from repro.telemetry import spans as _telemetry
from repro.sim.exceptions import (
    SimulationError,
    SpareRowsExhaustedError,
    StageSelfCheckError,
)

#: Default per-cell write budget before a way retires.  Real ReRAM
#: tolerates 1e10-1e11 writes (paper Sec. II-A); the default is far
#: smaller so tests and benches can exercise retirement.
DEFAULT_WRITE_BUDGET = 10**10

#: Default batch replays allowed on one way after in-place repair.
DEFAULT_INPLACE_REPLAYS = 2


class EndurancePolicy:
    """Retire-on-budget policy over the hottest cell of each way."""

    def __init__(self, write_budget: int = DEFAULT_WRITE_BUDGET):
        if write_budget < 1:
            raise ValueError("write budget must be positive")
        self.write_budget = write_budget

    def used(self, way: Way) -> int:
        return way.max_writes()

    def remaining(self, way: Way) -> int:
        return max(0, self.write_budget - self.used(way))

    def exhausted(self, way: Way) -> bool:
        return self.used(way) >= self.write_budget

    def remaining_fraction(self, way: Way) -> float:
        return self.remaining(way) / self.write_budget


def make_wear_aware_ranker(policy: EndurancePolicy) -> WayRanker:
    """Least-loaded first, then least-worn, then stable by id.

    Load dominates (throughput comes from spreading batches), wear
    breaks ties — idle pools therefore rotate across ways instead of
    hammering way 0, spreading endurance consumption.
    """

    def ranker(way: Way) -> Tuple:
        return (way.busy_cc, policy.used(way), way.way_id)

    return ranker


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one batch execution under the degrade policies."""

    report: DispatchReport
    #: Replays spent recovering on *other* ways (quarantine rung).
    retries: int
    #: Ways quarantined while producing this batch.
    faulty_ways: Tuple[str, ...]
    #: Ways retired for endurance after this batch.
    retired_ways: Tuple[str, ...]
    #: In-band fault detections (self-checks, protocol violations,
    #: audit mismatches) encountered while producing this batch.
    detections: int = 0
    #: Batch replays on the same way after an in-place diagnosis.
    inplace_replays: int = 0
    #: Rows remapped onto spare word lines: (way_id, stage, row).
    remapped_rows: Tuple[Tuple[str, str, int], ...] = field(default=())
    #: Detection channel of each detection, in order: ``"residue"`` or
    #: ``"differential"`` (stage self-checks), ``"protocol"`` (MAGIC
    #: precondition), ``"audit"`` (opt-in oracle).
    detection_checks: Tuple[str, ...] = field(default=())
    #: Ids of the client requests the batch carried (empty when the
    #: caller executed raw pairs without request context).
    request_ids: Tuple[int, ...] = field(default=())


class DegradeController:
    """Executes batches under the detection-driven escalation ladder."""

    def __init__(
        self,
        dispatcher: BankDispatcher,
        policy: Optional[EndurancePolicy] = None,
        max_retries: int = 3,
        oracle: Callable[[int, int], int] = lambda a, b: a * b,
        max_inplace_replays: int = DEFAULT_INPLACE_REPLAYS,
        oracle_audit: bool = False,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if max_inplace_replays < 0:
            raise ValueError("max_inplace_replays must be non-negative")
        self.dispatcher = dispatcher
        self.policy = policy if policy is not None else EndurancePolicy()
        self.max_retries = max_retries
        self.max_inplace_replays = max_inplace_replays
        self.oracle = oracle
        self.oracle_audit = oracle_audit
        # Wear-aware rotation rides on the dispatcher's ranking hook.
        self.dispatcher.ranker = make_wear_aware_ranker(self.policy)

    # ------------------------------------------------------------------
    def execute(
        self,
        n_bits: int,
        pairs: Sequence[Tuple[int, int]],
        request_ids: Sequence[int] = (),
    ) -> RecoveryReport:
        """Run *pairs* as one batch, recovering from detected faults.

        *request_ids* (when the batch came from the scheduler) are
        threaded through to the dispatch span, the recovery report and
        every escalation event, so a trace export correlates each
        ladder climb back to the client requests it affected.

        Raises :class:`NoHealthyWayError` when retries are exhausted or
        no healthy way remains for the width.
        """
        pairs = list(pairs)
        request_ids = tuple(request_ids)
        expected = (
            [self.oracle(a, b) for a, b in pairs] if self.oracle_audit else None
        )
        faulty: List[str] = []
        remapped: List[Tuple[str, str, int]] = []
        replays_on_way: Dict[str, int] = {}
        checks: List[str] = []
        inplace_replays = 0
        retries = 0
        way: Optional[Way] = None
        while True:
            if way is None:
                way = self.dispatcher.select_way(n_bits, exclude=set(faulty))
            try:
                report = self.dispatcher.run_on(
                    way, pairs, request_ids=request_ids
                )
            except StageSelfCheckError as err:
                # In-band detection: a stage's residue or differential
                # self-check caught divergence between the sensed bits
                # and its prediction (how sa1 / transient corruption
                # typically surfaces).
                checks.append(err.check)
                self._event(
                    "degrade.detect",
                    check=err.check,
                    way=way.way_id,
                    request_ids=list(request_ids),
                )
                if self._repair_in_place(way, remapped, replays_on_way):
                    inplace_replays += 1
                    continue  # replay on the repaired way
                retries = self._escalate(
                    n_bits,
                    way,
                    f"fault: {err.check} self-check in {err.stage or 'stage'}",
                    faulty,
                    retries,
                    request_ids,
                )
                way = None
                continue
            except SimulationError:
                # sa0-style faults break the MAGIC protocol mid-program.
                checks.append("protocol")
                self._event(
                    "degrade.detect",
                    check="protocol",
                    way=way.way_id,
                    request_ids=list(request_ids),
                )
                if self._repair_in_place(way, remapped, replays_on_way):
                    inplace_replays += 1
                    continue  # replay on the repaired way
                retries = self._escalate(
                    n_bits,
                    way,
                    "fault: protocol violation",
                    faulty,
                    retries,
                    request_ids,
                )
                way = None
                continue
            if expected is not None and report.products != expected:
                # Opt-in audit: defence in depth against corruption the
                # in-band checks beneath do not catch.  No localisation
                # is available, so escalate straight to quarantine.
                checks.append("audit")
                self._event(
                    "degrade.detect",
                    check="audit",
                    way=way.way_id,
                    request_ids=list(request_ids),
                )
                retries = self._escalate(
                    n_bits,
                    way,
                    "audit: corrupted product",
                    faulty,
                    retries,
                    request_ids,
                )
                way = None
                continue
            retired = self._retire_exhausted(n_bits)
            return RecoveryReport(
                report=report,
                retries=retries,
                faulty_ways=tuple(faulty),
                retired_ways=retired,
                detections=len(checks),
                inplace_replays=inplace_replays,
                remapped_rows=tuple(remapped),
                detection_checks=tuple(checks),
                request_ids=request_ids,
            )

    def _repair_in_place(
        self,
        way: Way,
        remapped: List[Tuple[str, str, int]],
        replays_on_way: Dict[str, int],
    ) -> bool:
        """Ladder rungs 1–2: write-verify diagnosis, spare-row remap,
        and replay on the same way.

        Returns ``False`` when the way's in-place budget or its spare
        rows are exhausted — the caller escalates to quarantine.  An
        empty diagnosis (no defective row found) means the upset was
        transient; the replay alone recovers it.
        """
        used = replays_on_way.get(way.way_id, 0)
        if used >= self.max_inplace_replays:
            return False
        try:
            repairs = way.pipeline.controller.diagnose_and_repair()
        except SpareRowsExhaustedError:
            return False
        replays_on_way[way.way_id] = used + 1
        for stage, rows in repairs.items():
            remapped.extend((way.way_id, stage, row) for row in rows)
            for row in rows:
                self._event(
                    "degrade.remap", way=way.way_id, stage=stage, row=row
                )
        return True

    def _escalate(
        self,
        n_bits: int,
        way: Way,
        reason: str,
        faulty: List[str],
        retries: int,
        request_ids: Tuple[int, ...] = (),
    ) -> int:
        """Ladder rung 3: quarantine the way and charge a retry."""
        self.dispatcher.quarantine(way, reason)
        faulty.append(way.way_id)
        retries += 1
        self._event(
            "degrade.quarantine",
            way=way.way_id,
            reason=reason,
            request_ids=list(request_ids),
        )
        self._check_retries(n_bits, retries, faulty)
        return retries

    @staticmethod
    def _event(name: str, **attrs: object) -> None:
        tracer = _telemetry.active()
        if tracer is not None:
            tracer.event(name, **attrs)

    def _check_retries(
        self, n_bits: int, retries: int, faulty: List[str]
    ) -> None:
        if retries > self.max_retries:
            raise NoHealthyWayError(
                f"batch for n={n_bits} failed on {len(faulty)} ways "
                f"({', '.join(faulty)}); retry budget exhausted"
            )

    def _retire_exhausted(self, n_bits: int) -> Tuple[str, ...]:
        """Graceful degradation: drop ways past their write budget.

        The last healthy way of a pool is kept in service even when
        exhausted — degraded service beats none; the endurance snapshot
        still reports it as over budget.
        """
        retired: List[str] = []
        for way in self.dispatcher.healthy_ways(n_bits):
            if not self.policy.exhausted(way):
                continue
            if len(self.dispatcher.healthy_ways(n_bits)) <= 1:
                break
            way.retire("endurance budget exhausted")
            retired.append(way.way_id)
        return tuple(retired)

    # ------------------------------------------------------------------
    def endurance_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-way wear view built on :func:`repro.crossbar.endurance.analyze`."""
        snapshot: Dict[str, Dict[str, object]] = {}
        for way in self.dispatcher.all_ways():
            controller = way.pipeline.controller
            reports = [
                analyze(unit.array) for _, unit in controller.crossbar_units()
            ]
            snapshot[way.way_id] = {
                "healthy": way.healthy,
                "retired_reason": way.retired_reason,
                "max_writes": way.max_writes(),
                "write_budget": self.policy.write_budget,
                "remaining_fraction": self.policy.remaining_fraction(way),
                "imbalance": max(
                    (r.imbalance for r in reports), default=0.0
                ),
            }
        return snapshot

    def reliability_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-way reliability view: spares, remaps, residue checks."""
        snapshot: Dict[str, Dict[str, object]] = {}
        for way in self.dispatcher.all_ways():
            controller = way.pipeline.controller
            remap: Dict[str, Dict[int, int]] = {}
            for label, unit in controller.crossbar_units():
                table = unit.array.remap_table()
                if table:
                    remap[label] = table
            snapshot[way.way_id] = {
                "healthy": way.healthy,
                "spare_rows_free": controller.spare_rows_free(),
                "remap": remap,
                "residue": controller.residue_stats(),
            }
        return snapshot
