"""Request/result value types of the crypto workload subsystem.

The service layer (:mod:`repro.service`) speaks raw multiplications;
this module defines the *workload-level* vocabulary on top of it: a
``kind``-tagged request model covering the paper's actual traffic —
plain multiplication, modular multiplication (Sec. IV-F), modular
exponentiation, and Pippenger multi-scalar multiplication (the ZKP
story of the introduction).

A workload request is a frozen value object validated at construction
(admission errors reuse the service's typed exception hierarchy), and
every request kind has a closed-form *field-multiplication count* the
engine scales the pipeline cost model by to quote and enforce
deadlines at admission time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.ec import CurveParams, Point
from repro.crypto.modmul import (
    STRATEGY_BARRETT,
    STRATEGY_MONTGOMERY,
    STRATEGY_SPARSE,
)
from repro.karatsuba import cost
from repro.service.requests import AdmissionError, ServiceError

#: The request kinds the workload layer serves end-to-end.
KIND_MUL = "mul"
KIND_MODMUL = "modmul"
KIND_MODEXP = "modexp"
KIND_MSM = "msm"
REQUEST_KINDS: Tuple[str, ...] = (KIND_MUL, KIND_MODMUL, KIND_MODEXP, KIND_MSM)

#: Reduction strategies a request may pin (``None`` = auto-select).
STRATEGIES: Tuple[str, ...] = (
    STRATEGY_SPARSE,
    STRATEGY_MONTGOMERY,
    STRATEGY_BARRETT,
)


class WorkloadError(ServiceError):
    """Base class for workload-layer failures."""


class WaveSelfCheckError(WorkloadError):
    """A served product failed its residue self-check at delivery.

    The workload layer re-derives the mod-(2^r − 1) residue of every
    product it receives from the residues of the operands it submitted
    (:mod:`repro.reliability.residue`) — an end-to-end ABFT check that
    also covers the serving path (shard transport, journal replay),
    not just the crossbar stages.
    """


def _validate_common(
    priority: int, deadline_cc: Optional[int], arrival_cc: Optional[int]
) -> None:
    if deadline_cc is not None and deadline_cc < 0:
        raise AdmissionError("deadline must be non-negative")
    if arrival_cc is not None and arrival_cc < 0:
        raise AdmissionError("arrival timestamp must be non-negative")


def _validate_modulus(modulus: int, strategy: Optional[str]) -> None:
    if modulus < 3:
        raise AdmissionError("modulus must be >= 3")
    if strategy is not None and strategy not in STRATEGIES:
        raise AdmissionError(
            f"unknown reduction strategy {strategy!r} "
            f"(one of {STRATEGIES} or None)"
        )
    if strategy == STRATEGY_MONTGOMERY and modulus % 2 == 0:
        raise AdmissionError("Montgomery needs an odd modulus")


@dataclass(frozen=True)
class ModMulRequest:
    """One modular multiplication ``x * y mod modulus``."""

    request_id: int
    x: int
    y: int
    modulus: int
    #: Pin a reduction strategy, or ``None`` for ``choose_strategy``.
    strategy: Optional[str] = None
    priority: int = 0
    deadline_cc: Optional[int] = None
    arrival_cc: Optional[int] = None

    kind = KIND_MODMUL

    def __post_init__(self) -> None:
        _validate_modulus(self.modulus, self.strategy)
        if not (0 <= self.x < self.modulus and 0 <= self.y < self.modulus):
            raise AdmissionError("operands must be residues modulo m")
        _validate_common(self.priority, self.deadline_cc, self.arrival_cc)


@dataclass(frozen=True)
class ModExpRequest:
    """One modular exponentiation ``base ^ exponent mod modulus``."""

    request_id: int
    base: int
    exponent: int
    modulus: int
    strategy: Optional[str] = None
    priority: int = 0
    deadline_cc: Optional[int] = None
    arrival_cc: Optional[int] = None

    kind = KIND_MODEXP

    def __post_init__(self) -> None:
        _validate_modulus(self.modulus, self.strategy)
        if not 0 <= self.base < self.modulus:
            raise AdmissionError("base must be a residue modulo m")
        if self.exponent < 0:
            raise AdmissionError("exponent must be non-negative")
        _validate_common(self.priority, self.deadline_cc, self.arrival_cc)


@dataclass(frozen=True)
class MsmRequest:
    """One multi-scalar multiplication ``sum_i scalars[i] * points[i]``.

    The ZKP workload: a Pippenger bucket MSM over *curve*, decomposed
    by the orchestrator into waves of field multiplications through
    the service/front-end.
    """

    request_id: int
    scalars: Tuple[int, ...]
    points: Tuple[Point, ...]
    curve: CurveParams
    #: Pippenger window width; ``None`` picks from the cost model.
    window_bits: Optional[int] = None
    strategy: Optional[str] = None
    priority: int = 0
    deadline_cc: Optional[int] = None
    arrival_cc: Optional[int] = None

    kind = KIND_MSM

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalars", tuple(self.scalars))
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.scalars) != len(self.points):
            raise AdmissionError("scalars and points length mismatch")
        if not self.scalars:
            raise AdmissionError("MSM needs at least one term")
        if any(s < 0 for s in self.scalars):
            raise AdmissionError("scalars must be non-negative")
        if self.window_bits is not None and self.window_bits < 1:
            raise AdmissionError("window width must be at least 1 bit")
        _validate_modulus(self.curve.p, self.strategy)
        p, a, b = self.curve.p, self.curve.a, self.curve.b
        for point in self.points:
            if point.is_identity:
                continue
            lhs = (point.y * point.y) % p
            rhs = (point.x**3 + a * point.x + b) % p
            if lhs != rhs:
                raise AdmissionError(
                    f"point ({point.x}, {point.y}) is not on "
                    f"{self.curve.name}"
                )
        _validate_common(self.priority, self.deadline_cc, self.arrival_cc)


@dataclass(frozen=True)
class WorkloadResult:
    """Provenance shared by every served workload request."""

    request_id: int
    kind: str
    #: Reduction strategy the modulus context selected.
    strategy: str
    #: Datapath width (bits) the field multiplications ran at.
    width: int
    modulus_bits: int
    #: CIM multiplier passes this request decomposed into.
    multiplier_passes: int
    #: Dependency waves the decomposition was served in.
    waves: int
    #: Whether the modulus context came from the context cache.
    context_hit: bool = False
    #: End-to-end residue self-checks passed at delivery.
    residue_checks: int = 0
    arrival_cc: Optional[int] = None
    completion_cc: Optional[int] = None
    deadline_met: Optional[bool] = None

    @property
    def service_latency_cc(self) -> Optional[int]:
        if self.arrival_cc is None or self.completion_cc is None:
            return None
        return self.completion_cc - self.arrival_cc


@dataclass(frozen=True)
class ModMulResult(WorkloadResult):
    """Result of a :class:`ModMulRequest` or :class:`ModExpRequest`."""

    value: int = 0


@dataclass(frozen=True)
class MsmResult(WorkloadResult):
    """Result of an :class:`MsmRequest`."""

    point: Point = field(default_factory=Point.identity)
    num_points: int = 0
    window_bits: int = 0


# ----------------------------------------------------------------------
# Deadline estimation from the closed-form cost model
# ----------------------------------------------------------------------
def estimate_cost_cc(service, n_bits: int, multiplier_passes: int) -> int:
    """Closed-form lower bound for *multiplier_passes* dependent
    multiplications at width *n_bits* through *service*.

    The first pass costs the service's one-batch estimate for the width
    (:meth:`~repro.service.MultiplicationService.min_latency_estimate_cc`);
    each further dependent pass adds at least one bottleneck-stage
    interval (the pipelined steady-state rate) of the design the service
    routes the width to.  Real decompositions batch independent passes
    per wave, so this is a floor the scheduler can only meet, never
    beat — the right bound for rejecting infeasible deadlines at
    admission.
    """
    design = service.dispatcher.design_for(n_bits)
    bottleneck_cc = cost.design_cost(
        n_bits, design.depth, design.algorithm
    ).bottleneck_cc
    passes = max(1, multiplier_passes)
    return service.min_latency_estimate_cc(n_bits) + (passes - 1) * bottleneck_cc
