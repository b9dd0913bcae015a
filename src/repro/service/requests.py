"""Request/result value types of the multiplication service.

A :class:`MulRequest` is one client-submitted multiplication: two
operands, the datapath width they target, and service-level intent
(priority, optional deadline).  A :class:`MulResult` is the terminal
record the service hands back: the product plus the provenance needed
to audit how it was produced (which bank way, which batch, whether the
operand cache short-circuited simulation, how many fault retries were
spent).

Both are plain frozen dataclasses so they can cross any boundary — the
scheduler queues requests, the dispatcher stamps results, the metrics
layer only ever reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.karatsuba.controller import MIN_BITS
from repro.sim.exceptions import SimulationError


class ServiceError(SimulationError):
    """Base class for service-layer failures."""


class AdmissionError(ServiceError):
    """A request was rejected at admission (backpressure or validation)."""


class QueueFullError(AdmissionError):
    """The scheduler's bounded queue is at capacity."""


class DeadlineImpossibleError(AdmissionError):
    """A request's deadline is below the width's execution estimate.

    Raised at admission instead of silently accepting work that cannot
    meet its latency budget even if flushed immediately: the minimum
    cost of one batch pass at the request's width already exceeds
    ``deadline_cc``.
    """


class NoHealthyWayError(ServiceError):
    """Every bank way for a width is retired or quarantined."""


#: Width floor of the portfolio designs (Toom-3 and schoolbook accept
#: any width from here up; see :mod:`repro.portfolio.design`).
FLEXIBLE_MIN_BITS = 16


def validate_width(n_bits: int) -> None:
    """Admission-control width check, mirroring the datapath constraint."""
    if n_bits < MIN_BITS or n_bits % 4:
        raise AdmissionError(
            f"operand width must be a multiple of 4 and >= {MIN_BITS}, "
            f"got {n_bits}"
        )


def validate_flexible_width(n_bits: int) -> None:
    """Relaxed admission check for portfolio-routed requests.

    The portfolio's Toom-3 and schoolbook designs have no divisibility
    constraint, so off-grid widths (``n % 4 != 0``) are servable; only
    the common floor remains.
    """
    if n_bits < FLEXIBLE_MIN_BITS:
        raise AdmissionError(
            f"operand width must be >= {FLEXIBLE_MIN_BITS}, got {n_bits}"
        )


@dataclass(frozen=True)
class MulRequest:
    """One multiplication job as submitted by a client.

    Parameters
    ----------
    request_id:
        Caller-unique identifier; results are matched back through it.
    a, b:
        Non-negative operands, each fitting in *n_bits* bits.
    n_bits:
        Target datapath width (multiple of 4, >= 16); requests are
        binned by this value, so mixed-width traffic batches per width.
    priority:
        Higher drains first when a bin is flushed (ties are FIFO).
    deadline_cc:
        Optional latency budget in clock cycles; the service marks
        whether the executed batch met it (it never drops late work).
    """

    request_id: int
    a: int
    b: int
    n_bits: int
    priority: int = 0
    deadline_cc: Optional[int] = None
    #: Virtual arrival timestamp in clock cycles (open-loop drivers
    #: stamp it; ``None`` keeps the legacy tick-per-submission clock).
    arrival_cc: Optional[int] = None
    #: Workload kind this multiplication serves (``"mul"`` for plain
    #: traffic; the crypto workload layer stamps ``"modmul"`` /
    #: ``"modexp"`` / ``"msm"`` on the field multiplications it
    #: decomposes into).  Free-form provenance tag — the service bins
    #: by width only, never by kind.
    kind: str = "mul"
    #: Bit length of the modulus the multiplication reduces under
    #: (``None`` for plain multiplications).
    modulus_bits: Optional[int] = None
    #: Set by the service when portfolio routing is enabled and a
    #: feasibility-unconstrained design can serve this width: admission
    #: then only enforces the portfolio floor instead of the fixed
    #: datapath's multiple-of-4 constraint.
    flexible_width: bool = False

    def __post_init__(self) -> None:
        if self.flexible_width:
            validate_flexible_width(self.n_bits)
        else:
            validate_width(self.n_bits)
        if self.a < 0 or self.b < 0:
            raise AdmissionError("operands must be non-negative")
        if self.a >> self.n_bits or self.b >> self.n_bits:
            raise AdmissionError(
                f"operands must fit in {self.n_bits} bits"
            )
        if self.deadline_cc is not None and self.deadline_cc < 0:
            raise AdmissionError("deadline must be non-negative")
        if self.arrival_cc is not None and self.arrival_cc < 0:
            raise AdmissionError("arrival timestamp must be non-negative")
        if not self.kind or not isinstance(self.kind, str):
            raise AdmissionError("request kind must be a non-empty string")
        if self.modulus_bits is not None and self.modulus_bits < 2:
            raise AdmissionError("modulus_bits must be at least 2")

    @property
    def operands(self) -> Tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class MulResult:
    """Terminal record of one serviced multiplication."""

    request_id: int
    product: int
    n_bits: int
    #: Identifier of the bank way that produced the product, e.g.
    #: ``"w64.1"``; ``"cache"`` when the operand cache answered.
    way: str
    #: Flush sequence number of the executed batch (-1 for cache hits).
    batch_id: int
    #: Jobs that shared the batch's SIMD pass.
    batch_occupancy: int
    #: Pipelined makespan of the executed batch, in clock cycles
    #: (0 for cache hits — no array was touched).
    latency_cc: int
    #: Logical ticks (submissions) the request waited in its bin.
    queued_ticks: int = 0
    cache_hit: bool = False
    #: Fault-recovery retries spent on this request.
    retries: int = 0
    #: Ways quarantined while producing this result.
    faulty_ways: Tuple[str, ...] = field(default=())
    #: None when the request carried no deadline.
    deadline_met: Optional[bool] = None
    #: Virtual timeline (clock cycles): when the request arrived and
    #: when its batch completed.  Only stamped for requests submitted
    #: with ``arrival_cc`` (open-loop drivers); ``None`` otherwise.
    arrival_cc: Optional[int] = None
    completion_cc: Optional[int] = None
    #: Workload kind copied from the request (``"mul"`` for plain
    #: traffic; crypto decompositions stamp their parent kind).
    kind: str = "mul"
    #: Bit length of the modulus the multiplication served, when any.
    modulus_bits: Optional[int] = None

    @property
    def service_latency_cc(self) -> Optional[int]:
        """End-to-end latency on the virtual timeline: queueing wait
        plus batch execution, from arrival to batch completion."""
        if self.arrival_cc is None or self.completion_cc is None:
            return None
        return self.completion_cc - self.arrival_cc
