"""Design points of the algorithm portfolio (tentpole of the tuner).

A :class:`DesignPoint` names one multiplier implementation the serving
layer can instantiate for a width bucket: the algorithm (schoolbook /
karatsuba / toom3), the Karatsuba unroll depth L, the SIMD cycle-packer
flag and the executor backend.  Its :meth:`~DesignPoint.key` string is
embedded in compiled-program cache keys, tuning tables and telemetry,
so two design points can never alias a cache entry.

Feasibility is per-algorithm (the paper's constraints, made explicit):

* ``schoolbook`` — any width >= 4 (single full-width row).
* ``karatsuba``  — ``n % 2^L == 0`` and ``n >= 16`` (the L = 2 layout
  additionally pins L to 2 for *serving*; other depths are cost-model
  study points).  There is deliberately **no padding policy**: padding
  an off-grid width up to the next multiple of four would silently
  change the cycle/energy accounting the paper reports, so off-grid
  widths are instead served by the feasibility-unconstrained designs.
* ``toom3``      — any width >= 16 (``ceil(n/3)`` chunking).

:func:`build_pipeline` is the factory the bank dispatcher calls to
materialise a way; :func:`repro.karatsuba.cost.design_cost` prices any
point from its stages' layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.magic.backend import backend_name
from repro.portfolio import schoolbook as sb
from repro.portfolio import toom3 as t3
from repro.sim.exceptions import DesignError

#: Algorithms the portfolio can serve.
ALGORITHMS: Tuple[str, ...] = ("schoolbook", "karatsuba", "toom3")

#: Unroll depth shown in keys per algorithm when not parameterised:
#: schoolbook has no splitting (L=0), Toom-3 applies one 3-way split.
_FIXED_DEPTH = {"schoolbook": 0, "toom3": 1}


@dataclass(frozen=True)
class DesignPoint:
    """One point of the {algorithm, L, optimizer, backend} space."""

    algorithm: str
    depth: int = 2
    optimize: bool = True
    backend: str = "word"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise DesignError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {ALGORITHMS}"
            )
        fixed = _FIXED_DEPTH.get(self.algorithm)
        if fixed is not None and self.depth != fixed:
            raise DesignError(
                f"{self.algorithm} has fixed depth {fixed}, got {self.depth}"
            )
        if self.algorithm == "karatsuba" and self.depth < 1:
            raise DesignError("karatsuba depth must be >= 1")
        # Normalise alias spellings eagerly so keys are canonical.
        object.__setattr__(self, "backend", backend_name(self.backend))

    # ------------------------------------------------------------------
    def key(self) -> str:
        """Canonical cache/telemetry key, e.g. ``toom3.L1.opt.word``."""
        flag = "opt" if self.optimize else "exact"
        return f"{self.algorithm}.L{self.depth}.{flag}.{self.backend}"

    @property
    def servable(self) -> bool:
        """Whether a pipeline class exists for this point (the L != 2
        Karatsuba depths are analytic study points only)."""
        if self.algorithm == "karatsuba":
            return self.depth == 2
        return True

    def feasible(self, n_bits: int) -> bool:
        """Whether this design can multiply *n_bits*-wide operands."""
        if self.algorithm == "schoolbook":
            return n_bits >= sb.MIN_BITS
        if self.algorithm == "toom3":
            return n_bits >= t3.MIN_BITS
        return n_bits >= 16 and n_bits % (1 << self.depth) == 0

    @staticmethod
    def from_key(key: str) -> "DesignPoint":
        """Inverse of :meth:`key` (tuning-table deserialisation)."""
        try:
            algorithm, depth, flag, backend = key.split(".")
            if not depth.startswith("L"):
                raise ValueError(key)
            return DesignPoint(
                algorithm=algorithm,
                depth=int(depth[1:]),
                optimize={"opt": True, "exact": False}[flag],
                backend=backend,
            )
        except (ValueError, KeyError) as exc:
            raise DesignError(f"malformed design key {key!r}") from exc


#: The fixed baseline every measurement compares against: the paper's
#: L = 2 Karatsuba at the service defaults.
BASELINE = DesignPoint("karatsuba", depth=2, optimize=True, backend="word")


# ----------------------------------------------------------------------
# Pipeline factory
# ----------------------------------------------------------------------
class SchoolbookPipeline(KaratsubaPipeline):
    """Schoolbook design behind the shared pipeline interface."""

    controller_factory = sb.SchoolbookController


class Toom3Pipeline(KaratsubaPipeline):
    """Toom-3 design behind the shared pipeline interface."""

    controller_factory = t3.Toom3Controller


_PIPELINES = {
    "schoolbook": SchoolbookPipeline,
    "karatsuba": KaratsubaPipeline,
    "toom3": Toom3Pipeline,
}


def build_pipeline(
    n_bits: int,
    design: DesignPoint,
    wear_leveling: bool = True,
    device=None,
    spare_rows: int = 2,
    residue_bits: int = 8,
) -> KaratsubaPipeline:
    """Materialise the pipeline serving *design* at *n_bits*.

    Raises :class:`DesignError` for infeasible or non-servable points
    (e.g. Karatsuba at an off-grid width, or an L != 2 study point).
    """
    if not design.servable:
        raise DesignError(
            f"design {design.key()} is a cost-model study point, "
            "not a servable pipeline"
        )
    if not design.feasible(n_bits):
        raise DesignError(
            f"design {design.key()} is infeasible at {n_bits} bits"
        )
    cls = _PIPELINES[design.algorithm]
    return cls(
        n_bits,
        wear_leveling=wear_leveling,
        device=device,
        spare_rows=spare_rows,
        residue_bits=residue_bits,
        optimize=design.optimize,
        backend=design.backend,
    )
