"""Measured per-width design-point tuner (tentpole, part 2).

The tuner sweeps the {algorithm, unroll depth L, optimizer flag,
backend} space per width bucket, *executes* every servable candidate
(random operands, bit-verified against Python integers) to obtain its
cycle-accurate stage latencies — packed program cycle counts when the
optimizer is on — plus measured array energy, and persists the winners
in a versioned tuning table (``TUNE_portfolio.json``).

Selection metric: the pipeline-model makespan of a reference batch
(``latency + (B-1) * bottleneck`` with ``B = SELECTION_BATCH``), which
blends fill latency and steady-state throughput the way the serving
layer actually experiences them.  Ties break toward smaller area.

Widths that were never measured resolve through the closed-form
cost-model prior (:func:`repro.karatsuba.cost.design_cost`), so the
resolver is total over all feasible widths.  Non-servable Karatsuba
depths (L = 1, 3) participate in the sweep as analytic study points:
they are recorded in each bucket's candidate list for the report, but
are never selected to serve.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.karatsuba.cost import design_cost
from repro.portfolio.design import BASELINE, DesignPoint, build_pipeline
from repro.sim.exceptions import DesignError

#: Tuning-table schema identifier; bump on breaking layout changes.
SCHEMA_VERSION = "repro.portfolio.tune/v1"

#: Reference batch depth of the selection metric.
SELECTION_BATCH = 8

#: Default measured width buckets: the service's power-of-two grid
#: plus off-grid widths (n % 4 != 0) that only the portfolio can serve.
DEFAULT_WIDTHS: Tuple[int, ...] = (16, 32, 64, 90, 128, 270)

#: Default sweep dimensions.
DEFAULT_DEPTHS: Tuple[int, ...] = (1, 2, 3)
DEFAULT_BACKENDS: Tuple[str, ...] = ("word",)
DEFAULT_OPTIMIZE_FLAGS: Tuple[bool, ...] = (False, True)


def candidate_designs(
    n_bits: int,
    depths: Sequence[int] = DEFAULT_DEPTHS,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    optimize_flags: Sequence[bool] = DEFAULT_OPTIMIZE_FLAGS,
) -> List[DesignPoint]:
    """Feasible candidates at *n_bits*, servable and study points alike."""
    candidates: List[DesignPoint] = []
    for backend in backends:
        for optimize in optimize_flags:
            for algorithm, depth_choices in (
                ("schoolbook", (0,)),
                ("toom3", (1,)),
                ("karatsuba", tuple(depths)),
            ):
                for depth in depth_choices:
                    design = DesignPoint(
                        algorithm, depth=depth, optimize=optimize,
                        backend=backend,
                    )
                    if design.feasible(n_bits):
                        candidates.append(design)
    return candidates


@dataclass(frozen=True)
class Measurement:
    """Cycle-accurate cost of one (design, width) candidate."""

    design: DesignPoint
    n_bits: int
    latency_cc: int
    bottleneck_cc: int
    area_cells: int
    energy_fj_per_job: float
    measured: bool

    @property
    def selection_cc(self) -> int:
        return self.latency_cc + (SELECTION_BATCH - 1) * self.bottleneck_cc

    def to_json(self) -> dict:
        return {
            "design": self.design.key(),
            "latency_cc": self.latency_cc,
            "bottleneck_cc": self.bottleneck_cc,
            "area_cells": self.area_cells,
            "energy_fj_per_job": round(self.energy_fj_per_job, 3),
            "measured": self.measured,
            "selection_cc": self.selection_cc,
        }

    @staticmethod
    def from_json(n_bits: int, payload: dict) -> "Measurement":
        return Measurement(
            design=DesignPoint.from_key(payload["design"]),
            n_bits=n_bits,
            latency_cc=int(payload["latency_cc"]),
            bottleneck_cc=int(payload["bottleneck_cc"]),
            area_cells=int(payload["area_cells"]),
            energy_fj_per_job=float(payload["energy_fj_per_job"]),
            measured=bool(payload["measured"]),
        )


def measure(
    design: DesignPoint, n_bits: int, jobs: int = 4, seed: int = 0x70F0
) -> Measurement:
    """Execute one servable candidate and read its measured costs.

    Runs *jobs* random multiplications through a freshly built
    pipeline, asserts bit-exactness against Python integers, and
    records the static stage timing (packed cycle counts under
    ``optimize=True``) plus the measured per-job array energy.  For
    non-servable study points the cost of the stage layouts
    (``optimize=False``) is recorded with ``measured=False``.
    """
    if not design.feasible(n_bits):
        raise DesignError(f"design {design.key()} is infeasible at {n_bits} bits")
    if not design.servable:
        prior = design_cost(n_bits, design.depth, design.algorithm)
        return Measurement(
            design=design,
            n_bits=n_bits,
            latency_cc=prior.latency_cc,
            bottleneck_cc=prior.bottleneck_cc,
            area_cells=prior.area_cells,
            energy_fj_per_job=0.0,
            measured=False,
        )
    pipeline = build_pipeline(n_bits, design)
    rng = random.Random(
        (seed << 8) ^ (n_bits * 1000003) ^ zlib.crc32(design.key().encode())
    )
    pairs = [
        (rng.getrandbits(n_bits), rng.getrandbits(n_bits))
        for _ in range(max(1, jobs))
    ]
    result = pipeline.run_stream(pairs, batch_size=len(pairs))
    for (a, b), product in zip(pairs, result.products):
        if product != a * b:
            raise AssertionError(
                f"{design.key()} mis-multiplied at {n_bits} bits"
            )
    timing = result.timing
    energy = pipeline.controller.total_energy_fj() / len(pairs)
    return Measurement(
        design=design,
        n_bits=n_bits,
        latency_cc=timing.latency_cc,
        bottleneck_cc=timing.bottleneck_cc,
        area_cells=pipeline.controller.area_cells,
        energy_fj_per_job=energy,
        measured=True,
    )


@dataclass(frozen=True)
class BucketEntry:
    """Tuning result for one width bucket."""

    n_bits: int
    selected: DesignPoint
    candidates: Tuple[Measurement, ...]

    def to_json(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "selected": self.selected.key(),
            "candidates": [m.to_json() for m in self.candidates],
        }

    @staticmethod
    def from_json(payload: dict) -> "BucketEntry":
        n_bits = int(payload["n_bits"])
        return BucketEntry(
            n_bits=n_bits,
            selected=DesignPoint.from_key(payload["selected"]),
            candidates=tuple(
                Measurement.from_json(n_bits, m)
                for m in payload["candidates"]
            ),
        )


def select(candidates: Iterable[Measurement]) -> DesignPoint:
    """Pick the serving design: smallest reference-batch makespan among
    *servable* measured candidates; ties break toward smaller area."""
    servable = [m for m in candidates if m.design.servable]
    if not servable:
        raise DesignError("no servable candidate to select from")
    best = min(servable, key=lambda m: (m.selection_cc, m.area_cells))
    return best.design


class TuningTable:
    """Versioned per-width design selection with a closed-form prior.

    ``buckets`` maps measured widths to their :class:`BucketEntry`.
    :meth:`resolve` is total over feasible widths: exact bucket hits
    return the measured winner; anything else ranks the candidate
    space with :func:`design_cost` on the fly (``optimize``/``backend``
    taken from the table's sweep configuration).
    """

    def __init__(
        self,
        buckets: Optional[Dict[int, BucketEntry]] = None,
        config: Optional[dict] = None,
    ):
        self.buckets: Dict[int, BucketEntry] = dict(buckets or {})
        self.config = dict(config or {})
        self._prior_hits = 0
        self._bucket_hits = 0

    # -- resolution ----------------------------------------------------
    def resolve(self, n_bits: int) -> DesignPoint:
        entry = self.buckets.get(n_bits)
        if entry is not None:
            self._bucket_hits += 1
            return entry.selected
        self._prior_hits += 1
        return self.prior_select(n_bits)

    def prior_select(self, n_bits: int) -> DesignPoint:
        """Closed-form selection for an unmeasured width."""
        optimize = bool(self.config.get("optimize", True))
        backend = str(self.config.get("backend", "word"))
        best: Optional[Tuple[Tuple[int, int], DesignPoint]] = None
        for design in candidate_designs(
            n_bits,
            depths=(2,),
            backends=(backend,),
            optimize_flags=(optimize,),
        ):
            if not design.servable:
                continue
            prior = design_cost(n_bits, design.depth, design.algorithm)
            rank = (
                prior.latency_cc
                + (SELECTION_BATCH - 1) * prior.bottleneck_cc,
                prior.area_cells,
            )
            if best is None or rank < best[0]:
                best = (rank, design)
        if best is None:
            raise DesignError(f"no feasible design at {n_bits} bits")
        return best[1]

    def latency_floor_cc(self, n_bits: int) -> int:
        """Lower bound on one job's latency under this table's routing
        (deadline admission must not reject satisfiable requests)."""
        entry = self.buckets.get(n_bits)
        if entry is not None:
            selected = [
                m for m in entry.candidates
                if m.design == entry.selected
            ]
            if selected:
                return selected[0].latency_cc
        design = self.prior_select(n_bits)
        return design_cost(n_bits, design.depth, design.algorithm).latency_cc

    def stats(self) -> dict:
        return {
            "buckets": len(self.buckets),
            "bucket_hits": self._bucket_hits,
            "prior_hits": self._prior_hits,
        }

    def selections(self) -> Dict[int, str]:
        return {
            n_bits: entry.selected.key()
            for n_bits, entry in sorted(self.buckets.items())
        }

    # -- persistence ---------------------------------------------------
    def to_json(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "config": self.config,
            "buckets": [
                self.buckets[n].to_json() for n in sorted(self.buckets)
            ],
        }

    @staticmethod
    def from_json(payload: dict) -> "TuningTable":
        version = payload.get("version")
        if version != SCHEMA_VERSION:
            raise DesignError(
                f"tuning table version {version!r} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        buckets = {}
        for raw in payload.get("buckets", ()):
            entry = BucketEntry.from_json(raw)
            buckets[entry.n_bits] = entry
        return TuningTable(buckets=buckets, config=payload.get("config", {}))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @staticmethod
    def load(path: str) -> "TuningTable":
        with open(path, "r", encoding="utf-8") as handle:
            return TuningTable.from_json(json.load(handle))


def validate_table_payload(payload: dict) -> List[str]:
    """Schema check for a serialized tuning table; returns problems.

    Round-trips the payload through :meth:`TuningTable.from_json` and
    verifies every selected design is servable, feasible, and present
    in its bucket's candidate list — the reproducibility condition the
    bench floors gate on.
    """
    problems: List[str] = []
    try:
        table = TuningTable.from_json(payload)
    except (DesignError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable table: {exc}"]
    for n_bits, entry in table.buckets.items():
        design = entry.selected
        if not design.servable:
            problems.append(f"{n_bits}: selected {design.key()} not servable")
        if not design.feasible(n_bits):
            problems.append(f"{n_bits}: selected {design.key()} infeasible")
        keys = {m.design.key() for m in entry.candidates}
        if design.key() not in keys:
            problems.append(
                f"{n_bits}: selected {design.key()} missing from candidates"
            )
        try:
            if select(entry.candidates) != design:
                problems.append(
                    f"{n_bits}: selection not reproducible from candidates"
                )
        except DesignError as exc:
            problems.append(f"{n_bits}: {exc}")
    return problems


def sweep(
    widths: Sequence[int] = DEFAULT_WIDTHS,
    jobs: int = 4,
    seed: int = 0x70F0,
    depths: Sequence[int] = DEFAULT_DEPTHS,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    optimize_flags: Sequence[bool] = DEFAULT_OPTIMIZE_FLAGS,
) -> TuningTable:
    """Measure every candidate at every width and build the table."""
    buckets: Dict[int, BucketEntry] = {}
    for n_bits in widths:
        measurements = [
            measure(design, n_bits, jobs=jobs, seed=seed)
            for design in candidate_designs(
                n_bits,
                depths=depths,
                backends=backends,
                optimize_flags=optimize_flags,
            )
        ]
        buckets[n_bits] = BucketEntry(
            n_bits=n_bits,
            selected=select(measurements),
            candidates=tuple(measurements),
        )
    primary_backend = backends[0] if backends else "word"
    return TuningTable(
        buckets=buckets,
        config={
            "jobs": jobs,
            "seed": seed,
            "depths": list(depths),
            "backends": list(backends),
            "optimize": any(optimize_flags),
            "backend": primary_backend,
            "baseline": BASELINE.key(),
            "selection_batch": SELECTION_BATCH,
        },
    )
