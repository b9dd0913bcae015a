"""Executor backend protocol and registry for batched MAGIC execution.

One batched MAGIC replay — a compiled program evaluated over *B*
operand sets in lock-step — has two interchangeable execution
strategies, accounting-equivalent per lane:

* ``scalar`` — :class:`ScalarBackend`: one :class:`~repro.magic.executor.MagicExecutor`
  pass per lane on per-lane array copies.  Slowest, but it is the
  bit-exact oracle the SIMD path is differentially tested against.
* ``word`` — :class:`WordPackedBackend`: the
  :class:`~repro.magic.executor.WordPackedMagicExecutor` fast path
  packing the lanes into big-integer rows lane by lane (exactly
  ``batch * cols`` bits); the :data:`DEFAULT_BACKEND` of every batch
  path.

A backend is a factory pair: :meth:`ExecutorBackend.make_array` clones
a scalar template array into a batch-capable container and
:meth:`ExecutorBackend.make_executor` wraps it in the matching
executor.  Everything downstream (stage batch paths, the service
config, benchmarks) selects a backend by registry name through
:func:`get_backend`; per-lane results, cycle counts, write counters
and the batch's energy total are bit-identical across both, so the
choice only moves wall-clock simulation speed (only the scalar oracle
also reports energy per lane).

The paper's closed-form cycle counts are a property of the *programs*,
not the backend — every backend replays the same compiled program and
ticks the same clock histogram, so Sec. IV latency/energy numbers are
reproducible under either.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.crossbar.array import CrossbarArray, WordPackedCrossbarArray
from repro.magic.executor import (
    CompiledProgram,
    LaneRuns,
    MagicExecutor,
    WordPackedMagicExecutor,
    _tick_batch,
    check_bindings,
)
from repro.sim.clock import Clock
from repro.sim.stats import RunStats
from repro.telemetry import spans


class ExecutorBackend:
    """Strategy interface for batched MAGIC execution.

    Concrete backends provide two factories; everything else (compiled
    programs, stage fold-back of writes/energy, telemetry) is shared
    machinery that only touches the uniform array/executor surface:
    ``reset_to_ones`` / ``repin_faults`` / ``writes`` /
    ``total_energy_fj`` / ``snapshot(lane)`` on arrays, and
    ``execute(compiled, bindings)`` on executors: *bindings* a
    :class:`~repro.magic.executor.LaneRows` or one dict per lane, the
    result a :class:`~repro.magic.executor.LaneRuns`.
    """

    #: Registry name (``"scalar"`` / ``"word"``).
    name: str = ""

    def make_array(
        self, template: CrossbarArray, batch: int, row_map=None
    ):
        """Clone *template*'s state/faults/remap into a batch container.

        *row_map* overrides the logical -> physical word lines the
        lanes address (default: the template's spare-row remap)."""
        raise NotImplementedError

    def make_executor(self, array, clock=None, fault_hook=None):
        """Wrap a :meth:`make_array` product in the matching executor."""
        raise NotImplementedError

    def fold_writes(self, array, compiled, lanes, groups) -> None:
        """Add the write pulses of a replay whose lanes all pulsed the
        same cells to the stage *array*: per ``(rows, size)`` group,
        *size* times one lane's pulses, landed on the physical *rows*
        (one per logical row).  This default reads them back from the
        lanes' own counters."""
        logical = lanes.writes[array._row_map]
        for rows, size in groups:
            array.writes[rows] += logical * size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class ScalarLaneArray:
    """Batch of independent scalar array copies (the oracle layout).

    Exposes the same accounting surface as the SIMD containers so the
    stage batch paths can fold counters back uniformly: ``writes`` has
    per-lane semantics (every lane pulses identically, lane 0 is
    reported).  Unlike the word array, which counts one energy total,
    the oracle keeps per-lane energy: ``energy_fj`` is the per-lane
    vector and ``total_energy_fj()`` its sum.
    """

    def __init__(self, lanes: List[CrossbarArray]):
        if not lanes:
            raise ValueError("ScalarLaneArray needs at least one lane")
        self.lanes = lanes
        first = lanes[0]
        self.batch = len(lanes)
        self.rows = first.rows
        self.cols = first.cols
        self.spare_rows = first.spare_rows
        self.device = first.device
        self.strict_magic = first.strict_magic

    @classmethod
    def from_scalar(
        cls, array: CrossbarArray, batch: int, row_map=None
    ) -> "ScalarLaneArray":
        row_map = array._row_map if row_map is None else row_map
        lanes = []
        for _ in range(batch):
            lane = CrossbarArray(
                array.rows,
                array.cols,
                device=array.device,
                strict_magic=array.strict_magic,
                spare_rows=array.spare_rows,
            )
            lane.state[:] = array.state
            lane._faults = dict(array._faults)
            lane._row_map = list(row_map)
            lane._spares_free = list(array._spares_free)
            lane._apply_faults()
            lanes.append(lane)
        return cls(lanes)

    @property
    def phys_rows(self) -> int:
        return self.rows + self.spare_rows

    def physical_row(self, row: int) -> int:
        return self.lanes[0].physical_row(row)

    @property
    def writes(self) -> np.ndarray:
        """Per-lane write counters (lane 0; placement is data-independent)."""
        return self.lanes[0].writes

    @property
    def energy_fj(self) -> np.ndarray:
        """Per-lane accumulated energy, ``(batch,)`` float64."""
        return np.array([lane.energy_fj for lane in self.lanes])

    def total_energy_fj(self) -> float:
        return float(self.energy_fj.sum())

    def max_writes(self) -> int:
        return self.lanes[0].max_writes()

    def total_writes(self) -> int:
        return self.lanes[0].total_writes()

    @property
    def faults(self):
        return self.lanes[0].faults

    def inject_fault(self, row: int, col: int, kind: str) -> None:
        for lane in self.lanes:
            lane.inject_fault(row, col, kind)

    def repin_faults(self) -> None:
        for lane in self.lanes:
            lane.repin_faults()

    def reset_to_ones(self) -> None:
        for lane in self.lanes:
            lane.state[:] = True

    def snapshot(self, lane: int) -> np.ndarray:
        return self.lanes[lane].snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScalarLaneArray({self.batch}x{self.rows}x{self.cols})"


class ScalarLaneExecutor:
    """Oracle batch executor: one scalar pass per lane, lock-step clock.

    Each lane runs through a fresh :class:`MagicExecutor` with a
    throwaway clock and the telemetry tracer paused; the shared clock
    then advances once by the program's cycle histogram and records one
    ``magic.program`` span, matching the SIMD backend's lock-step
    semantics.  Slow by construction — this is the reference the fast
    path is differentially tested against, not a production path.
    """

    def __init__(
        self,
        array: ScalarLaneArray,
        clock: Optional[Clock] = None,
        fault_hook=None,
    ):
        self.array = array
        self.clock = clock if clock is not None else Clock()
        self.fault_hook = fault_hook

    def compile(self, program) -> CompiledProgram:
        return program.compiled(self.array.rows, self.array.cols)

    def execute(self, program, bindings) -> LaneRuns:
        """Run every lane on its own scalar executor; *bindings* as in
        :meth:`WordPackedMagicExecutor.execute` (a :class:`LaneRows` is
        split into its lanes).  The lanes' results are packed into the
        returned runs' rows; each lane keeps its own stats."""
        compiled = (
            program
            if isinstance(program, CompiledProgram)
            else self.compile(program)
        )
        array = self.array
        check_bindings(compiled, bindings, array.rows, array.cols, array.batch)
        stats_list: List[RunStats] = []
        tracer = spans.install(None)
        try:
            for lane, lane_bindings in zip(array.lanes, bindings):
                executor = MagicExecutor(
                    lane, clock=Clock(), fault_hook=self.fault_hook
                )
                stats_list.append(
                    executor.execute(compiled.program, lane_bindings)
                )
        finally:
            spans.install(tracer)
        _tick_batch(self.clock, compiled, array.batch)
        return LaneRuns.of(stats_list, array.cols)


class ScalarBackend(ExecutorBackend):
    """Per-lane scalar replay — the bit-exact differential oracle."""

    name = "scalar"

    def make_array(
        self, template: CrossbarArray, batch: int, row_map=None
    ) -> ScalarLaneArray:
        return ScalarLaneArray.from_scalar(template, batch, row_map)

    def make_executor(self, array, clock=None, fault_hook=None):
        return ScalarLaneExecutor(array, clock=clock, fault_hook=fault_hook)


class WordPackedBackend(ExecutorBackend):
    """Big-integer SIMD replay over lane-major rows."""

    name = "word"

    def make_array(
        self, template: CrossbarArray, batch: int, row_map=None
    ) -> WordPackedCrossbarArray:
        return WordPackedCrossbarArray.from_scalar(template, batch, row_map)

    def make_executor(self, array, clock=None, fault_hook=None):
        return WordPackedMagicExecutor(
            array, clock=clock, fault_hook=fault_hook
        )

    def fold_writes(self, array, compiled, lanes, groups) -> None:
        """Pulse placement is data-independent: each group adds the
        program's cached physical delta for its rows, one in-place add."""
        lowered = compiled.word
        for rows, size in groups:
            delta = lowered.writes_delta(tuple(rows), array.phys_rows)
            array.writes += delta if size == 1 else delta * size


#: Registry of selectable backends (aliases included).
BACKENDS: Dict[str, ExecutorBackend] = {}
for _backend in (ScalarBackend(), WordPackedBackend()):
    BACKENDS[_backend.name] = _backend
BACKENDS["word-packed"] = BACKENDS["word"]

#: Names accepted by configuration surfaces (canonical spellings only).
BACKEND_NAMES = ("scalar", "word")

#: Backend every batch path uses unless told otherwise: the word-packed
#: replay (the scalar oracle is hundreds of times slower).
DEFAULT_BACKEND = "word"


def backend_name(spec) -> str:
    """Canonical name of a backend spec, aliases normalised.

    Design-point keys and compiled-program cache variants embed this
    so alias spellings (``"word-packed"`` vs ``"word"``) can never
    mint distinct cache entries for the same backend.
    """
    return get_backend(spec).name


def get_backend(spec) -> ExecutorBackend:
    """Resolve *spec* — a registry name or backend instance — to a backend.

    Accepts canonical names (``"scalar"``, ``"word"``), the alias
    ``"word-packed"``, or an :class:`ExecutorBackend` instance
    (returned as-is).
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    if isinstance(spec, str):
        backend = BACKENDS.get(spec.lower())
        if backend is not None:
            return backend
        raise ValueError(
            f"unknown executor backend {spec!r}; "
            f"choose from {sorted(set(BACKENDS))}"
        )
    raise TypeError(
        f"backend must be a name or ExecutorBackend, got {type(spec).__name__}"
    )
