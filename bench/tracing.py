"""Host-time spans around public entry points, for the traced run.

The benchmark records spans from its own files: :class:`SpanTracer`
patches each entry point of :data:`TARGETS` (resolved by dotted path)
with a wrapper that records name, start, end, parent (from a
thread-local stack) and the request ids the call carries.  Executor
entry points are discovered through ``get_backend(name)`` for every
``BACKEND_NAMES`` entry instead of by class name.  A target that no
longer resolves is reported in :attr:`SpanTracer.absent`, never raised,
so a refactor that deletes a class shows as a missing metric.

A layer's self time is its spans' duration minus the part their child
spans cover.  Only spans under a ``bench.pass`` root count towards the
pass's layer breakdown; setup runs under a ``bench.setup`` root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (layer, dotted path) of every wrapped entry point.  Nested calls of
#: one layer are fine: self time subtracts children of any layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("datapath.controller", "repro.karatsuba.pipeline.KaratsubaPipeline.run_stream"),
    ("datapath.controller", "repro.karatsuba.controller.KaratsubaController.run_jobs_batch"),
    ("datapath.controller", "repro.portfolio.toom3.Toom3Controller.run_jobs_batch"),
    ("datapath.precompute", "repro.karatsuba.precompute.PrecomputeStage.process_batch"),
    ("datapath.precompute", "repro.portfolio.toom3.EvaluationStage.process_batch"),
    ("datapath.postcompute", "repro.karatsuba.postcompute.PostcomputeStage.process_batch"),
    ("datapath.postcompute", "repro.portfolio.toom3.InterpolationStage.process_batch"),
    ("arith.multiply_stage", "repro.karatsuba.multiply.MultiplicationStage.process_batch"),
    ("arith.multiply_stage", "repro.portfolio.toom3.PointwiseStage.process_batch"),
    # The schoolbook design is one full-width row multiplier.
    ("arith.multiply_stage", "repro.portfolio.schoolbook.SchoolbookController.run_jobs_batch"),
    ("magic.compile", "repro.magic.executor.MagicExecutor.compile"),
    ("portfolio.resolve", "repro.portfolio.tuner.TuningTable.resolve"),
    ("service.construct", "repro.service.MultiplicationService.__init__"),
    ("service.admit", "repro.service.MultiplicationService.submit"),
    ("service.admit", "repro.service.MultiplicationService.submit_request"),
    ("service.deadline_estimate", "repro.service.MultiplicationService.min_latency_estimate_cc"),
    ("service.flush", "repro.service.degrade.DegradeController.execute"),
    ("service.clock", "repro.service.MultiplicationService.advance_to_cc"),
    ("service.clock", "repro.service.MultiplicationService.take_completed"),
    ("service.clock", "repro.service.MultiplicationService.drain"),
    ("service.clock", "repro.service.MultiplicationService.snapshot"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.__init__"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.start"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.submit"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.advance_to_cc"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.drain"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.snapshot"),
    ("frontend.self", "repro.frontend.AsyncShardedFrontend.close"),
    ("frontend.self", "repro.frontend.shards.InlineShard.send"),
    ("workloads.serve", "repro.workloads.CryptoWorkloadEngine.__init__"),
    ("workloads.serve", "repro.workloads.CryptoWorkloadEngine.serve_cohort"),
    ("workloads.serve", "repro.workloads.CryptoWorkloadEngine.serve_msm"),
)

#: Layers of the entry points wrapped on every registered backend:
#: ``make_array``, and ``execute`` / ``compile`` of each executor that
#: ``make_executor`` returns.
BACKEND_LAYERS = ("crossbar.make_array", "magic.execute", "magic.compile")

ROOT_LAYER = "bench.self"


@dataclass
class Span:
    name: str
    layer: str
    start_ns: int
    parent: int
    end_ns: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


def _request_args(args: tuple, kwargs: dict) -> Dict[str, Any]:
    """``request_id`` / ``request_ids`` carried by a call, if any."""
    found: Dict[str, Any] = {}
    ids = kwargs.get("request_ids")
    if ids:
        found["request_ids"] = list(ids)
    for value in args:
        rid = getattr(value, "request_id", None)
        if isinstance(rid, int):
            found["request_id"] = rid
        elif isinstance(value, (list, tuple)) and value and hasattr(
            value[0], "request_id"
        ):
            found["request_ids"] = [item.request_id for item in value]
    return found


def _no_args(args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {}


def _execute_args(args: tuple, kwargs: dict) -> Dict[str, Any]:
    """Lanes replayed and the program's cycle count of one execute."""
    program = args[0] if args else kwargs.get("program")
    bindings = args[1] if len(args) > 1 else kwargs.get("bindings_list", ())
    lanes = len(bindings)
    cycles = getattr(program, "cycle_count", 0)
    return {"lanes": lanes, "lane_cc": lanes * cycles}


class SpanTracer:
    """Records host-time spans while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Dotted paths that did not resolve at the last install.
        self.absent: List[str] = []
        #: Layers with at least one wrapped entry point.
        self.installed: set = set()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, args: Dict[str, Any]) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            Span(name, layer, time.perf_counter_ns(),
                 stack[-1] if stack else -1, args=args)
        )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A root span of the benchmark itself around the block."""
        index = self.open(name, ROOT_LAYER, {})
        try:
            yield
        finally:
            self.close(index)

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        describe: Callable[[tuple, dict], Dict[str, Any]] = _request_args,
        skip_self: bool = True,
    ) -> Callable:
        """*fn* wrapped in a span; ``skip_self`` drops a bound ``self``."""
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer.open(
                    name, layer, describe(args[skip_self:], kwargs)
                )
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(index)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name, layer, describe(args[skip_self:], kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Patch every resolvable target; unresolvable ones go to absent."""
        self.absent = []
        self.installed = set()
        for layer, path in TARGETS:
            owner, attr = _resolve_owner(path)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(path)
                continue
            self.installed.add(layer)
            span_name = ".".join(path.split(".")[-2:])
            if attr in owner.__dict__:
                original = owner.__dict__[attr]
                restore = functools.partial(setattr, owner, attr, original)
            else:  # inherited: shadow it, then drop the shadow
                original = getattr(owner, attr)
                restore = functools.partial(delattr, owner, attr)
            setattr(owner, attr, self.wrap(original, span_name, layer))
            self._restore.append(restore)
        self._install_backends()

    def _install_backends(self) -> None:
        try:
            backend_mod = importlib.import_module("repro.magic.backend")
            names = backend_mod.BACKEND_NAMES
            get_backend = backend_mod.get_backend
        except (ImportError, AttributeError):
            self.absent.append("repro.magic.backend.get_backend")
            return
        for name in names:
            backend = get_backend(name)
            make_array = backend.make_array
            make_executor = backend.make_executor
            backend.make_array = self.wrap(
                make_array, f"{name}.make_array", "crossbar.make_array",
                describe=_no_args, skip_self=False,
            )
            backend.make_executor = self._executor_factory(name, make_executor)
            self.installed.update(BACKEND_LAYERS)
            self._restore.append(
                functools.partial(_drop_instance_attrs, backend,
                                  ("make_array", "make_executor"))
            )

    def _executor_factory(self, backend: str, make_executor: Callable):
        tracer = self

        @functools.wraps(make_executor)
        def traced_make_executor(*args, **kwargs):
            executor = make_executor(*args, **kwargs)
            executor.execute = tracer.wrap(
                executor.execute, f"{backend}.execute", "magic.execute",
                describe=_execute_args, skip_self=False,
            )
            executor.compile = tracer.wrap(
                executor.compile, f"{backend}.compile", "magic.compile",
                describe=_no_args, skip_self=False,
            )
            return executor

        return traced_make_executor

    @property
    def absent_layers(self) -> set:
        """Layers none of whose entry points resolved."""
        known = {layer for layer, _ in TARGETS} | set(BACKEND_LAYERS)
        return known - self.installed

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis --------------------------------------------------------
    def layer_breakdown(self, root_name: str) -> "Breakdown":
        """Per-layer self time over every span under *root_name* roots."""
        inside = [False] * len(self.spans)
        child_ns = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                inside[index] = inside[span.parent]
                child_ns[span.parent] += span.dur_ns
            else:
                inside[index] = span.name == root_name
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        wall_ns = 0
        lanes = lane_cc = 0
        for index, span in enumerate(self.spans):
            if not inside[index]:
                continue
            if span.parent < 0:
                wall_ns += span.dur_ns
            own = span.dur_ns - child_ns[index]
            self_ns[span.layer] = self_ns.get(span.layer, 0) + own
            calls[span.layer] = calls.get(span.layer, 0) + 1
            if span.layer == "magic.execute":
                lanes += span.args.get("lanes", 0)
                lane_cc += span.args.get("lane_cc", 0)
        return Breakdown(wall_ns, self_ns, calls, lanes, lane_cc)

    def write_chrome_trace(self, path: Path, process_name: str) -> None:
        """Write the spans as a Chrome / Perfetto JSON trace."""
        origin = min((s.start_ns for s in self.spans), default=0)
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": process_name}},
        ]
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1000.0,
                "dur": span.dur_ns / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": span.args,
            })
        path.write_text(json.dumps({"traceEvents": events}))


@dataclass
class Breakdown:
    """Self time per layer under one kind of root span."""

    wall_ns: int
    self_ns: Dict[str, int]
    calls: Dict[str, int]
    lanes: int
    lane_cc: int

    @property
    def coverage(self) -> float:
        """Share of wall time spent inside a layer span (not the root)."""
        if not self.wall_ns:
            return 0.0
        return 1.0 - self.self_ns.get(ROOT_LAYER, 0) / self.wall_ns

    def share(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / self.wall_ns if self.wall_ns else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_ns / 1e9,
            "coverage": self.coverage,
            "layers": {
                layer: {
                    "self_s": ns / 1e9,
                    "share": self.share(layer),
                    "calls": self.calls.get(layer, 0),
                }
                for layer, ns in sorted(self.self_ns.items())
            },
        }


def _resolve_owner(path: str) -> Tuple[Optional[Any], str]:
    """(object owning the final attribute, attribute name) of *path*."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
        except AttributeError:
            return None, parts[-1]
        return owner, parts[-1]
    return None, parts[-1]


def _drop_instance_attrs(obj: Any, names: Tuple[str, ...]) -> None:
    for name in names:
        obj.__dict__.pop(name, None)
