"""Run-time span recording around the public functions of each layer.

:class:`SpanRecorder` replaces a set of functions and methods of the
``repro`` package with timing wrappers, from the benchmark's side: no
file under ``src/`` changes.  Each call becomes one span with a name, a
start and an end, the span that caused it and the root span of its
batch.  A span's self time is its duration minus the time of the spans
nested in it, so the self times of one thread add up to the time its
root spans cover.  Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    #: work units of the call (inputs of a batched replay, cycles of a run)
    units: int


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, units):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            root = parent[1] if parent is not None else span_id
            # [id, root id, time covered by child spans]
            frame = [span_id, root, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                recorder.spans.append(
                    Span(
                        span_id, parent[0] if parent else None, root,
                        name, threading.get_ident(), start, end,
                        duration - frame[2],
                        units(args, result) if units else 1,
                    )
                )

        return wrapper

    def wrap_method(self, owner, attr: str, name: str, units=None) -> None:
        """Wrap a method of a class, or a callable stored on an instance."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, name, units))
        self._restore.append((owner, attr, original))

    def wrap_function(self, module, attr: str, name: str, units=None):
        """Wrap a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, units)
        for mod in list(sys.modules.values()):
            if (
                getattr(mod, "__name__", "").startswith("repro")
                and vars(mod).get(attr) is original
            ):
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self seconds, summed units."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "units": 0}
        )
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["units"] += span.units
        return dict(out)

    def write(self, path) -> None:
        """Write every recorded span as one JSON list."""
        with open(path, "w") as handle:
            json.dump(
                [
                    {
                        "id": s.id, "parent": s.parent, "root": s.root,
                        "name": s.name, "thread": s.thread,
                        "start_s": round(s.start, 7),
                        "end_s": round(s.end, 7),
                        "self_s": round(s.self_s, 7),
                        "units": s.units,
                    }
                    for s in self.spans
                ],
                handle,
            )


def install_layer_spans(recorder: SpanRecorder, server) -> None:
    """Wrap the public entry points of serve, resil, compiler, sim and nn.

    Span names are ``<layer>.<what>``.  ``worker`` names the two roots of
    the pool worker's loop: executing a batch (``ChipPool.execute_batch``)
    and the health check before the next one
    (``PoolWorker._health_flagged``).  Their self time is the worker time
    that no layer's span covers.  Forming the next batch
    (``batcher.next_batch``) is not covered: it is mostly waiting for
    requests.  ``server`` is the running ``InferenceServer``, whose
    outcome callback the pool holds as a bound method.
    """
    from repro.compiler import cachekey, runner
    from repro.compiler.api import StreamProgramBuilder
    from repro.nn import layers, scaleout, tsp_inference
    from repro.resil.health import HealthMonitor
    from repro.serve.cache import ProgramCache
    from repro.serve.pool import ChipPool, PoolWorker
    from repro.sim.chip import TspChip
    from repro.sim.multichip import MultiChipSystem
    from repro.sim.replay import ReplayPlan, ScheduleRecorder

    m, f = recorder.wrap_method, recorder.wrap_function
    m(ChipPool, "execute_batch", "worker")
    m(PoolWorker, "_health_flagged", "worker")
    m(PoolWorker, "execute", "serve.pool")
    m(server.pool, "on_outcome", "serve.observe")
    m(ProgramCache, "get_or_compile", "serve.cache")
    m(ProgramCache, "get_or_build", "serve.cache")
    m(HealthMonitor, "poll", "resil.health_poll")
    m(HealthMonitor, "poll_system", "resil.health_poll")
    f(cachekey, "graph_fingerprint", "compiler.fingerprint")
    f(tsp_inference, "build_chunk_builder", "compiler.graph_build")
    m(StreamProgramBuilder, "compile", "compiler.compile")
    f(runner, "load_compiled", "compiler.load")
    f(runner, "bind_input", "compiler.bind")
    f(runner, "fetch_output", "compiler.fetch")
    f(runner, "execute", "compiler.execute")
    f(runner, "execute_batched", "compiler.execute")
    m(TspChip, "scrub", "sim.scrub")
    m(MultiChipSystem, "scrub", "sim.scrub")
    m(ReplayPlan, "replay_into", "sim.replay")
    m(ReplayPlan, "run_batched", "sim.replay_batched",
      units=lambda args, result: len(args[1]))
    m(TspChip, "run", "sim.simulate",
      units=lambda args, result: result.cycles if result else 0)
    m(ScheduleRecorder, "finish", "sim.record_finish")
    m(MultiChipSystem, "run", "sim.transfer")
    f(layers, "im2col", "nn.im2col")
    m(tsp_inference.TspCnnRunner, "forward", "nn.runner")
    m(tsp_inference.TspCnnRunner, "apply_layer", "nn.runner")
    f(scaleout, "execute_pipeline", "nn.runner")
