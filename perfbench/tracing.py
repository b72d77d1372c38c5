"""In-memory spans around calls into each layer's functions.

The traced run replaces selected functions and methods of the program
with thin wrappers that record ``(id, parent, name, start, end, size,
extra)`` per call in a :class:`SpanLog`, then attributes time with
:func:`split`.  Nothing under ``src/`` changes: the wrappers are
installed from here, in the benchmark process (batch workloads) or in
the serve daemon before it boots (``serve_daemon.py``).

Span names are ``<layer>.<part>``; the layer is the repository module
group the wrapped code lives in (see ``LAYERS``).  A span's *self* time
is its duration minus the durations of its direct children.  Spans nest
per thread, so along one thread the self times of all spans under a root
add up to the root's duration minus the root's own self time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Layer → the modules whose calls are attributed to it.
LAYERS = {
    "population": ("repro.population.sampler",),
    "kernels": ("repro.core.kernels",),
    "equilibrium": ("repro.core.equilibrium",),
    "dtu": ("repro.core.dtu",),
    "workload": ("repro.workload.schedule", "repro.workload.tracking"),
    "multiedge": ("repro.core.multiedge",),
    "net": ("repro.net.clock", "repro.net.transport", "repro.net.actors",
            "repro.net.sharded"),
    "serve": ("repro.serve.httpd", "repro.serve.service",
              "repro.serve.wallclock", "repro.utils.httpd"),
}

#: Root spans the benchmark opens around its own set-up and op calls.
SETUP = "bench.setup"
OP = "bench.op"

#: (id, parent id or 0, name, wall start, wall end, size, extra counts,
#: thread CPU seconds or 0.0)
Span = Tuple[int, int, str, float, float, int, Optional[dict], float]


class SpanLog:
    """Spans kept in memory; parents are tracked per thread.

    ``cpu=True`` also records each span's thread CPU time.  Where several
    threads run at once (the serve daemon's handler and loop threads),
    wall-clock spans double-count the time one thread waits for the
    interpreter lock another holds; CPU time does not.
    """

    def __init__(self, cpu: bool = False):
        self.spans: List[Span] = []
        self.cpu = cpu
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             sizer: Optional[Callable] = None,
             extras: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else 0
        size = sizer(args, kwargs) if sizer is not None else 1
        stack.append(span_id)
        cpu = time.thread_time() if self.cpu else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.cpu:
                cpu = time.thread_time() - cpu
            stack.pop()
        extra = extras(args, result) if extras is not None else None
        self.spans.append((span_id, parent, name, start, end, int(size),
                           extra, cpu))
        return result

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """A benchmark-owned root span (set-up or op) around ``fn``."""
        return self.call(name, fn, args, kwargs)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @staticmethod
    def load(path) -> List[Span]:
        with open(path, encoding="utf-8") as handle:
            return [tuple(json.loads(line)) for line in handle if line.strip()]


# -- wrapper installation ----------------------------------------------------

def _population_size(args, kwargs) -> int:
    return args[0].population.size


def _batch_size(args, kwargs) -> int:
    return int(np.size(args[1]))


def _mailbox_depth(args, kwargs) -> int:
    return len(args[0].mailbox)


def _iterations(args, result) -> dict:
    return {"iterations": int(result.iterations)}


def _tracking(args, result) -> dict:
    return {"steps": int(result.steps), "retargets": int(result.retargets)}


def _sharded(args, result) -> dict:
    log = result.log
    return {
        "events": int(result.events_fired),
        "messages_sent": int(log.attempted),
        "messages_delivered": int(log.count("delivered")),
        "rounds": int(np.sum(result.rounds)),
        "migrations": int(result.migrations),
    }


def _decide(args, result) -> dict:
    return {"decisions": len(result["decisions"])}


# (module, qualified attribute, span name, sizer, extras)
Target = Tuple[str, str, str, Optional[Callable], Optional[Callable]]

KERNEL_TARGETS: Sequence[Target] = (
    # A build is a construction (own tables or borrowed ones); the lazy
    # probe layout and lazy α/Q fill that follow on first use are "fill".
    # The fill entry points are private methods because that is where the
    # kernel does its deferred work.
    ("repro.core.kernels", "CompiledMeanField.__init__", "kernels.build",
     None, None),
    ("repro.core.kernels", "CompiledMeanField.with_shared_tables",
     "kernels.build", None, None),
    ("repro.core.kernels", "CompiledMeanField.materialize", "kernels.fill",
     None, None),
    ("repro.core.kernels", "CompiledMeanField._ensure_probe_layout",
     "kernels.fill", None, None),
    ("repro.core.kernels", "CompiledMeanField._ensure_entries",
     "kernels.fill", None, None),
    ("repro.core.kernels", "CompiledMeanField.thresholds", "kernels.probe",
     _population_size, None),
    ("repro.core.kernels", "CompiledMeanField.user_thresholds",
     "kernels.probe", _batch_size, None),
    ("repro.core.kernels", "CompiledMeanField.user_threshold",
     "kernels.probe", None, None),
    ("repro.core.kernels", "CompiledMeanField.value", "kernels.value",
     _population_size, None),
    ("repro.core.kernels", "CompiledMeanField.utilization", "kernels.gather",
     None, None),
    ("repro.core.kernels", "CompiledMeanField.user_costs", "kernels.gather",
     None, None),
    ("repro.core.kernels", "CompiledMeanField.user_alphas", "kernels.gather",
     _batch_size, None),
    ("repro.core.kernels", "CompiledMeanField.user_alpha", "kernels.gather",
     None, None),
    ("repro.core.dtu", "DtuStepper.update", "dtu.update", None, None),
)

BATCH_TARGETS: Sequence[Target] = KERNEL_TARGETS + (
    ("repro.population.sampler", "sample_population", "population.sample",
     None, None),
    ("repro.core.equilibrium", "solve_mfne", "equilibrium.solve", None,
     _iterations),
    ("repro.core.dtu", "run_dtu", "dtu.run", None, None),
    ("repro.workload.tracking", "track_equilibrium", "workload.track", None,
     _tracking),
    ("repro.workload.schedule", "ScheduleEngine.mean_field_at",
     "workload.mean_field_at", None, None),
    ("repro.workload.schedule", "ScheduleEngine.gamma_star",
     "workload.gamma_star", None, None),
    ("repro.core.multiedge", "MultiEdgeSystem.compile", "multiedge.compile",
     None, None),
    ("repro.core.multiedge", "MultiEdgeSystem.best_response",
     "multiedge.probe", None, None),
    ("repro.core.multiedge", "MultiEdgeSystem.site_loads", "multiedge.probe",
     None, None),
    ("repro.net.sharded", "run_sharded_dtu", "net.run", None, _sharded),
    # The sharded-net workload always injects loss, so every message
    # passes FaultyTransport.send (which hands delivered ones to the inner
    # LocalTransport); one span per message keeps the wrapper cost down.
    ("repro.net.transport", "FaultyTransport.send", "net.transport", None,
     None),
)

SERVE_TARGETS: Sequence[Target] = KERNEL_TARGETS + (
    ("repro.serve.httpd", "_Handler.do_POST", "serve.handle", None, None),
    ("repro.utils.httpd", "QuietHandler.parse_request", "serve.parse", None,
     None),
    ("repro.utils.httpd", "QuietHandler.read_json_body", "serve.parse", None,
     None),
    ("repro.utils.httpd", "QuietHandler.send_json", "serve.encode", None,
     None),
    ("repro.serve.service", "DecisionService.decide", "serve.decide", None,
     _decide),
    ("repro.serve.service", "DecisionService._ingest_reports",
     "serve.ingest", None, None),
    # The coordinator's once-per-round work: drain the queued reports,
    # measure γ, record the round.
    ("repro.net.actors", "EdgeCoordinator._drain", "serve.drain",
     _mailbox_depth, None),
    ("repro.serve.service", "ServingCoordinator._measure", "serve.measure",
     None, None),
    ("repro.net.actors", "EdgeCoordinator._record", "serve.measure", None,
     None),
)


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrapper(log: SpanLog, name: str, fn: Callable, sizer, extras):
    def traced(*args, **kwargs):
        return log.call(name, fn, args, kwargs, sizer, extras)
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.__doc__ = getattr(fn, "__doc__", None)
    traced.__wrapped__ = fn
    return traced


def install(log: SpanLog, targets: Iterable[Target]) -> Callable[[], None]:
    """Replace every target with a span-recording wrapper.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so callers inside the program reach
    the wrapper too.  Returns a callable that puts the originals back.
    """
    saved = []
    for module_name, qualname, name, sizer, extras in targets:
        owner, attr = _resolve(module_name, qualname)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                _wrapper(log, name, raw.__func__, sizer, extras))
        else:
            wrapped = _wrapper(log, name, raw, sizer, extras)
        homes = [owner]
        if inspect.ismodule(owner):
            homes += [module for module in list(sys.modules.values())
                      if module is not owner
                      and getattr(module, "__name__", "").startswith("repro.")
                      and getattr(module, attr, None) is raw]
        for home in homes:
            # An inherited method is shadowed, and unshadowed on restore.
            saved.append((home, attr, home.__dict__.get(attr, _ABSENT)))
            setattr(home, attr, wrapped)

    def restore() -> None:
        for home, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(home, attr)
            else:
                setattr(home, attr, original)
    return restore


_ABSENT = object()


# -- attribution ---------------------------------------------------------------

class Split:
    """Per-span-name totals below a set of roots."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.size: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self.child_calls: Dict[Tuple[str, str], int] = defaultdict(int)

    def layer_self(self, layer: str) -> float:
        return sum(value for name, value in self.self_s.items()
                   if name.split(".", 1)[0] == layer)


def merge(parts: Iterable[Split]) -> Split:
    """One split summing several (one per traced daemon)."""
    out = Split()
    for part in parts:
        for mine, theirs in ((out.self_s, part.self_s),
                             (out.calls, part.calls), (out.size, part.size),
                             (out.extra, part.extra),
                             (out.child_calls, part.child_calls)):
            for key, value in theirs.items():
                mine[key] += value
    return out


def split(spans: Sequence[Span], roots: Optional[Iterable[int]] = None,
          window: Optional[Tuple[float, float]] = None,
          cpu: bool = False) -> Split:
    """Attribute self time to span names.

    ``roots``: only spans descending from these span ids count (the
    benchmark's op spans).  ``window``: only spans starting inside
    ``[t0, t1]`` count (the serve daemon, which has no benchmark roots).
    ``cpu``: self times in thread CPU seconds instead of wall seconds.
    """
    def duration(span: Span) -> float:
        return span[7] if cpu else span[4] - span[3]

    by_id = {span[0]: span for span in spans}
    children = defaultdict(float)
    for span in spans:
        if span[1]:
            children[span[1]] += duration(span)
    keep_roots = set(roots) if roots is not None else None
    memo: Dict[int, bool] = {}

    def below_root(span_id: int) -> bool:
        trail = []
        verdict = False
        current = span_id
        while current:
            if current in memo:
                verdict = memo[current]
                break
            trail.append(current)
            parent = by_id[current][1] if current in by_id else 0
            if parent in keep_roots:
                verdict = True
                break
            current = parent
        for node in trail:
            memo[node] = verdict
        return verdict

    out = Split()
    for span in spans:
        span_id, parent, name, start, _, size, extra, _ = span
        if name in (SETUP, OP):
            continue
        if keep_roots is not None and not below_root(span_id):
            continue
        if window is not None and not window[0] <= start <= window[1]:
            continue
        out.self_s[name] += duration(span) - children[span_id]
        out.calls[name] += 1
        out.size[name] += size
        if parent in by_id:
            out.child_calls[(by_id[parent][2], name)] += 1
        for key, value in (extra or {}).items():
            out.extra[f"{name}.{key}"] += value
    return out
