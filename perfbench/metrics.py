"""Every metric the benchmark reports: name → (unit, better).

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the
two in step.  Every workload reports every metric of its mode; a
per-layer metric of a layer the workload never enters reads 0.
"""

from __future__ import annotations

import gc
from typing import Dict, Tuple

import numpy as np

END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_s": ("s", "lower"),
    "decisions_per_s": ("1/s", "higher"),
}

_S = ("s", "lower")
_COUNT = ("count", "lower")

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "trace.op_s": _S,
    "unattributed_s": _S,
    "trace.overhead_s": _S,
    "population.sample_s": _S,
    "kernels.self_s": _S,
    "kernels.probe_s": _S,
    "kernels.probe_users": _COUNT,
    "kernels.value_s": _S,
    "kernels.value_calls": _COUNT,
    "kernels.gather_s": _S,
    "kernels.builds": _COUNT,
    "kernels.build_s": _S,
    "kernels.setup_build_s": _S,
    "kernels.table_bytes": ("bytes", "lower"),
    "equilibrium.self_s": _S,
    "equilibrium.iterations": _COUNT,
    "dtu.self_s": _S,
    "dtu.iterations": _COUNT,
    "workload.self_s": _S,
    "workload.steps": _COUNT,
    "workload.retargets": _COUNT,
    "workload.gamma_star_solves": _COUNT,
    "multiedge.self_s": _S,
    "multiedge.compile_s": _S,
    "multiedge.probe_s": _S,
    "net.self_s": _S,
    "net.transport_s": _S,
    "net.events": _COUNT,
    "net.messages_sent": _COUNT,
    "net.messages_delivered": ("count", "higher"),
    "net.rounds": _COUNT,
    "net.migrations": _COUNT,
    "serve.self_s": _S,
    "serve.requests": ("count", "higher"),
    "serve.decisions": ("count", "higher"),
    "serve.shed": _COUNT,
    "serve.errors": _COUNT,
    "serve.rounds": _COUNT,
    "serve.parse_s": _S,
    "serve.decide_s": _S,
    "serve.probe_s": _S,
    "serve.encode_s": _S,
    "serve.ingest_s": _S,
    "serve.measure_s": _S,
    "serve.measure_max_s": _S,
    "serve.reports_per_round": _COUNT,
    "serve.slow_in_measure": ("ratio", "lower"),
}

#: Layers whose self times, with ``unattributed_s``, add up to
#: ``trace.op_s``.  Population sampling is input generation and happens
#: before any op.
OP_LAYERS = ("kernels", "equilibrium", "dtu", "workload", "multiedge",
             "net", "serve")


def table_bytes() -> int:
    """Bytes held in arrays by every live compiled kernel.

    Computed from array sizes (``nbytes`` of each distinct base array a
    kernel object references), not from RSS; kernels that share tables
    count them once.
    """
    from repro.core.kernels import CompiledMeanField

    seen = {}
    for obj in gc.get_objects():
        if not isinstance(obj, CompiledMeanField):
            continue
        for value in vars(obj).values():
            if not isinstance(value, np.ndarray):
                continue
            base = value
            while isinstance(base.base, np.ndarray):
                base = base.base
            seen[id(base)] = base.nbytes
    return int(sum(seen.values()))


def from_split(split, per: float) -> Dict[str, float]:
    """Per-layer metrics a span split yields, divided by ``per`` ops."""
    s, calls, size, extra = split.self_s, split.calls, split.size, split.extra
    values = {
        "kernels.probe_s": s["kernels.probe"],
        "kernels.probe_users": size["kernels.probe"] + size["kernels.value"],
        "kernels.value_s": s["kernels.value"],
        "kernels.value_calls": calls["kernels.value"],
        "kernels.gather_s": s["kernels.gather"],
        "kernels.builds": calls["kernels.build"],
        "kernels.build_s": s["kernels.build"] + s["kernels.fill"],
        "equilibrium.iterations": extra["equilibrium.solve.iterations"],
        "dtu.iterations": calls["dtu.update"],
        "workload.steps": extra["workload.track.steps"],
        "workload.retargets": extra["workload.track.retargets"],
        "workload.gamma_star_solves": split.child_calls[
            ("workload.gamma_star", "equilibrium.solve")],
        "multiedge.compile_s": s["multiedge.compile"],
        "multiedge.probe_s": s["multiedge.probe"],
        "net.transport_s": s["net.transport"],
        "net.events": extra["net.run.events"],
        "net.messages_sent": extra["net.run.messages_sent"],
        "net.messages_delivered": extra["net.run.messages_delivered"],
        "net.rounds": extra["net.run.rounds"],
        "net.migrations": extra["net.run.migrations"],
        "serve.requests": calls["serve.decide"],
        "serve.decisions": extra["serve.decide.decisions"],
        "serve.rounds": calls["serve.drain"],
        "serve.parse_s": s["serve.parse"],
        "serve.decide_s": s["serve.decide"],
        # Inside the daemon every kernel call is a /decide probe or gather.
        "serve.probe_s": (s["kernels.probe"] + s["kernels.gather"]
                          if calls["serve.decide"] else 0.0),
        "serve.encode_s": s["serve.encode"],
        "serve.ingest_s": s["serve.ingest"],
        "serve.measure_s": s["serve.drain"] + s["serve.measure"],
    }
    for layer in OP_LAYERS:
        values[f"{layer}.self_s"] = split.layer_self(layer)
    return {name: value / per for name, value in values.items()}
