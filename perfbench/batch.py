"""The in-process workloads: ``solve``, ``track`` and ``sharded-net``.

Each workload draws its population from the seed, then repeats
``set-up → op → checks`` until the run's seconds are spent.  Only the
set-up and the op are timed; checks run afterwards.  The program is
reached only through its public functions, called through their modules
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from perfbench import checks, metrics, stats, tracing

SCENARIO = "paper-theoretical"
MFNE_TOLERANCE = 1e-10            # solve_mfne's default bracket width
TRACK_STEPS = 120
TRACK_LEVELS = 12
TRACK_CHECKPOINT_EVERY = 5
TRACK_PERIOD = 40.0


@dataclass
class Workload:
    """How one workload draws inputs, sets up, runs and checks an op."""

    inputs: Callable[[int], Any]
    setup: Callable[[Any, int], Any]
    op: Callable[[Any, Any, int], Any]
    check: Callable[[Any, Any], List[str]]
    counts: Callable[[Any], dict]
    decisions: Callable[[Any, Any], int]
    #: Set-ups far below a millisecond are repeated so that their median
    #: rests on enough samples to be steady.
    setup_repeats: int = 1


def _population(n_users: int, seed: int):
    from repro.population import sampler, scenarios
    return sampler.sample_population(scenarios.build_scenario(SCENARIO),
                                     n_users, rng=seed)


# -- solve ------------------------------------------------------------------

def _solve_setup(pop, seed):
    from repro.core import kernels
    return kernels.compile_mean_field(pop)


def _solve_op(pop, kernel, seed):
    from repro.core import dtu, equilibrium
    return kernel, equilibrium.solve_mfne(kernel), dtu.run_dtu(kernel)


def _solve_check(pop, result) -> List[str]:
    from repro.core.dtu import DtuConfig
    kernel, mfne, run = result
    return checks.check_solve(kernel, mfne, run, MFNE_TOLERANCE,
                              DtuConfig().tolerance)


def _solve_counts(result) -> dict:
    _, mfne, run = result
    return {"mfne_iterations": mfne.iterations,
            "mfne_evaluated": len(mfne.history),
            "dtu_iterations": run.iterations,
            "gamma_star": mfne.utilization,
            "gamma_hat": run.estimated_utilization}


# -- track ------------------------------------------------------------------

def _track_inputs(seed):
    from repro.workload import schedule, tracking
    scenario = schedule.build_workload_scenario("diurnal",
                                                period=TRACK_PERIOD)
    config = tracking.TrackingConfig(steps=TRACK_STEPS, levels=TRACK_LEVELS,
                                     checkpoint_every=TRACK_CHECKPOINT_EVERY)
    return _population(100_000, seed), scenario, config


def _track_setup(inputs, seed):
    from repro.workload import schedule
    pop, scenario, config = inputs
    return schedule.ScheduleEngine(pop, scenario,
                                   horizon=config.steps * config.dt,
                                   seed=seed, levels=config.levels)


def _track_op(inputs, engine, seed):
    from repro.workload import tracking
    pop, scenario, config = inputs
    return tracking.track_equilibrium(pop, scenario, config, seed=seed,
                                      engine=engine)


def _track_counts(result) -> dict:
    return {"steps": result.steps, "retargets": result.retargets,
            "checkpoints": int(result.lag.size),
            "final_lag": result.final_lag, "max_lag": result.max_lag,
            "gamma_star": [float(g) for g in result.gamma_star]}


# -- sharded-net --------------------------------------------------------------

def _sharded_setup(pop, seed):
    from repro.core import multiedge
    # Kernels compile inside the op (run_sharded_dtu compiles them), so
    # multiedge.compile_s lands on converge time, not on set-up.
    return multiedge.MultiEdgeSystem(pop, multiedge.tiered_sites(4),
                                     rng=seed, compile_kernels=False)


def _sharded_op(pop, system, seed):
    from repro.net import sharded, transport
    config = sharded.ShardedNetConfig(
        faults=transport.FaultConfig(loss=0.1), log_messages=False,
        seed=seed)
    return sharded.run_sharded_dtu(system, config)


def _sharded_counts(result) -> dict:
    log = result.log
    return {"events": result.events_fired,
            "messages_sent": log.attempted,
            "messages_delivered": log.count("delivered"),
            "rounds": result.rounds.tolist(),
            "iterations": result.iterations.tolist(),
            "migrations": result.migrations,
            "gamma_hat": result.estimated_utilizations.tolist()}


WORKLOADS: Dict[str, Workload] = {
    "solve": Workload(
        inputs=lambda seed: _population(100_000, seed),
        setup=_solve_setup, op=_solve_op, check=_solve_check,
        counts=_solve_counts,
        # Every user leaves with one certified threshold.
        decisions=lambda pop, result: pop.size),
    "track": Workload(
        inputs=_track_inputs, setup=_track_setup, op=_track_op,
        check=lambda inputs, result: checks.check_track(result, TRACK_STEPS),
        counts=_track_counts,
        # Every step re-prices every user.
        decisions=lambda inputs, result: inputs[0].size * result.steps,
        setup_repeats=25),
    "sharded-net": Workload(
        inputs=lambda seed: _population(2_000, seed),
        setup=_sharded_setup, op=_sharded_op,
        check=lambda pop, result: checks.check_sharded(result),
        counts=_sharded_counts,
        decisions=lambda pop, result: pop.size,
        setup_repeats=25),
}


@dataclass
class Run:
    """What one invocation measured."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


@dataclass
class _Op:
    setup_s: List[float]
    op_s: float
    cpu_s: float
    decisions: int
    table_bytes: int = 0


def _one_op(workload: Workload, inputs, seed: int, repeat: checks.RepeatCheck,
            run: Run, log: Optional[tracing.SpanLog]) -> _Op:
    gc.collect()
    setup_s = []
    ctx = None
    for _ in range(workload.setup_repeats):
        ctx = None
        started = time.perf_counter()
        if log is None:
            ctx = workload.setup(inputs, seed)
        else:
            ctx = log.root(tracing.SETUP, workload.setup, inputs, seed)
        setup_s.append(time.perf_counter() - started)
    gc.collect()
    cpu = time.process_time()
    started = time.perf_counter()
    if log is None:
        result = workload.op(inputs, ctx, seed)
    else:
        result = log.root(tracing.OP, workload.op, inputs, ctx, seed)
    op_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu

    run.attempted += 1
    problems = workload.check(inputs, result)
    problems += repeat.check(workload.counts(result))
    if problems:
        run.failed += 1
        run.problems += [f"op {run.attempted}: {p}" for p in problems]
    record = _Op(setup_s, op_s, cpu_s, workload.decisions(inputs, result))
    if log is not None:
        record.table_bytes = metrics.table_bytes()
    return record


def run(name: str, seed: int, seconds: float, traced: bool,
        repeat: checks.RepeatCheck) -> Run:
    workload = WORKLOADS[name]
    result = Run()
    _import_program()
    started = time.perf_counter()
    inputs = workload.inputs(seed)
    sample_s = time.perf_counter() - started

    ops: List[_Op] = []
    traced_ops: List[_Op] = []
    log = tracing.SpanLog()
    begin = time.perf_counter()
    while True:
        ops.append(_one_op(workload, inputs, seed, repeat, result, None))
        if traced:
            # Traced and untraced ops alternate, so trace.overhead_s
            # compares ops run under the same conditions.
            restore = tracing.install(log, tracing.BATCH_TARGETS)
            try:
                traced_ops.append(_one_op(workload, inputs, seed, repeat,
                                          result, log))
            finally:
                restore()
        if time.perf_counter() - begin >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    op_times = [op.op_s for op in ops]
    setups = [s for op in ops for s in op.setup_s]
    cpu = [op.cpu_s for op in ops]
    result.notes.append(
        f"{len(ops)} untraced ops; op_s quartiles "
        + " / ".join(f"{q:.4f}" for q in stats.quartiles(op_times))
        + f"; median cpu_s {stats.median(cpu):.4f} "
        f"(wall − cpu {stats.median(op_times) - stats.median(cpu):+.4f}); "
        f"{len(setups)} set-ups")
    if not traced:
        result.metrics = {
            "setup_s": stats.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "op_s": stats.median(op_times),
            "decisions_per_s": stats.median(
                [op.decisions / op.op_s for op in ops]),
        }
        return result

    spans = log.spans
    op_roots = [s[0] for s in spans if s[2] == tracing.OP]
    # Span counts per op (V(γ) evaluations, DTU updates, builds, probed
    # users, net events...) must repeat exactly across the traced ops.
    span_repeat = checks.RepeatCheck()
    for index, root in enumerate(op_roots, start=1):
        problems = span_repeat.check(_span_counts(spans, root))
        if problems:
            result.failed += 1
            result.problems += [f"traced op {index}: {p}" for p in problems]
    setup_roots = [s[0] for s in spans if s[2] == tracing.SETUP]
    count = len(traced_ops)
    values = metrics.from_split(tracing.split(spans, roots=op_roots), count)
    setup_split = tracing.split(spans, roots=setup_roots)
    op_s = sum(op.op_s for op in traced_ops) / count
    values.update({
        "trace.op_s": op_s,
        "unattributed_s": op_s - sum(values[f"{layer}.self_s"]
                                     for layer in metrics.OP_LAYERS),
        "trace.overhead_s": stats.median([op.op_s for op in traced_ops])
        - stats.median(op_times),
        "population.sample_s": sample_s,
        "kernels.setup_build_s": (setup_split.self_s["kernels.build"]
                                  + setup_split.self_s["kernels.fill"])
        / count,
        "kernels.table_bytes": sum(op.table_bytes for op in traced_ops)
        / count,
    })
    result.metrics = {name: values.get(name, 0.0)
                      for name in metrics.PER_LAYER}
    result.notes.append(f"{count} traced ops, {len(spans)} spans")
    return result


def _import_program() -> None:
    """Import every module a workload calls, so no op or input pays it."""
    import repro.core.dtu  # noqa: F401
    import repro.core.equilibrium  # noqa: F401
    import repro.core.kernels  # noqa: F401
    import repro.core.multiedge  # noqa: F401
    import repro.net.sharded  # noqa: F401
    import repro.population.sampler  # noqa: F401
    import repro.population.scenarios  # noqa: F401
    import repro.workload.tracking  # noqa: F401


def _span_counts(spans, root: int) -> dict:
    part = tracing.split(spans, roots=[root])
    counts = {f"calls.{name}": n for name, n in part.calls.items()}
    counts.update({f"size.{name}": n for name, n in part.size.items()})
    counts.update(part.extra)
    return counts
