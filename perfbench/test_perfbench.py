"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, metrics, run, stats, tracing  # noqa: E402


# -- percentile helper ---------------------------------------------------------

def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)


def test_percentile_with_exactly_ten_beyond():
    values = list(range(1, 1001))
    assert stats.samples_beyond(len(values), 99) == 10
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values[::-1], 50) == 500


# -- serve answer check ----------------------------------------------------------

@pytest.fixture(scope="module")
def served():
    from repro.core.kernels import compile_mean_field
    from repro.population.sampler import sample_population
    from repro.population.scenarios import build_scenario
    from repro.serve import DecisionService

    population = sample_population(build_scenario("paper-theoretical"), 500,
                                   rng=3)
    ids = np.random.default_rng(5).integers(0, population.size, 50)
    # The daemon's own answer path (not started: γ̂ is the initial 0.0).
    payload = DecisionService(population).decide(ids.tolist(), report=False)
    reference = compile_mean_field(population)
    return reference, ids, payload


def test_decide_check_accepts_the_daemon_answer(served):
    kernel, ids, payload = served
    assert checks.check_decide(kernel, ids, json.dumps(payload)) == []


@pytest.mark.parametrize("corrupt", [
    lambda d: d.update(threshold=d["threshold"] + 1),
    lambda d: d.update(offload_probability=np.nextafter(
        d["offload_probability"], 2.0)),
    lambda d: d.update(offload_rate=d["offload_rate"] * 1.5),
    lambda d: d.update(device=d["device"] + 1),
])
def test_decide_check_rejects_a_corrupted_answer(served, corrupt):
    kernel, ids, payload = served
    broken = json.loads(json.dumps(payload))
    corrupt(broken["decisions"][7])
    assert checks.check_decide(kernel, ids, json.dumps(broken))


def test_decide_check_rejects_an_answer_at_another_gamma(served):
    kernel, ids, payload = served
    broken = dict(payload, gamma=0.9)
    assert checks.check_decide(kernel, ids, json.dumps(broken))


def test_decide_check_rejects_malformed_json(served):
    kernel, ids, _ = served
    assert checks.check_decide(kernel, ids, b"{\"gamma\": 0.1}")


# -- repeat check ----------------------------------------------------------------

def test_repeat_check_flags_a_changed_count():
    repeat = checks.RepeatCheck()
    assert repeat.check({"dtu_iterations": 23, "events": 100}) == []
    assert repeat.check({"dtu_iterations": 23, "events": 100}) == []
    problems = repeat.check({"dtu_iterations": 24, "events": 100})
    assert problems and "dtu_iterations" in problems[0]


def test_repeat_check_spans_invocations(tmp_path):
    path = tmp_path / "counts" / "solve-1.json"
    assert checks.RepeatCheck(path).check({"v": 37}) == []
    assert checks.RepeatCheck(path).check({"v": 37}) == []
    assert checks.RepeatCheck(path).check({"v": 36})


# -- span attribution ----------------------------------------------------------------

def test_layer_self_times_add_up_to_the_time_under_the_op():
    log = tracing.SpanLog()

    def leaf():
        return sum(range(20_000))

    wrapped_leaf = tracing._wrapper(log, "kernels.probe", leaf, None, None)
    wrapped_layer = tracing._wrapper(log, "dtu.run", lambda: (
        wrapped_leaf(), wrapped_leaf(), sum(range(20_000))), None, None)

    def op():
        sum(range(50_000))
        return wrapped_layer(), wrapped_leaf()

    log.root(tracing.OP, op)
    op_span = next(s for s in log.spans if s[2] == tracing.OP)
    part = tracing.split(log.spans, roots=[op_span[0]])
    under_op = sum(s[4] - s[3] for s in log.spans if s[1] == op_span[0])
    assert part.calls["kernels.probe"] == 3
    assert sum(part.layer_self(layer) for layer in tracing.LAYERS) == \
        pytest.approx(under_op, rel=1e-12)
    assert under_op < op_span[4] - op_span[3]    # the rest is unattributed
    # The leaf spans inside dtu.run do not count as dtu self time.
    dtu = next(s for s in log.spans if s[2] == "dtu.run")
    inner = sum(s[4] - s[3] for s in log.spans if s[1] == dtu[0])
    assert part.self_s["dtu.run"] == pytest.approx(dtu[4] - dtu[3] - inner)


def test_install_restores_the_originals():
    from repro.core import equilibrium, kernels

    before = (equilibrium.solve_mfne, kernels.CompiledMeanField.value,
              vars(kernels.CompiledMeanField).get("__init__"))
    restore = tracing.install(tracing.SpanLog(), tracing.BATCH_TARGETS)
    assert equilibrium.solve_mfne is not before[0]
    restore()
    after = (equilibrium.solve_mfne, kernels.CompiledMeanField.value,
             vars(kernels.CompiledMeanField).get("__init__"))
    assert after == before


# -- the contract ----------------------------------------------------------------

def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
