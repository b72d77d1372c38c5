"""The serving layer: wall-clock driver, decision service, HTTP surface.

Three contracts pin :mod:`repro.serve` to the rest of the repo:

* the batched kernel probe answers **bit-identically** to the scalar
  staircase search (``user_thresholds`` vs ``user_threshold``), so a
  served decision equals what the solver computes for the same γ̂;
* a fault-free serving session over a frozen population reproduces the
  offline :func:`repro.core.dtu.run_dtu` fixed point (the integration
  test at the bottom);
* overload sheds with 503 + ``Retry-After`` — bounded in-flight work —
  instead of queueing without limit.
"""

from __future__ import annotations

import http.client
import importlib.util
import itertools
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.dtu import DtuConfig, run_dtu
from repro.core.edge_delay import PAPER_DELAY_MODEL
from repro.core.kernels import compile_mean_field
from repro.core.meanfield import MeanFieldMap
from repro.net.actors import EDGE_ADDRESS, EdgeCoordinator
from repro.net.messages import Envelope, JoinLeave, ThresholdReport
from repro.net.transport import LocalTransport
from repro.population.sampler import sample_population
from repro.population.scenarios import build_scenario
from repro.serve import (
    AdmissionController,
    DecisionServer,
    DecisionService,
    ServeConfig,
    ServingCoordinator,
    WallClockDriver,
)
from repro.__main__ import main as repro_main
from repro.serve.replay import ReplayConfig, run_replay


@pytest.fixture(scope="module")
def population():
    return sample_population(build_scenario("paper-theoretical"), 64, rng=0)


@pytest.fixture(scope="module")
def kernel(population):
    return compile_mean_field(population, PAPER_DELAY_MODEL)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url, document):
    request = urllib.request.Request(
        url, data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), \
                response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.resolved_report_window() == 3.0 * config.round_period
        assert config.resolved_max_backoff() == 4.0 * config.round_period

    @pytest.mark.parametrize("kwargs", [
        {"round_period": 0.0},
        {"backoff": 0.5},
        {"watermark": 0},
        {"max_batch": 0},
        {"silence_decay": 1.5},
        {"initial_step": 0.0},
        {"staleness_factor": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            ServeConfig(**kwargs)

    def test_protocol_adapter_speaks_netconfig(self):
        protocol = ServeConfig(round_period=0.5).protocol()
        # The exact attribute set EdgeCoordinator.run() reads.
        assert protocol.report_timeout == 0.5
        assert protocol.report_window == 1.5
        assert protocol.max_backoff == 2.0
        assert protocol.silence_decay == 1.0
        assert protocol.liveness_timeout is None
        # The one serving-specific extension: daemons outlive convergence.
        assert protocol.stop_on_convergence is False


@pytest.mark.kernels
class TestBatchedProbe:
    """``user_thresholds``/``user_alphas`` vs their scalar counterparts."""

    @pytest.mark.parametrize("gamma", [0.0, 0.05, 0.134, 0.5, 0.99, 1.0])
    def test_batch_matches_scalar_search(self, kernel, population, gamma):
        ids = np.arange(population.size)
        batched = kernel.user_thresholds(ids, gamma)
        scalar = np.array([kernel.user_threshold(int(i), gamma)
                           for i in ids])
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("gamma", [0.0, 0.134, 0.7])
    def test_batch_matches_population_sweep(self, kernel, population, gamma):
        ids = np.arange(population.size)
        np.testing.assert_array_equal(kernel.user_thresholds(ids, gamma),
                                      kernel.thresholds(gamma))

    def test_subset_and_duplicates(self, kernel):
        ids = np.array([3, 3, 0, 17, 3])
        batched = kernel.user_thresholds(ids, 0.2)
        assert batched[0] == batched[1] == batched[4]
        scalar = [kernel.user_threshold(int(i), 0.2) for i in ids]
        np.testing.assert_array_equal(batched, scalar)

    def test_alphas_match_scalar_lookup(self, kernel, population):
        ids = np.arange(population.size)
        thresholds = kernel.user_thresholds(ids, 0.3)
        alphas = kernel.user_alphas(ids, thresholds)
        scalar = [kernel.user_alpha(int(i), int(level))
                  for i, level in zip(ids, thresholds)]
        np.testing.assert_array_equal(alphas, scalar)


class TestAdmissionController:
    def test_watermark_bounds_in_flight(self):
        admission = AdmissionController(2)
        assert admission.try_enter() and admission.try_enter()
        assert not admission.try_enter()        # past the watermark: shed
        assert admission.shed_total == 1
        admission.exit()
        assert admission.try_enter()            # capacity freed
        assert admission.admitted_total == 3


@pytest.mark.serve
class TestWallClockDriver:
    def test_now_advances_in_real_time(self):
        driver = WallClockDriver()
        assert driver.now == 0.0

        async def idle():
            await driver.sleep(10.0)

        driver.start([idle()])
        time.sleep(0.05)
        assert driver.now > 0.0
        driver.stop()
        assert driver.stopping
        driver.stop()                           # idempotent

    def test_submit_runs_on_the_loop_thread(self):
        driver = WallClockDriver()
        seen = {}
        done = threading.Event()

        async def idle():
            await driver.sleep(10.0)

        driver.start([idle()])
        try:
            def probe():
                seen["thread"] = threading.current_thread().name
                done.set()
            driver.submit(probe)
            assert done.wait(2.0)
            assert seen["thread"] == "repro-serve-driver"
        finally:
            driver.stop()

    def test_actor_crash_is_surfaced(self):
        driver = WallClockDriver()

        async def doomed():
            raise RuntimeError("actor died")

        driver.start([doomed()])
        deadline = time.monotonic() + 2.0
        while driver.failure is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert isinstance(driver.failure, RuntimeError)
        assert driver.stopping
        driver.stop()


@pytest.mark.serve
class TestDecisionService:
    def test_decisions_match_kernel_at_served_gamma(self, population,
                                                    kernel):
        with DecisionService(population, ServeConfig()) as service:
            ids = [0, 5, 9]
            payload = service.decide(ids)
            gamma = payload["gamma"]
            expected = kernel.user_thresholds(np.asarray(ids), gamma)
            got = [entry["threshold"] for entry in payload["decisions"]]
            np.testing.assert_array_equal(got, expected)
            alphas = kernel.user_alphas(np.asarray(ids), expected)
            for entry, alpha, index in zip(payload["decisions"], alphas,
                                           ids):
                assert entry["offload_probability"] == alpha
                assert entry["offload_rate"] == \
                    population.arrival_rates[index] * alpha

    def test_single_decide_inlines_the_decision(self, population):
        with DecisionService(population) as service:
            payload = service.decide(7)
            assert payload["device"] == 7
            assert payload["threshold"] == \
                payload["decisions"][0]["threshold"]

    def test_rejects_bad_devices_and_batches(self, population):
        config = ServeConfig(max_batch=8)
        with DecisionService(population, config) as service:
            with pytest.raises(ValueError):
                service.decide(population.size)         # out of range
            with pytest.raises(ValueError):
                service.decide(-1)
            with pytest.raises(ValueError):
                service.decide([])
            with pytest.raises(ValueError):
                service.decide(list(range(9)))          # > max_batch

    def test_decides_feed_membership_and_rounds(self, population):
        config = ServeConfig(round_period=0.02)
        with DecisionService(population, config) as service:
            for _ in range(20):
                service.decide([1, 2, 3])
                time.sleep(0.01)
            state = service.state()
            assert state["members"] == 3                # auto-joined
            assert state["round"] > 1                   # rounds advanced
            assert state["iterations"] > 0              # ... and measured
            service.leave([3])
            time.sleep(0.1)
            assert service.state()["members"] == 2
        assert not service.healthy                      # stopped


class _MessagePath:
    """The serve path before the report table, as a reference model.

    Every decide becomes a :class:`ThresholdReport` envelope (plus a
    :class:`JoinLeave` for a device that had left as of the last drain)
    queued on a plain :class:`EdgeCoordinator`, which applies them when
    it drains before each measure.
    """

    def __init__(self, runtime, n: int, capacity: float, config):
        self.runtime = runtime
        self.coordinator = EdgeCoordinator(
            runtime, LocalTransport(runtime, record_log=False), range(n),
            capacity, config)
        self.coordinator._left = set(self.coordinator.known)
        self._seq = itertools.count()

    def _send(self, message) -> None:
        now = self.runtime.now
        self.coordinator.mailbox.put(Envelope(
            seq=next(self._seq), src=message.device, dst=EDGE_ADDRESS,
            sent_at=now, delivered_at=now, message=message))

    def decide(self, ids, round_number, thresholds, rates, join=True):
        for device, threshold, rate in zip(ids, thresholds, rates):
            if join and device in self.coordinator._left:
                self._send(JoinLeave(device, True))
            self._send(ThresholdReport(device, round_number, threshold,
                                       rate))

    def membership(self, ids, joining: bool) -> None:
        for device in ids:
            self._send(JoinLeave(device, joining))


def _replay_script(script, config, n=16, capacity=2.5):
    """Run ``script`` through the report table and the message path.

    Ops: ``("decide", t, round, ids, rates)``, ``("join"|"leave", t,
    ids)`` and ``("measure", t, round)``; each measure drains the
    reference and requires the two coordinators to agree exactly.
    """
    runtime = SimpleNamespace(now=0.0)
    table = ServingCoordinator(
        runtime, LocalTransport(runtime, record_log=False), range(n),
        capacity, config)
    reference = _MessagePath(runtime, n, capacity, config)
    old = reference.coordinator
    measured = []
    for op in script:
        kind, runtime.now = op[0], op[1]
        if kind == "decide":
            _, _, round_number, ids, rates = op
            thresholds = [float(3 * device % 7) for device in ids]
            table.ingest_reports(np.array(ids, dtype=np.int64),
                                 round_number, np.array(thresholds),
                                 np.array(rates), join=True)
            reference.decide(ids, round_number, thresholds, rates)
        elif kind in ("join", "leave"):
            ids = op[2]
            table.set_membership(np.array(ids, dtype=np.int64),
                                 kind == "join")
            reference.membership(ids, kind == "join")
        else:
            table.round = old.round = op[2]
            old._drain()
            now = runtime.now
            got, want = table._measure(now), old._measure(now)
            assert got == want, (op, got, want)
            assert table.joined == len(old.known) - len(old._left)
            assert table.heard == old.heard
            assert table.members(now).tolist() == old.members(now)
            measured.append(got)
    return measured


def _rates(*values):
    # Irregular floats, so a change in summation order would show.
    return [v / 7.0 + 0.013 * v * v for v in values]


class TestReportTableEquivalence:
    """The report table against the per-message path it replaced."""

    CONFIG = ServeConfig(round_period=1.0, report_window=3.0).protocol()

    def test_duplicate_ids_keep_the_last_report(self):
        measured = _replay_script([
            ("decide", 0.1, 1, [3, 1, 3, 3], _rates(1, 2, 3, 4)),
            ("measure", 1.0, 1),
            ("decide", 1.2, 2, [1, 1, 5], _rates(5, 6, 7)),
            ("measure", 2.0, 2),
        ], self.CONFIG)
        assert measured[0] == float(np.mean(_rates(2, 4)) / 2.5)

    def test_older_round_does_not_overwrite_newer(self):
        measured = _replay_script([
            ("decide", 0.1, 5, [1, 2], _rates(1, 2)),
            ("decide", 0.2, 4, [2, 3], _rates(3, 4)),
            ("measure", 1.0, 5),
            ("decide", 1.1, 5, [3], _rates(5)),
            ("measure", 2.0, 5),
        ], self.CONFIG)
        assert measured[0] == float(np.mean(_rates(1, 2, 4)) / 2.5)

    def test_leave_and_rejoin(self):
        measured = _replay_script([
            ("decide", 0.1, 1, [1, 2, 3], _rates(1, 2, 3)),
            ("measure", 1.0, 1),
            ("leave", 1.1, [2]),
            ("measure", 2.0, 2),
            ("decide", 2.1, 3, [2], _rates(4)),       # auto re-join
            ("leave", 2.2, [3, 3]),
            ("measure", 3.0, 3),
            ("join", 3.1, [3]),                       # member, no report
            ("leave", 3.2, [1, 2, 3]),
            ("measure", 4.0, 4),
        ], self.CONFIG)
        assert measured[1] == float(np.mean(_rates(1, 3)) / 2.5)
        assert measured[-1] is None

    def test_liveness_timeout_prunes_silent_devices(self):
        config = ServeConfig(round_period=1.0, report_window=100.0,
                             liveness_timeout=2.0).protocol()
        measured = _replay_script([
            ("decide", 0.0, 1, [1, 2], _rates(1, 2)),
            ("decide", 1.5, 2, [2], _rates(3)),
            ("join", 2.0, [4]),
            ("measure", 2.0, 2),
            ("measure", 3.0, 3),                      # device 1 timed out
            ("measure", 3.6, 3),                      # device 2 too
            ("measure", 4.5, 4),                      # and the join's
        ], config)
        assert measured[1] == float(np.mean(_rates(3)) / 2.5)
        assert measured[2] is None

    def test_report_window_staleness(self):
        measured = _replay_script([
            ("decide", 0.0, 1, [1], _rates(1)),
            ("decide", 2.0, 2, [2], _rates(2)),
            ("measure", 2.5, 2),
            ("measure", 4.0, 2),        # device 1's round-1 report is stale
            ("measure", 10.0, 2),       # current-round reports never are
            ("measure", 10.0, 3),
        ], self.CONFIG)
        assert measured[1] == measured[2] == float(_rates(2)[0] / 2.5)
        assert measured[3] is None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_scripts(self, seed):
        rng = np.random.default_rng(seed)
        config = ServeConfig(round_period=1.0, report_window=2.0,
                             liveness_timeout=3.0).protocol()
        script, now, round_number = [], 0.0, 1
        for _ in range(80):
            now += float(rng.exponential(0.4))
            choice = rng.random()
            ids = rng.integers(0, 16, int(rng.integers(1, 6))).tolist()
            if choice < 0.55:
                answered = round_number - int(rng.integers(0, 3))
                script.append(("decide", now, max(answered, 0), ids,
                               rng.random(len(ids)).tolist()))
            elif choice < 0.7:
                script.append(("leave", now, ids))
            elif choice < 0.8:
                script.append(("join", now, ids))
            else:
                round_number += 1
            # Measure after every op: the message path only re-joins a
            # device that had left as of the previous drain.
            script.append(("measure", now, round_number))
        measured = _replay_script(script, config)
        assert any(value is not None for value in measured)


def _settle(service):
    """Wait until the loop thread has run everything submitted so far."""
    done = threading.Event()
    service.driver.submit(done.set)
    assert done.wait(2.0)


@pytest.mark.serve
class TestReportIngest:
    CONFIG = ServeConfig(round_period=60.0)     # no measure mid-test

    def test_decide_after_leave_in_one_round_rejoins(self, population):
        with DecisionService(population, self.CONFIG) as service:
            service.decide([3, 4])
            _settle(service)
            service.leave([3])
            service.decide([3])
            _settle(service)
            members = service.coordinator.members(service.driver.now)
            assert members.tolist() == [3, 4]
            assert service.state()["members"] == 2
        # The message path checked membership as of the last drain, so
        # the same sequence left device 3 out until a later decide.
        runtime = SimpleNamespace(now=0.0)
        old = _MessagePath(runtime, population.size, 1.0,
                           self.CONFIG.protocol())
        old.decide([3, 4], 0, [1.0, 1.0], [0.5, 0.5])
        old.coordinator._drain()
        old.membership([3], joining=False)
        old.decide([3], 0, [1.0], [0.5])
        old.coordinator._drain()
        assert old.coordinator.members(0.0) == [4]

    def test_caller_array_is_copied_before_ingest(self, population):
        with DecisionService(population, self.CONFIG) as service:
            gate = threading.Event()
            service.driver.submit(lambda: gate.wait(2.0))   # hold the loop
            ids = np.array([1, 2, 3], dtype=np.int64)
            service.decide(ids)
            ids[:] = [7, 8, 9]
            gate.set()
            _settle(service)
            coordinator = service.coordinator
            assert coordinator.members(service.driver.now).tolist() \
                == [1, 2, 3]
            assert coordinator.heard == 3

    def test_concurrent_decides_lose_no_batch(self, population):
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DecisionService(population, self.CONFIG) as service:
                def client(offset):
                    for _ in range(50):
                        service.decide([offset, offset + 8])

                threads = [threading.Thread(target=client, args=(k,))
                           for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                assert not any(thread.is_alive() for thread in threads)
                _settle(service)
                assert service.coordinator.heard == 16
                assert service.coordinator.joined == 16
        finally:
            sys.setswitchinterval(switch)


def _body(payload) -> bytes:
    return (json.dumps(payload) + "\n").encode()


def _check_decide():
    """The repository benchmark's offline re-derivation of an answer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_decide


@pytest.mark.serve
class TestAnswerEncoding:
    """Answers encoded from the row cache equal ``json.dumps``, bytewise."""

    GAMMAS = (0.0, 0.35, 0.6, 0.35, 0.95, 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_rows_match_a_fresh_dump(self, population, seed):
        rng = np.random.default_rng(seed)
        service = DecisionService(population)
        stepper = service.coordinator.stepper
        for gamma in self.GAMMAS:
            stepper.estimate = gamma
            for _ in range(5):
                ids = rng.integers(0, population.size, 40)
                ids[::7] = ids[0]                       # duplicate ids
                payload = service.decide(ids, report=False)
                assert payload.json_body() == _body(payload)
                payload = service.decide(int(ids[1]), report=False)
                assert payload.json_body() == _body(payload)

    def test_concurrent_answers_each_match_their_payload(self, population):
        service = DecisionService(population)
        stepper = service.coordinator.stepper
        stop = threading.Event()
        mismatches, answered = [], []

        def flip():
            while not stop.is_set():
                stepper.estimate = 0.6 if stepper.estimate == 0.1 else 0.1

        def client(offset):
            rng = np.random.default_rng(offset)
            for _ in range(60):
                ids = (offset + rng.integers(0, 24, 16)) % population.size
                payload = service.decide(ids, report=False)
                if payload.json_body() != _body(payload):
                    mismatches.append(payload)
                answered.append(payload["gamma"])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        flipper = threading.Thread(target=flip)
        clients = [threading.Thread(target=client, args=(8 * k,))
                   for k in range(8)]
        try:
            flipper.start()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(20.0)
        finally:
            stop.set()
            flipper.join(5.0)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in clients + [flipper])
        assert len(answered) == 8 * 60
        assert set(answered) == {0.1, 0.6}              # γ̂ did flip
        assert mismatches == []

    def test_cache_is_bounded_by_the_fleet(self, population):
        service = DecisionService(population)
        everyone = np.arange(population.size)
        for gamma in np.linspace(0.0, 1.0, 41):
            service.coordinator.stepper.estimate = float(gamma)
            service.decide(everyone, report=False).json_body()
        assert len(service.rows) == population.size
        assert len(service.rows._rows) == population.size

    def test_http_answer_passes_the_benchmark_check(self, population,
                                                    kernel):
        check_decide = _check_decide()
        config = ServeConfig(round_period=0.05)
        ids = [3, 9, 3, 63, 0]
        with DecisionServer(DecisionService(population, config)) as live:
            conn = http.client.HTTPConnection("127.0.0.1", live.port,
                                              timeout=10)
            try:
                for _ in range(3):
                    conn.request("POST", "/decide",
                                 body=json.dumps({"devices": ids}))
                    response = conn.getresponse()
                    body = response.read()
                    assert response.status == 200
                    assert check_decide(kernel, ids, body) == []
                    time.sleep(0.06)                    # cross a round
            finally:
                conn.close()


@pytest.mark.serve
class TestDecisionServer:
    @pytest.fixture()
    def server(self, population):
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as live:
            yield live

    def test_healthz_and_state(self, server):
        status, body = _get(server.url + "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, state = _get(server.url + "/state")
        assert status == 200
        for key in ("gamma", "eta", "round", "members", "population",
                    "stale", "load", "shed_total", "healthy"):
            assert key in state
        assert state["population"] == 64

    def test_decide_over_http(self, server):
        status, body, _ = _post(server.url + "/decide",
                                {"devices": [0, 1, 2]})
        assert status == 200
        assert len(body["decisions"]) == 3
        status, body, _ = _post(server.url + "/decide", {"device": 5})
        assert status == 200 and body["device"] == 5
        for devices in ([1, True], [1, 2.0], [1, "2"], [1, [2]], [None]):
            status, _, _ = _post(server.url + "/decide",
                                 {"devices": devices})
            assert status == 400, devices

    def test_error_mapping(self, server):
        assert _post(server.url + "/decide", {})[0] == 400
        assert _post(server.url + "/decide", {"device": "x"})[0] == 400
        assert _post(server.url + "/decide", {"device": True})[0] == 400
        assert _post(server.url + "/decide", {"devices": []})[0] == 400
        assert _post(server.url + "/decide", {"device": 10**6})[0] == 400
        assert _post(server.url + "/nope", {"device": 1})[0] == 404
        big = {"devices": list(range(100_001))}
        assert _post(server.url + "/decide", big)[0] == 413

    def test_metrics_exposition(self, server):
        _post(server.url + "/decide", {"device": 1})
        with urllib.request.urlopen(server.url + "/metrics") as response:
            text = response.read().decode()
        assert "repro_serve_decisions_total" in text
        assert "repro_serve_gamma_hat" in text

    def test_overload_sheds_with_retry_after(self, population):
        config = ServeConfig(round_period=0.05, watermark=2)
        with DecisionServer(DecisionService(population, config)) as live:
            # Fill the watermark from outside, deterministically: the
            # next real request must be shed, not queued.
            assert live.service.admission.try_enter()
            assert live.service.admission.try_enter()
            status, body, headers = _post(live.url + "/decide",
                                          {"device": 1})
            assert status == 503 and body["shed"] is True
            assert float(headers["Retry-After"]) == config.round_period
            live.service.admission.exit()
            live.service.admission.exit()
            # Keep-alive safety: the shed request's body was drained, so
            # the connection serves the next request normally.
            status, _, _ = _post(live.url + "/decide", {"device": 1})
            assert status == 200
            assert live.service.state()["shed_total"] == 1


@pytest.mark.serve
def test_cli_trace_records_every_round_span(tmp_path, capsys):
    trace = tmp_path / "trace"
    assert repro_main(["serve", "--users", "64", "--port", "0",
                       "--round-period", "0.02", "--duration", "0.3",
                       "--trace", str(trace)]) == 0
    spans = [json.loads(line)
             for line in (trace / "spans.jsonl").read_text().splitlines()]
    counters = json.loads((trace / "metrics.json").read_text())["counters"]
    rounds = [span for span in spans
              if span["name"] == "coordinator.broadcast"]
    assert len(rounds) == counters["net.broadcasts"] >= 2
    # Balance: every opened span was closed (the last round by the
    # shutdown's finish) and written exactly once.
    assert len(spans) == len({span["id"] for span in spans}) \
        == counters["spans.opened"]
    assert all(span["status"] != "open" for span in spans)


@pytest.mark.serve
class TestReplay:
    def test_closed_loop_replay_counts_and_columns(self, population):
        config = ServeConfig(round_period=0.05)
        with DecisionServer(DecisionService(population, config)) as live:
            report = run_replay(ReplayConfig(
                url=live.url, requests=60, batch=4, workers=3, seed=5))
        assert report.ok == 60
        assert report.errors == 0 and report.shed == 0
        assert report.decisions == 60 * 4
        row = report.workload("smoke")
        for column in ("decisions_per_second", "p50_seconds",
                       "p99_seconds", "p999_seconds", "shed_rate",
                       "errors", "mode", "batch"):
            assert column in row
        assert row["n_users"] == population.size

    def test_bench_normalizer_reads_serve_shape(self, population):
        from repro.obs.bench import metric_direction, normalize
        from repro.serve.replay import bench_document

        assert metric_direction("p99_seconds") == "lower"
        assert metric_direction("p999_seconds") == "lower"
        assert metric_direction("latency_p50") == "lower"
        assert metric_direction("decisions_per_second") == "higher"
        assert metric_direction("shed_rate") is None    # config, not perf
        row = {"workload": "single", "mode": "closed", "batch": 1,
               "n_users": 64, "p99_seconds": 0.004,
               "decisions_per_second": 1000.0, "shed_rate": 0.0}
        document = normalize(bench_document([row]))
        ids = {metric["id"]: metric["direction"]
               for metric in document["metrics"]}
        key = "serve/workload=single,n_users=64,mode=closed,batch=1"
        assert ids[f"{key}/p99_seconds"] == "lower"
        assert ids[f"{key}/decisions_per_second"] == "higher"
        assert f"{key}/shed_rate" not in ids


@pytest.mark.serve
class TestFixedPointIntegration:
    def test_serving_session_reproduces_run_dtu(self, population):
        """A fault-free replayed session lands on the offline fixed point.

        Frozen population, steady full-fleet decide traffic, wall-clock
        rounds: the coordinator must walk the same γ̂ trajectory as
        :func:`run_dtu` (same stepper, same measured utilisation) and
        settle on the same estimate.
        """
        offline = run_dtu(MeanFieldMap(population, PAPER_DELAY_MODEL),
                          DtuConfig(initial_step=0.1, tolerance=1e-2))
        assert offline.converged

        config = ServeConfig(round_period=0.02, initial_step=0.1,
                             tolerance=1e-2)
        all_ids = list(range(population.size))
        with DecisionService(population, config) as service:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                service.decide(all_ids)
                time.sleep(0.005)
                if service.coordinator.stepper.converged and \
                        service.coordinator.iterations >= 5:
                    break
            state = service.state()

        assert state["converged"]
        assert state["gamma"] == pytest.approx(
            offline.estimated_utilization, abs=0.05)
        assert not state["stale"]       # rounds were measuring on period
