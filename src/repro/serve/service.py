"""The decision service: coordinator + compiled kernel behind one facade.

:class:`DecisionService` is the serving-layer object everything else
(HTTP surface, replay client, tests) talks to.  It owns

* one :class:`~repro.core.kernels.CompiledMeanField` for the provisioned
  population — a batch of B ``decide`` queries costs **one** vectorised
  probe (:meth:`~repro.core.kernels.CompiledMeanField.user_thresholds`),
  not B scalar staircase searches;
* one :class:`ServingCoordinator` — the :mod:`repro.net` edge actor
  running *unmodified protocol logic* on a
  :class:`~repro.serve.wallclock.WallClockDriver`: re-estimation rounds
  on a wall-clock period, report windows from real arrivals, the shared
  Eq. 4 :class:`~repro.core.dtu.DtuStepper`, graceful degradation on
  silent rounds;
* an :class:`AnswerRows` cache holding each device's encoded answer
  row, so a ``/decide`` body is a byte join of cached rows, re-encoding
  only the rows whose threshold changed since they were last served;
* an :class:`AdmissionController` — a bounded in-flight watermark so
  overload sheds (the HTTP layer answers 503 + ``Retry-After``) instead
  of collapsing latency;
* a :class:`~repro.simulation.online.WindowedRateEstimator` measuring
  decision arrivals against a nominal capacity (the ``load`` gauge in
  ``/state``), exercised here on irregular wall-clock windows rather
  than the lockstep virtual clock.

Every ``decide`` doubles as a report: the batch's ids, thresholds and
offload rates are handed to the driver thread as arrays and written into
the coordinator's device-indexed report table in one call, so the
service measures γ from the traffic it actually serves; with a frozen
population querying steadily, the γ̂ trajectory settles onto the same
fixed point as the offline :func:`repro.core.dtu.run_dtu` (pinned by
``tests/test_serve.py``).

**Staleness semantics** — responses carry ``stale: true`` when the γ̂
they answer from predates the last re-estimation deadline by more than
``staleness_factor`` round periods: a round is still in flight (backed
off after silence, or starved under overload) and the served estimate
may be superseded.  Clients that care re-query; clients that don't still
get the best available answer.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.edge_delay import PAPER_DELAY_MODEL, EdgeDelayModel
from repro.core.kernels import CompiledMeanField, compile_mean_field
from repro.net.actors import EdgeCoordinator
from repro.net.transport import LocalTransport
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import ObsRecorder, Recorder
from repro.population.sampler import Population
from repro.serve.wallclock import WallClockDriver
from repro.simulation.online import WindowedRateEstimator
from repro.utils.validation import (
    check_int_positive,
    check_positive,
    check_unit_interval,
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that parameterises the serving daemon.

    The DTU hyperparameters mean exactly what they do in
    :class:`repro.core.dtu.DtuConfig`; the rest governs wall-clock
    timing and admission control.  All times are wall seconds.
    """

    # -- Algorithm 1 hyperparameters --
    initial_step: float = 0.1
    tolerance: float = 1e-2
    initial_estimate: float = 0.0

    # -- re-estimation timing (wall seconds) --
    round_period: float = 1.0        #: wait between broadcast and measure
    report_window: Optional[float] = None    #: default 3 × round_period
    backoff: float = 2.0             #: wait multiplier after a silent round
    max_backoff: Optional[float] = None      #: default 4 × round_period
    silence_decay: float = 1.0       #: η multiplier on silence (1 = hold η:
    #: an idle server is normal, not a partition)
    liveness_timeout: Optional[float] = None  #: None: members leave
    #: explicitly; the report window already bounds measurement staleness
    max_rounds: int = 2 ** 31 - 1    #: effectively unbounded

    # -- serving behaviour --
    watermark: int = 64              #: max in-flight decide requests
    max_batch: int = 100_000         #: devices per decide request
    auto_join: bool = True           #: first decide implies a JoinLeave
    staleness_factor: float = 2.0    #: rounds overdue before γ̂ is "stale"
    load_window: float = 10.0        #: trailing window for the load gauge
    rate_capacity: float = 10_000.0  #: nominal decisions/s (load = 1.0)

    def __post_init__(self) -> None:
        check_unit_interval("initial_step", self.initial_step, open_left=True)
        check_unit_interval("tolerance", self.tolerance,
                            open_left=True, open_right=True)
        check_unit_interval("initial_estimate", self.initial_estimate)
        check_positive("round_period", self.round_period)
        if self.report_window is not None:
            check_positive("report_window", self.report_window)
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_backoff is not None:
            check_positive("max_backoff", self.max_backoff)
        check_unit_interval("silence_decay", self.silence_decay)
        if self.liveness_timeout is not None:
            check_positive("liveness_timeout", self.liveness_timeout)
        check_int_positive("max_rounds", self.max_rounds)
        check_int_positive("watermark", self.watermark)
        check_int_positive("max_batch", self.max_batch)
        check_positive("staleness_factor", self.staleness_factor)
        check_positive("load_window", self.load_window)
        check_positive("rate_capacity", self.rate_capacity)

    def resolved_report_window(self) -> float:
        return self.report_window if self.report_window is not None \
            else 3.0 * self.round_period

    def resolved_max_backoff(self) -> float:
        return self.max_backoff if self.max_backoff is not None \
            else 4.0 * self.round_period

    def protocol(self) -> SimpleNamespace:
        """The coordinator-facing view (NetConfig-shaped attributes)."""
        return SimpleNamespace(
            initial_step=self.initial_step,
            tolerance=self.tolerance,
            initial_estimate=self.initial_estimate,
            max_rounds=self.max_rounds,
            report_timeout=self.round_period,
            report_window=self.resolved_report_window(),
            liveness_timeout=self.liveness_timeout,
            silence_decay=self.silence_decay,
            backoff=self.backoff,
            max_backoff=self.resolved_max_backoff(),
            stop_on_convergence=False,
        )


#: ``report_round`` of a device with no stored report (rounds start at 0).
_NO_REPORT = -1


class ServingCoordinator(EdgeCoordinator):
    """The edge actor adapted to the pull-model daemon.

    Three deviations from the virtual-time coordinator:

    * **broadcast publishes, it does not push** — HTTP clients pull γ̂
      via ``/decide``, so a round opens (round counter + span) without
      fanning N messages out to mailboxes that don't exist;
    * **membership starts empty** — the provisioned fleet joins
      explicitly (or implicitly on first decide);
    * **reports live in a device-indexed table, not a message queue** —
      one array per column (report time, report round, offload rate,
      threshold, last-heard time, joined mask), sized to the fleet and
      written a whole decide batch at a time by :meth:`ingest_reports`
      on the loop thread.  It is the only per-device state (the
      inherited dicts are dropped); ``_measure`` is a masked reduction
      with the base class's arithmetic (same staleness and liveness
      tests, same ``np.mean`` over the selected rates in ascending
      device order, so γ is bit-equal).

    Under ``auto_join`` a decide re-joins a device that left, even when
    the ``/leave`` landed earlier in the same round: writes apply in
    arrival order, not as of the last round's drain.

    The round loop, stepper and degradation logic are inherited
    untouched; the mailbox stays registered but nothing is sent to it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n = len(self.known)
        if self.known != list(range(n)):
            raise ValueError("serving fleets are device ids 0..N-1")
        del self._reports, self._left, self._last_heard
        self._report_time = np.zeros(n)
        self._report_round = np.full(n, _NO_REPORT, dtype=np.int64)
        self._report_rate = np.zeros(n)
        self._report_threshold = np.zeros(n)
        self._heard_at = np.zeros(n)
        self._joined = np.zeros(n, dtype=bool)
        self.last_round_ended = 0.0
        self.last_round_status = "init"
        self.rounds_completed = 0

    # -- table writes (loop thread only) -----------------------------------

    def ingest_reports(self, ids: np.ndarray, round_number: int,
                       thresholds: np.ndarray, rates: np.ndarray,
                       join: bool) -> None:
        """Record a decide batch: one report per device, one array pass.

        A repeated id keeps its last report; a stored report from a
        newer round is not overwritten.
        """
        now = self.runtime.now
        devices, last = np.unique(ids[::-1], return_index=True)
        rows = ids.size - 1 - last
        self._heard_at[devices] = now
        if join:
            self._joined[devices] = True
        newer = self._report_round[devices] <= round_number
        devices, rows = devices[newer], rows[newer]
        self._report_time[devices] = now
        self._report_round[devices] = round_number
        self._report_rate[devices] = rates[rows]
        self._report_threshold[devices] = thresholds[rows]

    def set_membership(self, ids: np.ndarray, joining: bool) -> None:
        """Explicit join or leave; leaving drops the device's report."""
        self._heard_at[ids] = self.runtime.now
        self._joined[ids] = joining
        if not joining:
            self._report_round[ids] = _NO_REPORT

    # -- protocol hooks ----------------------------------------------------

    def _broadcast(self) -> None:
        self.round += 1
        if self._obs.enabled:
            self._round_span = self._obs.span_start(
                "coordinator.broadcast", trace=self.round,
                virtual_time=self.runtime.now,
                round=self.round, estimate=self.stepper.estimate,
            )
            self._obs.count("net.broadcasts")

    def _close_round_span(self, status: str, **tags) -> None:
        self.last_round_status = status
        self.last_round_ended = self.runtime.now
        self.rounds_completed += 1
        super()._close_round_span(status, **tags)

    def _live(self, now: float) -> np.ndarray:
        timeout = self.config.liveness_timeout
        if timeout is None:
            return self._joined
        return self._joined & (now - self._heard_at <= timeout)

    def _measure(self, now: float) -> Optional[float]:
        rounds = self._report_round
        fresh = (now - self._report_time <= self.config.report_window) \
            | (rounds == self.round)
        selected = self._live(now) & (rounds != _NO_REPORT) & fresh
        if not selected.any():
            return None
        return float(np.mean(self._report_rate[selected]) / self.capacity)

    # -- table reads -------------------------------------------------------

    def members(self, now: float) -> np.ndarray:
        """Live member ids, ascending."""
        return np.flatnonzero(self._live(now))

    @property
    def heard(self) -> int:
        return int(np.count_nonzero(self._report_round != _NO_REPORT))

    @property
    def joined(self) -> int:
        """Devices currently joined (explicit membership only)."""
        return int(np.count_nonzero(self._joined))

    @property
    def mean_threshold(self) -> float:
        reported = self._report_round != _NO_REPORT
        if not reported.any():
            return 0.0
        return float(np.mean(self._report_threshold[reported]))


class AdmissionController:
    """A bounded in-flight watermark: enter or shed, never queue unbounded.

    ``ThreadingHTTPServer`` gives every connection a thread, so "queue
    depth" is the number of requests currently being served; past the
    watermark new work is shed immediately (the HTTP layer turns that
    into 503 + ``Retry-After``) and latency for admitted requests stays
    bounded instead of collapsing under a pile-up.
    """

    def __init__(self, watermark: int):
        self.watermark = int(watermark)
        self._lock = threading.Lock()
        self.in_flight = 0
        self.admitted_total = 0
        self.shed_total = 0

    def try_enter(self) -> bool:
        with self._lock:
            if self.in_flight >= self.watermark:
                self.shed_total += 1
                return False
            self.in_flight += 1
            self.admitted_total += 1
            return True

    def exit(self) -> None:
        with self._lock:
            self.in_flight -= 1


class AnswerRows:
    """Each device's encoded ``/decide`` row, kept while its threshold holds.

    A row's α and offload rate are a pure function of (device, threshold)
    for the service's frozen population and kernel, so one slot per
    device — the threshold it was encoded at, and the row's JSON bytes —
    is valid exactly while that device's threshold is unchanged.  The
    cache never holds more than N slots, however γ̂ moves.
    """

    def __init__(self, n: int):
        self._threshold = np.full(n, -1, dtype=np.int64)    # -1: empty
        self._rows = [b""] * n
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Filled slots."""
        return int(np.count_nonzero(self._threshold >= 0))

    def join(self, ids: np.ndarray, id_list: list, thresholds: np.ndarray,
             decisions: list) -> bytes:
        """``b", ".join`` of the encoded ``decisions`` rows.

        Only rows whose slot is empty or stale are encoded, all in one
        ``json.dumps`` of their list (the encoder the whole answer would
        use); the rest are reused.
        """
        rows = self._rows
        with self._lock:
            stale = np.flatnonzero(self._threshold[ids] != thresholds)
            if stale.size:
                indices = stale.tolist()
                # Rows hold numbers under fixed keys, so "}, {" occurs
                # only between two rows of the encoded list.
                text = json.dumps([decisions[i] for i in indices])
                for index, row in zip(indices,
                                      text[2:-2].encode().split(b"}, {")):
                    rows[id_list[index]] = b"{" + row + b"}"
                self._threshold[ids[stale]] = thresholds[stale]
            return b", ".join([rows[device] for device in id_list])


class DecideAnswer(dict):
    """The JSON-ready ``/decide`` payload, able to encode itself cheaply.

    :meth:`json_body` returns ``(json.dumps(self) + "\\n").encode()`` for
    the answer as :meth:`DecisionService.decide` built it, with the rows
    taken from the service's :class:`AnswerRows`; the HTTP layer calls it
    in place of ``json.dumps``.
    """

    __slots__ = ("_rows", "_ids", "_id_list", "_thresholds")

    def __init__(self, fields: dict, rows: AnswerRows, ids: np.ndarray,
                 id_list: list, thresholds: np.ndarray):
        super().__init__(fields)
        self._rows, self._ids = rows, ids
        self._id_list, self._thresholds = id_list, thresholds

    def json_body(self) -> bytes:
        head = json.dumps({key: self[key]
                           for key in ("round", "gamma", "stale")})
        rows = self._rows.join(self._ids, self._id_list, self._thresholds,
                               self["decisions"])
        # A single-device answer repeats its row's keys after the list.
        inline = b", " + rows[1:-1] if "device" in self else b""
        return b"".join((head[:-1].encode(), b', "decisions": [', rows,
                         b"]", inline, b"}\n"))


class DecisionService:
    """The long-lived DTU decision service (transport-agnostic core).

    Thread model: the coordinator runs on the driver's loop thread;
    ``decide``/``join``/``leave``/``state`` are called from arbitrary
    threads and only *read* actor state (plain floats/ints, GIL-atomic)
    — every write is marshalled to the loop thread as one call into the
    coordinator's report table.
    """

    def __init__(
        self,
        population: Population,
        config: Optional[ServeConfig] = None,
        delay_model: Optional[EdgeDelayModel] = None,
        recorder: Optional[Recorder] = None,
        kernel: Optional[CompiledMeanField] = None,
    ):
        self.population = population
        self.config = config or ServeConfig()
        self.delay_model = delay_model if delay_model is not None \
            else PAPER_DELAY_MODEL
        self.kernel = kernel if kernel is not None else \
            compile_mean_field(population, self.delay_model)
        if self.kernel.population is not population:
            raise ValueError("kernel was compiled for a different population")
        # The registry always exists (it feeds /metrics); tracer/spans
        # arrive via an explicit recorder from the caller.
        if recorder is not None and getattr(recorder, "enabled", False):
            self._obs = recorder
            self.registry = getattr(recorder, "registry", MetricsRegistry())
        else:
            self.registry = MetricsRegistry()
            self._obs = ObsRecorder(self.registry)
        self.driver = WallClockDriver()
        self.coordinator = ServingCoordinator(
            runtime=self.driver,
            transport=LocalTransport(self.driver, record_log=False),
            devices=range(population.size),
            capacity=population.capacity,
            config=self.config.protocol(),
            recorder=self._obs,
        )
        self.admission = AdmissionController(self.config.watermark)
        self.load = WindowedRateEstimator(
            window=self.config.load_window,
            total_capacity=self.config.rate_capacity,
        )
        self._load_lock = threading.Lock()
        self.rows = AnswerRows(population.size)
        self._started = False
        # Pre-create the serving instruments so first-touch registry
        # mutation never races across handler threads.
        for name in ("serve.requests", "serve.decisions", "serve.shed",
                     "serve.joins", "serve.leaves", "serve.errors"):
            self.registry.counter(name)
        self.registry.histogram("serve.batch_size")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DecisionService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._obs.event("serve.start", n_users=self.population.size,
                        round_period=self.config.round_period,
                        watermark=self.config.watermark)
        self.driver.start([self.coordinator.run()])
        return self

    def stop(self) -> None:
        if self._started:
            self.driver.stop()
            self._obs.event("serve.stop", rounds=self.coordinator.round,
                            gamma_hat=self.coordinator.stepper.estimate)

    def __enter__(self) -> "DecisionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def healthy(self) -> bool:
        return self._started and not self.driver.stopping \
            and self.driver.failure is None

    # -- queries -----------------------------------------------------------

    def decide(self, devices: Union[int, Sequence[int]],
               report: bool = True) -> DecideAnswer:
        """Thresholds for a device batch at the current γ̂ — one probe.

        Returns a JSON-ready payload, a dict that can also encode itself
        from the row cache (:class:`DecideAnswer`).  ``report=True`` (the
        default) writes the decisions into the coordinator's report
        table, so served traffic *is* the measurement population.  Raises
        :class:`ValueError` for unknown device ids or an oversized batch
        (the HTTP layer maps that to 400/413).
        """
        single = np.isscalar(devices)
        # A copy: the queued report must not see a caller's later writes.
        ids = np.array(devices, dtype=np.int64, ndmin=1)
        if ids.size == 0:
            raise ValueError("empty device batch")
        if ids.size > self.config.max_batch:
            raise ValueError(
                f"batch of {ids.size} exceeds max_batch="
                f"{self.config.max_batch}")
        if ids.min() < 0 or ids.max() >= self.population.size:
            raise ValueError(
                f"device ids must be in [0, {self.population.size})")

        # One consistent read of the coordinator's scalars; a concurrent
        # round update gives the next request the new γ̂, never a torn one.
        gamma = self.coordinator.stepper.estimate
        round_number = self.coordinator.round
        thresholds = self.kernel.user_thresholds(ids, gamma)
        alphas = self.kernel.user_alphas(ids, thresholds)
        rates = self.population.arrival_rates[ids] * alphas

        if report:
            self.driver.submit(functools.partial(
                self._ingest_reports, ids, round_number, thresholds, rates))
        now = self.driver.now
        with self._load_lock:
            self.load.record(now)
        self.registry.inc("serve.requests")
        self.registry.inc("serve.decisions", float(ids.size))
        self.registry.observe("serve.batch_size", float(ids.size))

        id_list = ids.tolist()
        decisions = [
            {"device": device, "threshold": threshold,
             "offload_probability": alpha, "offload_rate": rate}
            for device, threshold, alpha, rate
            in zip(id_list, thresholds.tolist(), alphas.tolist(),
                   rates.tolist())
        ]
        payload = DecideAnswer(
            {"round": round_number, "gamma": gamma, "stale": self.stale,
             "decisions": decisions},
            self.rows, ids, id_list, thresholds)
        if single:
            payload.update(decisions[0])
        return payload

    def trace_rounds(self, spans) -> None:
        """Record the coordinator's round spans into ``spans``.

        ``spans`` has a :class:`~repro.obs.spans.SpanCollector`'s
        ``start``/``end``; the coordinator calls them from the loop
        thread, so a collector shared with other threads must lock.
        """
        self._obs.spans = spans

    def join(self, devices: Union[int, Iterable[int]]) -> int:
        """Announce membership for a device batch."""
        return self._membership(devices, joining=True)

    def leave(self, devices: Union[int, Iterable[int]]) -> int:
        return self._membership(devices, joining=False)

    def _membership(self, devices, joining: bool) -> int:
        ids = np.array(devices, dtype=np.int64, ndmin=1)
        if ids.size and (ids.min() < 0 or ids.max() >= self.population.size):
            raise ValueError(
                f"device ids must be in [0, {self.population.size})")
        self.driver.submit(functools.partial(
            self.coordinator.set_membership, ids, joining))
        self.registry.inc("serve.joins" if joining else "serve.leaves",
                          float(ids.size))
        return int(ids.size)

    # -- loop-thread ingestion (called via driver.submit only) -------------

    def _ingest_reports(self, ids: np.ndarray, round_number: int,
                        thresholds: np.ndarray, rates: np.ndarray) -> None:
        self.coordinator.ingest_reports(ids, round_number, thresholds, rates,
                                        join=self.config.auto_join)

    # -- state -------------------------------------------------------------

    @property
    def stale(self) -> bool:
        """True when the served γ̂ predates the re-estimation deadline.

        A round is in flight past its period — silence backoff or an
        overloaded loop — so the estimate may be superseded shortly.
        """
        if self.coordinator.rounds_completed == 0:
            return True      # nothing measured yet: γ̂ is the initial guess
        overdue = self.driver.now - self.coordinator.last_round_ended
        return overdue > self.config.staleness_factor \
            * self.config.round_period

    def state(self) -> dict:
        """The service's JSON-ready ``/state`` document."""
        coordinator = self.coordinator
        now = self.driver.now
        with self._load_lock:
            load = self.load.measure(now)
        return {
            "gamma": coordinator.stepper.estimate,
            "eta": coordinator.stepper.step,
            "round": coordinator.round,
            "iterations": coordinator.iterations,
            "silent_rounds": coordinator.silent_rounds,
            "converged": coordinator.stepper.converged,
            "stale": self.stale,
            "last_round_status": coordinator.last_round_status,
            "population": self.population.size,
            "members": coordinator.joined,
            "uptime_seconds": now,
            "load": load,
            "in_flight": self.admission.in_flight,
            "admitted_total": self.admission.admitted_total,
            "shed_total": self.admission.shed_total,
            "healthy": self.healthy,
        }

    def __repr__(self) -> str:
        return (f"DecisionService(n={self.population.size}, "
                f"round={self.coordinator.round}, "
                f"gamma={self.coordinator.stepper.estimate:.4f}, "
                f"{'running' if self.healthy else 'stopped'})")
