"""The ``serve`` workload: the decision daemon as a separate process.

Each session boots a fresh ``python -m repro serve --users 10000``
daemon, waits for ``/healthz``, then one client thread on one keep-alive
connection sends a fixed number of pre-encoded ``/decide`` bodies of
1000 seeded device ids in a closed loop (each caller waits for its
answer).  A single connection keeps the client from competing with the
daemon's handler and loop threads for the host's two cores.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks, metrics, stats, tracing
from perfbench.batch import SCENARIO, Run

N_USERS = 10_000
BATCH = 1_000
SESSION_REQUESTS = 400
#: p99 needs at least ten samples beyond it.
MIN_REQUESTS = 1_000
#: A traced run makes two untraced and two traced sessions of this size;
#: the traced pair gives p99 its 1000 samples.
TRACE_SESSION_REQUESTS = 500
#: Every n-th answer is re-derived offline after the session.
SAMPLE_EVERY = 10
HEADERS = {"Content-Type": "application/json"}
BOOT_TIMEOUT = 60.0


class Daemon:
    """One freshly booted decision daemon; ``close`` stops it (SIGINT)."""

    def __init__(self, root: Path, seed: int,
                 spans_path: Optional[Path] = None):
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        if spans_path is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(root / "perfbench"
                                           / "serve_daemon.py"),
                       "--spans", str(spans_path), "--"]
        command += ["serve", "--users", str(N_USERS), "--seed", str(seed),
                    "--port", "0"]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=root, env=env,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.host, self.port = self._address()
            self._await_healthy()
        except BaseException:
            self.close()
            raise
        self.boot_s = time.perf_counter() - started

    def _address(self) -> Tuple[str, int]:
        marker = "serving decisions at http://"
        deadline = time.monotonic() + BOOT_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("daemon exited before serving")
                if marker in line:
                    address = line.split(marker, 1)[1].split()[0]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError("daemon did not announce its address in time")

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited before it was healthy")
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = 0
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("daemon was not healthy in time")

    def connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        """The daemon's own ``/metrics`` samples, by metric name."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                values[name] = float(value)
        return values

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.communicate()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class Session:
    """One closed-loop session against one daemon."""

    boot_s: float
    wall_s: float
    starts: List[float]
    latencies: List[float]
    statuses: List[int]
    answers: Dict[int, bytes]
    counters: Dict[str, float]
    peak_rss_mb: float
    problems: List[str] = field(default_factory=list)


def _bodies(rng: np.random.Generator, count: int):
    ids = [rng.integers(0, N_USERS, BATCH) for _ in range(count)]
    return ids, [json.dumps({"devices": batch.tolist()}).encode()
                 for batch in ids]


def _session(daemon: Daemon, bodies: List[bytes]) -> Session:
    starts, latencies, statuses, answers = [], [], [], {}
    problems = []
    conn = daemon.connect()
    first = time.perf_counter()
    try:
        for index, body in enumerate(bodies):
            started = time.perf_counter()
            conn.request("POST", "/decide", body=body, headers=HEADERS)
            response = conn.getresponse()
            data = response.read()
            latencies.append(time.perf_counter() - started)
            starts.append(started)
            statuses.append(response.status)
            if index % SAMPLE_EVERY == 0:
                answers[index] = data
    except (OSError, http.client.HTTPException) as error:
        problems.append(f"request {len(statuses)} failed: {error!r}")
    finally:
        wall_s = time.perf_counter() - first
        conn.close()
    return Session(daemon.boot_s, wall_s, starts, latencies, statuses,
                   answers, daemon.counters(), daemon.peak_rss_mb(),
                   problems)


def _check(session: Session, kernel, ids, repeat: checks.RepeatCheck,
           run: Run) -> None:
    """Count failed requests and session-level check failures."""
    requests = len(ids)
    bad = {index for index, status in enumerate(session.statuses)
           if status != 200}
    bad |= set(range(len(session.statuses), requests))
    for index, body in session.answers.items():
        problems = checks.check_decide(kernel, ids[index], body)
        if problems:
            bad.add(index)
            run.problems += [f"request {index}: {p}" for p in problems]
    run.attempted += requests
    run.failed += len(bad)
    if bad:
        statuses = sorted({session.statuses[i] for i in bad
                           if i < len(session.statuses)})
        run.problems.append(f"{len(bad)} of {requests} requests failed "
                            f"(statuses {statuses})")
    counters = session.counters
    counts = {name: counters.get(f"repro_serve_{name}_total", -1.0)
              for name in ("requests", "decisions", "shed", "errors")}
    problems = list(session.problems)
    if counts["requests"] != requests or counts["decisions"] != \
            requests * BATCH or counts["shed"] or counts["errors"]:
        problems.append(f"daemon counters disagree with the client: {counts}")
    # Sessions differ in length between the untraced and traced runs, so
    # the repeated counts are per request.
    problems += repeat.check({
        "decisions_per_request": counts["decisions"] / requests,
        "shed": counts["shed"], "errors": counts["errors"]})
    if problems:
        run.failed += 1
        run.problems += problems


def run(root: Path, seed: int, seconds: float, traced: bool,
        repeat: checks.RepeatCheck) -> Run:
    from repro.core import kernels
    from repro.population import sampler, scenarios

    result = Run()
    started = time.perf_counter()
    population = sampler.sample_population(
        scenarios.build_scenario(SCENARIO), N_USERS, rng=seed)
    sample_s = time.perf_counter() - started
    # The offline reference: the same seeded population the daemon
    # draws from its --seed.
    kernel = kernels.compile_mean_field(population)
    rng = np.random.default_rng([seed, BATCH])

    if traced:
        return _traced(root, seed, rng, kernel, sample_s, repeat, result)

    sessions: List[Session] = []
    begin = time.perf_counter()
    while (sum(len(s.latencies) for s in sessions) < MIN_REQUESTS
           or time.perf_counter() - begin < seconds):
        ids, bodies = _bodies(rng, SESSION_REQUESTS)
        with Daemon(root, seed) as daemon:
            session = _session(daemon, bodies)
        _check(session, kernel, ids, repeat, result)
        sessions.append(session)

    latencies = [x for s in sessions for x in s.latencies]
    answered = sum(s.statuses.count(200) for s in sessions)
    result.metrics = {
        "setup_s": stats.median([s.boot_s for s in sessions]),
        "peak_rss_mb": stats.median([s.peak_rss_mb for s in sessions]),
        "op_s": stats.median(latencies),
        "decisions_per_s": answered * BATCH
        / sum(s.wall_s for s in sessions),
    }
    result.notes.append(
        f"{len(sessions)} sessions x {SESSION_REQUESTS} requests of "
        f"{BATCH} ids; {len(latencies)} latency samples")
    result.notes.append(_latency_note(latencies))
    return result


def _latency_note(latencies: List[float]) -> str:
    parts = []
    for pct in (50, 99):
        try:
            parts.append(f"p{pct} {stats.percentile(latencies, pct) * 1e3:.2f} ms")
        except stats.TooFewSamples as error:
            parts.append(f"p{pct} refused ({error})")
    return "request latency " + ", ".join(parts) + \
        f" over {len(latencies)} samples"


def _traced_session(root: Path, seed: int, bodies: List[bytes]):
    """A session on a daemon booted with span wrappers; returns its spans."""
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    spans_path = scratch / f"serve-spans-{os.getpid()}.jsonl"
    meta_path = Path(str(spans_path) + ".meta.json")
    try:
        with Daemon(root, seed, spans_path) as daemon:
            session = _session(daemon, bodies)
        spans = tracing.SpanLog.load(spans_path)
        table_bytes = json.loads(meta_path.read_text())["table_bytes"]
    finally:
        for path in (spans_path, meta_path):
            path.unlink(missing_ok=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    return session, spans, table_bytes


def _traced(root: Path, seed: int, rng, kernel, sample_s: float,
            repeat: checks.RepeatCheck, result: Run) -> Run:
    ids, bodies = _bodies(rng, TRACE_SESSION_REQUESTS)
    plain: List[Session] = []
    traced: List[Tuple[Session, list]] = []
    table_bytes = 0
    # Untraced, traced, traced, untraced: a drift in host speed across
    # the run weighs on both sides alike.
    for with_spans in (False, True, True, False):
        if with_spans:
            session, spans, table_bytes = _traced_session(root, seed, bodies)
            traced.append((session, spans))
        else:
            with Daemon(root, seed) as daemon:
                session = _session(daemon, bodies)
            plain.append(session)
        _check(session, kernel, ids, repeat, result)

    parts, boots, drains, slow = [], [], [], []
    for session, spans in traced:
        first = session.starts[0]
        last = session.starts[-1] + session.latencies[-1]
        # CPU seconds: the handler and loop threads run concurrently.
        parts.append(tracing.split(spans, window=(first, last), cpu=True))
        boots.append(tracing.split(spans, window=(0.0, first), cpu=True))
        drains += [(s[3], s[4], s[5]) for s in spans
                   if s[2] == "serve.drain" and first <= s[3] <= last]
        slow += list(zip(session.starts, session.latencies))
    values = metrics.from_split(tracing.merge(parts), 1)
    boot = tracing.merge(boots)
    requests = len(slow)
    if values["serve.requests"] != requests:
        result.failed += 1
        result.problems.append(
            f"wrappers saw {values['serve.requests']:g} /decide calls, "
            f"the client sent {requests}")

    op_s = sum(session.wall_s for session, _ in traced)
    counters = [session.counters for session, _ in traced]
    values.update({
        "trace.op_s": op_s,
        "unattributed_s": op_s - sum(values[f"{layer}.self_s"]
                                     for layer in metrics.OP_LAYERS),
        "trace.overhead_s": op_s - sum(session.wall_s for session in plain),
        "population.sample_s": sample_s,
        "kernels.setup_build_s": (boot.self_s["kernels.build"]
                                  + boot.self_s["kernels.fill"])
        / len(traced),
        "kernels.table_bytes": table_bytes,
        "serve.shed": sum(c.get("repro_serve_shed_total", 0.0)
                          for c in counters),
        "serve.errors": sum(c.get("repro_serve_errors_total", 0.0)
                            for c in counters),
        "serve.measure_max_s": max((end - start for start, end, _ in drains),
                                   default=0.0),
        "serve.reports_per_round": (sum(d[2] for d in drains)
                                    / len(drains)) if drains else 0.0,
        "serve.slow_in_measure": _slow_in_measure(slow, drains),
    })
    result.metrics = {name: values.get(name, 0.0)
                      for name in metrics.PER_LAYER}
    result.notes.append(
        f"sessions of {len(bodies)} requests: untraced "
        + ", ".join(f"{s.wall_s:.3f} s" for s in plain) + "; traced "
        + ", ".join(f"{s.wall_s:.3f} s" for s, _ in traced)
        + f"; {sum(len(spans) for _, spans in traced)} daemon spans, "
        f"{len(drains)} rounds while traced")
    result.notes.append("untraced " + _latency_note(
        [x for s in plain for x in s.latencies]))
    result.notes.append("traced " + _latency_note([x for _, x in slow]))
    return result


def _slow_in_measure(requests: List[Tuple[float, float]], drains) -> float:
    """Share of the requests beyond p99 that overlap a round's drain.

    ``requests`` are (start, latency) pairs.  Client and daemon clocks are
    both ``time.perf_counter`` (the system-wide monotonic clock), so
    request intervals and daemon spans compare directly.
    """
    try:
        cut = stats.percentile([latency for _, latency in requests], 99)
    except stats.TooFewSamples:
        return 0.0
    slow = [(start, start + latency) for start, latency in requests
            if latency > cut]
    if not slow:
        return 0.0
    hit = sum(any(d_start < end and start < d_end
                  for d_start, d_end, _ in drains)
              for start, end in slow)
    return hit / len(slow)
