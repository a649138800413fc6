"""The ``serve`` workload: open-loop load against a ``repro serve`` daemon.

The daemon runs as a subprocess (``python -m repro serve --socket …
--jobs 2``).  One single-threaded selector loop drives it over two
connections as independent users would: requests are due at seeded
Poisson arrival times and sent then, whether or not earlier ones have
been answered, and each is timed from the moment it was due — so a
stall shows in every request it delays.  Every reply is checked with
``protocol.validate_response`` and against the reference.

Each phase carries the mix in exact proportions (60% well-typed, 20%
ill-typed, 10% ``deep_expr(30)``, 5% ``check``, 5% ``module``) in seeded
order: a ``deep_expr`` request costs ~20x a well-typed one, so letting
the share drift with the draw would move every latency with the seed.

Phases: 100 req/s (light), 200 req/s (heavy), a closed loop with one
request in flight, then a bisection for the highest offered rate whose
p99 stays within :data:`LATENCY_LIMIT_MS` with no failures and no
growing backlog.  Latencies are scaled to reference speed by the
:class:`~benchmarks.pipeline.stats.Speedometer` the loop samples while
it waits for replies.  README.md says which phase feeds which metric.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.evalsuite.figure2 import FIGURE2
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.observability import read_trace, spans_from_events
from repro.robustness import protocol
from repro.robustness.loadgen import ILL_TYPED, WELL_TYPED, deep_expr

from benchmarks.pipeline.layers import (
    SelfTimes,
    counts_from_snapshot,
    layer_metrics,
    layer_table,
    validate_trace,
)
from benchmarks.pipeline.reference import Reference, deep_expr_type, module_types, same_type
from benchmarks.pipeline.stats import (
    TAIL_PERCENTILE,
    Speedometer,
    median_per_input,
    nearest_rank,
    tail,
)

CONNECTIONS = 2
LIGHT_RPS = 100.0
HEAVY_RPS = 200.0
TRACED_RPS = 50.0
"""The traced run's rate: tracing makes a ``deep_expr`` request several
times slower, and 100 req/s would overload the traced daemon."""

QUEUE_LIMIT = 100_000
"""The daemon's admission limit, far above any backlog a run builds: a
slow or contended host makes a phase queue, never shed."""

LATENCY_LIMIT_MS = 50.0
KNEE_PROBES = 3
DEEP_DEPTH = 30
GRACE_S = 10.0
"""How long a phase waits for replies after its last request was due."""

#: Share of the run length per phase.
LIGHT_SHARE, HEAVY_SHARE, CAPACITY_SHARE, PROBE_SHARE = 0.25, 0.12, 0.45, 0.04
TRACED_SHARE = 0.35

#: Request kinds and their exact share of every phase, per 20 requests.
MIX = (("well", 12), ("ill", 4), ("deep", 2), ("check", 1), ("module", 1))

#: A 10-binding module (2 chains of 4, plus two impredicative bindings).
MODULE_SOURCE = synthetic_module_source(2, 4)
MODULE_TYPES = module_types(MODULE_SOURCE)

_sockets = itertools.count()


class Daemon:
    """One ``repro serve`` subprocess on a Unix socket under ``out_dir``."""

    def __init__(self, out_dir: Path, trace_path: Path | None = None) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        # A relative path keeps the socket name under the AF_UNIX length
        # limit wherever the checkout lives.
        self.socket_path = os.path.relpath(out_dir / f"serve-{os.getpid()}-{next(_sockets)}.sock")
        self.trace_path = trace_path
        self.log_path = out_dir / "serve-daemon.log"
        self.process: subprocess.Popen | None = None

    def start(self) -> tuple[float, socket.socket]:
        """Spawn the daemon; returns seconds from spawn to the first
        hello, and the connection that read it."""
        command = [
            sys.executable, "-m", "repro", "serve", "--socket", self.socket_path,
            "--jobs", "2", "--queue-limit", str(QUEUE_LIMIT),
        ]
        if self.trace_path is not None:
            command += ["--trace", str(self.trace_path)]
        started = time.perf_counter()
        with open(self.log_path, "a", encoding="utf-8") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log)
        sock = self._connect(started + 60.0)
        return time.perf_counter() - started, sock

    def connect(self) -> socket.socket:
        return self._connect(time.perf_counter() + 10.0)

    def _connect(self, deadline: float) -> socket.socket:
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}; see {self.log_path}")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)
        sock.settimeout(30.0)
        hello = json.loads(_read_line(sock))
        problems = protocol.validate_hello(hello)
        if problems:
            raise RuntimeError(f"bad hello: {problems}")
        return sock

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (a graceful drain) and wait; returns the exit code."""
        if self.process is None or self.process.poll() is not None:
            return self.process.returncode if self.process else 0
        self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -signal.SIGKILL


def _read_line(sock: socket.socket) -> str:
    data = bytearray()
    while not data.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        data += chunk
    return data.decode("utf-8")


def probe_setup(out_dir: Path) -> float:
    """One set-up sample: spawn a daemon, time it to its hello, drain it."""
    daemon = Daemon(out_dir)
    try:
        seconds, sock = daemon.start()
        sock.close()
    finally:
        code = daemon.stop()
    if code != 0:
        raise RuntimeError(f"repro serve drained with exit code {code}")
    return seconds


# ----------------------------------------------------------------------
# Requests and their expected outcomes
# ----------------------------------------------------------------------


@dataclass
class Request:
    id: int
    kind: str
    fields: dict
    accept: bool
    type_: str | None = None
    due: float = 0.0
    """Seconds after the phase start at which the request is due."""

    conn: int = 0
    due_at: float = 0.0
    """``time.perf_counter()`` value at which the request was due."""

    sent: float = 0.0
    reply: dict | None = None
    latency: float | None = None
    """Seconds from due time to reply."""


class Mix:
    """The seeded request mix (see :data:`MIX`)."""

    def __init__(self, rng: random.Random, reference: Reference) -> None:
        self.rng = rng
        self.ids = itertools.count(1)
        accepted = [row for row in FIGURE2 if reference.accepts(row.key)]
        self.well = [(source, None) for source in WELL_TYPED] + [
            (row.source, row.gi_type) for row in accepted
        ]
        self.ill = list(ILL_TYPED) + [row.source for row in FIGURE2 if not reference.accepts(row.key)]
        self.typed_rows = [row for row in accepted if row.gi_type]
        self.deep = deep_expr(DEEP_DEPTH)

    def request(self, kind: str) -> Request:
        rng = self.rng
        request_id = next(self.ids)
        if kind == "well":
            source, type_ = rng.choice(self.well)
            return Request(request_id, kind, {"op": "infer", "expr": source}, True, type_)
        if kind == "ill":
            return Request(request_id, kind, {"op": "infer", "expr": rng.choice(self.ill)}, False)
        if kind == "deep":
            return Request(request_id, kind, {"op": "infer", "expr": self.deep}, True, deep_expr_type(DEEP_DEPTH))
        if kind == "check":
            row = rng.choice(self.typed_rows)
            fields = {"op": "check", "expr": row.source, "signature": row.gi_type}
            return Request(request_id, kind, fields, True, row.gi_type)
        fields = {"op": "module", "source": MODULE_SOURCE, "stats": True}
        return Request(request_id, kind, fields, True)

    def batch(self, count: int) -> list[Request]:
        """``count`` requests with the mix in exact proportions (up to
        rounding), in seeded order."""
        block = sum(share for _, share in MIX)
        kinds = [kind for kind, share in MIX for _ in range(round(count * share / block))]
        kinds += ["well"] * (count - len(kinds))
        self.rng.shuffle(kinds)
        return [self.request(kind) for kind in kinds[:count]]

    def schedule(self, rate: float, seconds: float) -> list[Request]:
        """Poisson arrivals at ``rate`` per second for ``seconds``."""
        dues = []
        due = self.rng.expovariate(rate)
        while due < seconds:
            dues.append(due)
            due += self.rng.expovariate(rate)
        requests = self.batch(len(dues))
        for request, due in zip(requests, dues):
            request.due = due
        return requests


def check_reply(request: Request) -> str | None:
    """``None`` if the reply is what the reference expects, else why not."""
    reply = request.reply
    if reply is None:
        return "lost"
    if not reply["ok"]:
        error = reply["error"]
        if error["severity"] == protocol.SEVERITY_OVERLOADED:
            return "shed"
        if error["class"] == "DeadlineExpired":
            return "deadline"
        if error["severity"] != protocol.SEVERITY_ERROR:
            return error["severity"]
        if request.accept:
            return f"rejected {request.fields.get('expr', 'module')!r}: {error['class']}"
        return None
    if not request.accept:
        return f"accepted ill-typed {request.fields['expr']!r}"
    if request.fields["op"] == "module":
        if reply["failed"] or reply["cached"] not in (0, reply["total"]):
            return f"module: {reply['failed']} failed, {reply['cached']} cached"
        for name, rendered in reply["types"].items():
            if not same_type(rendered, MODULE_TYPES[name]):
                return f"module binding {name} :: {rendered!r}"
        return None
    if request.type_ is not None and not same_type(reply["type"], request.type_):
        return f"{request.fields['expr']!r} :: {reply['type']!r}, expected {request.type_!r}"
    return None


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


class Connection:
    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.writing = False

    def flush(self) -> None:
        try:
            sent = self.sock.send(self.wbuf)
        except BlockingIOError:
            return
        del self.wbuf[:sent]

    def read_lines(self) -> list[bytes]:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon closed a connection")
        self.rbuf += chunk
        *lines, rest = self.rbuf.split(b"\n")
        self.rbuf = bytearray(rest)
        return lines


@dataclass
class Phase:
    requests: list[Request]
    violations: list[str]
    backlog: list[tuple[float, int]]
    """``(seconds into the phase, outstanding requests)`` samples."""

    start: float = 0.0
    end: float = 0.0


class LoadGenerator:
    """Sends scheduled requests and matches replies over the connections."""

    def __init__(self, socks: list[socket.socket], speed: Speedometer) -> None:
        self.connections = [Connection(sock) for sock in socks]
        self.speed = speed
        self.selector = selectors.DefaultSelector()
        for connection in self.connections:
            self.selector.register(connection.sock, selectors.EVENT_READ, connection)

    def close(self) -> None:
        self.selector.close()
        for connection in self.connections:
            connection.sock.close()

    def _send(self, request: Request, index: int, now: float) -> None:
        request.conn = index % len(self.connections)
        request.sent = now
        payload = {"v": protocol.PROTO_VERSION, "id": request.id, **request.fields}
        self.connections[request.conn].wbuf += protocol.encode(payload)

    def _flush(self) -> None:
        for connection in self.connections:
            if connection.wbuf:
                connection.flush()

    def _pump(self, timeout: float, pending: dict, violations: list, on_reply=None) -> None:
        for connection in self.connections:
            if bool(connection.wbuf) != connection.writing:
                connection.writing = bool(connection.wbuf)
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if connection.writing else 0)
                self.selector.modify(connection.sock, events, connection)
        for key, mask in self.selector.select(timeout):
            connection = key.data
            if mask & selectors.EVENT_WRITE:
                connection.flush()
            if mask & selectors.EVENT_READ:
                lines = connection.read_lines()
                now = time.perf_counter()
                for line in lines:
                    reply = json.loads(line)
                    problems = protocol.validate_response(reply)
                    request = pending.pop(reply.get("id"), None)
                    if problems or request is None:
                        violations.append(f"{problems or 'unexpected id'}: {line[:200]!r}")
                        continue
                    request.reply = reply
                    request.latency = now - request.due_at
                    if on_reply is not None:
                        on_reply(request, now)

    def open_loop(self, requests: list[Request]) -> Phase:
        """Send each request when due; wait up to :data:`GRACE_S` after
        the last one for every reply."""
        violations: list[str] = []
        backlog: list[tuple[float, int]] = []
        pending: dict[int, Request] = {}
        start = time.perf_counter()
        for request in requests:
            request.due_at = start + request.due
        end = (requests[-1].due_at if requests else start) + GRACE_S
        index = 0
        next_sample = start
        while index < len(requests) or pending:
            now = time.perf_counter()
            if now > end:
                break
            while index < len(requests) and requests[index].due_at <= now:
                self._send(requests[index], index, now)
                pending[requests[index].id] = requests[index]
                index += 1
            self._flush()
            if now >= next_sample:
                backlog.append((now - start, len(pending)))
                next_sample = now + 0.05
            wait = requests[index].due_at - time.perf_counter() if index < len(requests) else 0.05
            if wait > 0.002:
                self.speed.tick()
                wait = requests[index].due_at - time.perf_counter() if index < len(requests) else 0.05
            self._pump(min(max(wait, 0.0), 0.05), pending, violations)
        return Phase(requests, violations, backlog, start, time.perf_counter())

    def closed_loop(self, mix: Mix, seconds: float) -> Phase:
        """Keep one request outstanding on the first connection for
        ``seconds``, cycling through one batch of the mix."""
        violations: list[str] = []
        pending: dict[int, Request] = {}
        done: list[Request] = []
        cycle = itertools.cycle([request.kind for request in mix.batch(100)])
        start = time.perf_counter()
        deadline = start + seconds

        def send(index: int, now: float) -> None:
            request = mix.request(next(cycle))
            request.due_at = now
            self._send(request, index, now)
            pending[request.id] = request
            done.append(request)

        def on_reply(request: Request, now: float) -> None:
            # Calibrate between requests, never while one is in flight.
            self.speed.tick()
            now = time.perf_counter()
            if now < deadline:
                send(request.conn, now)

        send(0, start)
        while pending and time.perf_counter() < deadline + GRACE_S:
            self._flush()
            self._pump(0.05, pending, violations, on_reply)
        return Phase(done, violations, [], start, time.perf_counter())


# ----------------------------------------------------------------------
# Phase summaries
# ----------------------------------------------------------------------


def summarise(phase: Phase, speed: Speedometer) -> dict:
    """Failures, latencies at reference speed, and the per-layer
    numbers the replies carry."""
    replied = [request for request in phase.requests if request.reply is not None]
    problems = [check_reply(request) for request in phase.requests]
    failures = [problem for problem in problems if problem is not None]
    late = [(request.sent - request.due_at) * 1000.0 for request in phase.requests if request.sent]
    summary = {
        "sent": len(phase.requests),
        "replied": len(replied),
        "failures": len(failures) + len(phase.violations),
        "hard_failures": sum(1 for problem in failures if problem not in ("shed", "deadline"))
        + len(phase.violations),
        "failure_kinds": sorted(set(failures))[:10] + phase.violations[:5],
        "late_ms_p99": nearest_rank(sorted(late), 99) if late else 0.0,
        "growing_backlog": _growing(phase.backlog),
    }
    if not replied:
        return summary
    raw = [request.latency * 1000.0 for request in replied]
    latencies = [speed.scale(request.due_at, request.latency) * 1000.0 for request in replied]
    exec_ms, wire_ms = [], []
    for request, latency in zip(replied, latencies):
        if "ms" in request.reply:
            exec_ms.append(request.reply["ms"] * speed.factor(request.due_at))
            wire_ms.append(latency - exec_ms[-1])
    exec_ms.sort()
    wire_ms.sort()
    p99, p99_beyond = tail(latencies, 99)
    tail_ms, tail_beyond = tail(latencies, TAIL_PERCENTILE["serve"])
    summary.update(
        mean_ms=statistics.mean(latencies),
        p50_ms=statistics.median(latencies),
        p50_per_kind_ms=median_per_input(_by_kind(replied, latencies)),
        p99_ms=p99,
        p99_beyond=p99_beyond,
        tail_ms=tail_ms,
        tail_beyond=tail_beyond,
        raw_mean_ms=statistics.mean(raw),
        raw_p50_per_kind_ms=median_per_input(_by_kind(replied, raw)),
        raw_tail_ms=nearest_rank(sorted(raw), TAIL_PERCENTILE["serve"]),
        exec_ms_p50=statistics.median(exec_ms),
        exec_ms_p99=nearest_rank(exec_ms, 99),
        wire_ms_p50=statistics.median(wire_ms),
        wire_ms_p99=nearest_rank(wire_ms, 99),
    )
    return summary


def _by_kind(requests: list[Request], values: list[float]) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for request, value in zip(requests, values):
        groups.setdefault(request.kind, []).append(value)
    return groups


def _growing(backlog: list[tuple[float, int]]) -> bool:
    """Whether the outstanding count rose over the phase: the last
    third's mean is more than twice the first third's, plus two."""
    if len(backlog) < 6:
        return False
    third = len(backlog) // 3
    first = statistics.mean(count for _, count in backlog[:third])
    last = statistics.mean(count for _, count in backlog[-third:])
    return last > 2 * first + 2


def meets_limit(summary: dict) -> bool:
    return (
        summary["failures"] == 0
        and summary.get("p99_ms", float("inf")) <= LATENCY_LIMIT_MS
        and not summary["growing_backlog"]
    )


def counts(phase: Phase) -> dict[str, int]:
    """Deterministic counts over a phase's replies."""
    totals = {"solver.steps": 0, "modules.cache_hits": 0, "modules.cache_misses": 0,
              "modules.groups_checked": 0}
    for request in phase.requests:
        reply = request.reply
        if reply is None or not reply["ok"]:
            continue
        totals["solver.steps"] += reply.get("solver_steps", 0)
        stats = reply.get("stats")
        if stats:
            totals["modules.cache_hits"] += stats["cache_hits"]
            totals["modules.cache_misses"] += stats["cache_misses"]
            totals["modules.groups_checked"] += stats["groups_checked"]
    return totals


def _stats(sock: socket.socket) -> dict:
    sock.setblocking(True)
    sock.sendall(protocol.encode({"v": protocol.PROTO_VERSION, "id": "stats", "op": "stats"}))
    reply = json.loads(_read_line(sock))
    if protocol.validate_response(reply):
        raise RuntimeError(f"bad stats reply: {reply}")
    return reply


def _daemon_numbers(summary: dict, stats: dict) -> dict:
    """The serve per-layer numbers of one untraced phase and the
    daemon's ``stats`` reply after it."""
    intern = stats["intern"]
    looked_up = intern.get("hits", 0) + intern.get("misses", 0)
    return {
        "serve.exec_ms_p50": summary["exec_ms_p50"],
        "serve.exec_ms_p99": summary["exec_ms_p99"],
        "serve.wire_ms_p50": summary["wire_ms_p50"],
        "serve.wire_ms_p99": summary["wire_ms_p99"],
        "serve.intern_hit_ratio": intern.get("hits", 0) / looked_up if looked_up else 0.0,
        "serve.shed": stats["requests"]["shed"],
        "serve.internal": stats["requests"]["internal"],
        "loadgen.late_ms_p99": summary["late_ms_p99"],
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def _pin_to_one_cpu() -> None:
    """Keep this process and the daemons it spawns on one CPU.

    The two CPUs of a shared host change speed independently, and the
    calibration loop measures only the CPU it runs on; on one CPU the
    samples the generator takes between requests also time the daemon.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_serve(seed: int, reference: Reference, seconds: float, trace: bool, out_dir: Path) -> dict:
    _pin_to_one_cpu()
    mix = Mix(random.Random(f"{seed}:serve"), reference)
    speed = Speedometer()
    if trace:
        return _traced(mix, seconds, out_dir, speed)
    daemon = Daemon(out_dir)
    try:
        _, first = daemon.start()
        print("READY", flush=True)
        load = LoadGenerator([first] + [daemon.connect() for _ in range(CONNECTIONS - 1)], speed)
        speed.sample()
        light = load.open_loop(mix.schedule(LIGHT_RPS, LIGHT_SHARE * seconds))
        heavy = load.open_loop(mix.schedule(HEAVY_RPS, HEAVY_SHARE * seconds))
        closed = load.closed_loop(mix, CAPACITY_SHARE * seconds)
        capacity = sum(1 for request in closed.requests if request.reply) / (closed.end - closed.start)
        light_summary, heavy_summary, closed_summary = (
            summarise(light, speed), summarise(heavy, speed), summarise(closed, speed)
        )
        passing = [rate for rate, summary in ((LIGHT_RPS, light_summary), (HEAVY_RPS, heavy_summary))
                   if meets_limit(summary)]
        low = max(passing, default=0.0)
        high = max(capacity * 1.05, low + 25.0)
        probes = []
        for _ in range(KNEE_PROBES):
            rate = (low + high) / 2
            summary = summarise(load.open_loop(mix.schedule(rate, PROBE_SHARE * seconds)), speed)
            summary["rate"] = rate
            probes.append(summary)
            low, high = (rate, high) if meets_limit(summary) else (low, rate)
        stats = _stats(load.connections[0].sock)
        peak = daemon.peak_rss_mb()
        speed.sample()
        load.close()
    finally:
        code = daemon.stop()
    # Past the knee the daemon sheds load by design: a probe's refusals
    # decide where the limit is and are not failures of the run.  Wrong
    # verdicts, protocol violations and lost replies are failures anywhere.
    failed = (
        light_summary["failures"] + heavy_summary["failures"] + closed_summary["failures"]
        + sum(summary["hard_failures"] for summary in probes) + (code != 0)
    )
    attempted = sum(summary["sent"] for summary in (light_summary, heavy_summary, closed_summary, *probes))
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": (light_summary["failure_kinds"] + heavy_summary["failure_kinds"]
                     + closed_summary["failure_kinds"])[:10],
        "daemon_exit": code,
        "metrics": {
            "peak_rss_mb": peak,
            # Little's law: the closed loop keeps one request in flight,
            # so throughput is one over the mean latency.
            "items_per_s": 1000.0 / closed_summary["mean_ms"],
            "verdict_ms_p50": closed_summary["p50_per_kind_ms"],
            "verdict_ms_tail": closed_summary["tail_ms"],
        },
        "tail": {"percentile": TAIL_PERCENTILE["serve"], "n": closed_summary["replied"],
                 "beyond": closed_summary["tail_beyond"]},
        "inputs": len(MIX),
        "raw": {
            "items_per_s": 1000.0 / closed_summary["raw_mean_ms"],
            "verdict_ms_p50": closed_summary["raw_p50_per_kind_ms"],
            "verdict_ms_tail": closed_summary["raw_tail_ms"],
        },
        "speed": speed.summary(),
        "extras": {
            "serve_p50_ms": heavy_summary["p50_ms"],
            "serve_p99_ms": heavy_summary["p99_ms"],
            "serve_p99_beyond": heavy_summary["p99_beyond"],
            "serve_light_p99_ms": light_summary["p99_ms"],
            "serve_light_p99_beyond": light_summary["p99_beyond"],
            "serve_closed_p99_ms": closed_summary["p99_ms"],
            "serve_closed_p99_beyond": closed_summary["p99_beyond"],
            "serve_max_rps": low,
            "serve_capacity_rps": capacity,
            **_daemon_numbers(heavy_summary, stats),
        },
        "phases": {"light": light_summary, "heavy": heavy_summary, "closed": closed_summary,
                   "probes": probes},
        "counts": counts(light),
    }


def _traced(mix: Mix, seconds: float, out_dir: Path, speed: Speedometer) -> dict:
    """The same schedule against an untraced and then a traced daemon."""
    schedule = mix.schedule(TRACED_RPS, TRACED_SHARE * seconds)
    trace_path = out_dir / "trace-serve.jsonl"
    phases = {}
    stats = {}
    codes = []
    print("READY", flush=True)
    for traced in (False, True):
        requests = [
            Request(request.id, request.kind, request.fields, request.accept, request.type_, request.due)
            for request in schedule
        ]
        daemon = Daemon(out_dir, trace_path if traced else None)
        try:
            _, first = daemon.start()
            load = LoadGenerator([first] + [daemon.connect() for _ in range(CONNECTIONS - 1)], speed)
            speed.sample()
            phases[traced] = load.open_loop(requests)
            speed.sample()
            stats[traced] = _stats(load.connections[0].sock)
            load.close()
        finally:
            codes.append(daemon.stop())
    plain, traced_phase = summarise(phases[False], speed), summarise(phases[True], speed)
    events = read_trace(str(trace_path))
    times = SelfTimes()
    factor = speed.factor_over(phases[True].start, phases[True].end)
    queue_ms = []
    roots = [span for span in spans_from_events(events) if span.name == "serve.request"]
    for root in roots:
        times.add(root, factor)
        queue_ms.append(float(root.attrs.get("queue_ms", 0.0)))
    queue_ms.sort()
    metrics_event = next(event for event in reversed(events) if event["event"] == "metrics")
    layer_counts = dict(counts_from_snapshot(metrics_event), **counts(phases[False]))
    exec_ms = {
        traced: sum(r.reply["ms"] * speed.factor(r.due_at) for r in phases[traced].requests
                    if r.reply and "ms" in r.reply)
        for traced in (False, True)
    }
    serve = dict(
        _daemon_numbers(plain, stats[False]),
        **{"serve.queue_ms_p50": statistics.median(queue_ms), "serve.queue_ms_p99": nearest_rank(queue_ms, 99)},
    )
    valid = validate_trace(trace_path)
    return {
        "attempted": plain["sent"] + traced_phase["sent"],
        "failed": plain["failures"] + traced_phase["failures"] + (not valid) + sum(code != 0 for code in codes),
        "failures": plain["failure_kinds"] + traced_phase["failure_kinds"],
        "daemon_exit": max(codes, key=abs),
        "per_layer": layer_metrics(times, len(roots), layer_counts, exec_ms[True] / exec_ms[False], serve),
        "layers": layer_table(times, len(roots)),
        "items": len(roots),
        "counts": counts(phases[False]),
        "trace": {"path": str(trace_path), "events": len(events), "valid": valid},
    }
