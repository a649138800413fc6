"""``repro serve`` — a fault-contained, long-lived type-checking daemon.

One asyncio process serves many concurrent clients over a Unix socket or
TCP port, speaking the versioned JSONL protocol of
:mod:`repro.robustness.protocol`.  The design goal is a server that
**never dies**: every robustness primitive the repo already has is
lifted to process scope here.

* **Sessions** — each connection gets an isolated env/cache namespace
  (a :class:`Session`), so one client's ``module`` definitions, faults
  and failures can never alter another client's results.  Requests may
  name a ``session`` explicitly to share one namespace across
  connections.  All sessions share a single hash-consed
  :class:`~repro.core.types.InternTable` (bounded by
  ``INTERN_CAPACITY``), so common prelude types are allocated once per
  process, not once per client.
* **Crash containment per request** — the worker-side executor converts
  *any* non-:class:`~repro.core.errors.GIError` escape (engine bugs,
  injected faults, even response-serialisation failures) into a
  structured ``internal`` response.  The connection and the server
  survive; only the request fails.
* **Deadlines, propagated** — a request's deadline is fixed at
  admission from ``timeout_ms`` clamped by the server ceiling, and is
  carried into the run as :attr:`Budget.deadline_at` — so time spent
  waiting in the queue spends the same budget as time spent solving,
  and a request whose deadline expired in the queue is rejected without
  paying for a doomed inference.
* **Backpressure** — admission is bounded by ``queue_limit``
  outstanding requests.  Beyond it the server *sheds load*: an
  immediate typed ``overloaded`` response with a ``retry_after_ms``
  hint derived from recent service times, instead of queueing without
  bound.  The p99 of accepted requests therefore stays bounded by
  ``queue_limit / jobs`` service times, whatever the offered load.
* **Graceful lifecycle** — SIGINT/SIGTERM (or a ``shutdown`` request)
  starts a drain: stop accepting, fail new requests with typed
  ``unavailable`` responses, let in-flight work finish within a grace
  period, cancel what remains with typed responses, then flush trace,
  metrics and module-cache sidecars before exiting cleanly.

Inference runs on a bounded :class:`ThreadPoolExecutor` (``jobs``
workers) while the event loop stays free for I/O, admission and
shedding — an overloaded server keeps answering ``stats`` and keeps
saying ``overloaded`` promptly.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.env import Environment
from repro.core.errors import GIError, InternalError
from repro.core.infer import InferOptions, Inferencer
from repro.core.solver import InstanceEnv
from repro.core.terms import Ann
from repro.core.types import InternTable
from repro.robustness import protocol
from repro.robustness.budget import Budget
from repro.robustness.faultinject import FaultPlan

INTERN_CAPACITY = 1_000_000
"""Bound on the shared hash-consing table (entries, not bytes)."""


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can tune."""

    socket_path: str | None = None
    """Unix socket to listen on; mutually exclusive with ``port``."""

    host: str = "127.0.0.1"
    port: int | None = None
    """TCP port (0 picks an ephemeral one, reported on ``address``)."""

    jobs: int = 2
    """Worker threads running inference (the event loop only does I/O)."""

    queue_limit: int = 64
    """Maximum admitted-but-unfinished requests; beyond it, load is shed."""

    default_timeout_ms: int = 10_000
    max_timeout_ms: int = 30_000
    """Ceiling clamping any client-supplied ``timeout_ms``."""

    max_solver_steps: int | None = 1_000_000
    max_unify_depth: int | None = 100_000
    """Per-request budget ceilings (clients may only lower them)."""

    max_line_bytes: int = protocol.MAX_LINE_BYTES
    """Requests longer than one line of this many bytes are rejected
    with ``PayloadTooLarge`` and the connection is closed (the stream
    cannot be resynchronised after an oversized line)."""

    allow_faults: bool = False
    """Accept ``fault_step`` / ``fault_depth`` request fields (the
    fault-injection soak harness); off by default."""

    drain_grace_s: float = 5.0
    """How long a drain waits for in-flight work before cancelling it."""

    trace_path: str | None = None
    """Stream JSONL trace events (schema v1) here; flushed on drain."""


class ModuleReadError(GIError):
    """A ``module`` request named a path the server could not read."""

    def __init__(self, path: str, cause: OSError) -> None:
        self.phase = "io"
        super().__init__(f"cannot read {path}: {cause}")


@dataclass
class Session:
    """One isolated env/cache namespace (see the module docstring)."""

    name: str
    env: Environment
    named: bool = False
    """Named sessions outlive their creating connection; per-connection
    default sessions are dropped (sidecars saved) on disconnect."""

    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    """Serialises env-mutating operations (``module``) in the session."""

    caches: dict = field(default_factory=dict, repr=False)
    """Per-module :class:`ModuleCache` instances, keyed by the request's
    ``path`` (or ``"(inline)"`` for ``source`` modules).  Path-keyed
    caches load from / save to ``<path>.cache.json`` sidecars."""

    requests: int = 0


_INLINE = "(inline)"


class GIServer:
    """The daemon; construct, then ``await run()`` (or use
    :func:`start_server_in_thread` from synchronous code)."""

    def __init__(
        self,
        config: ServeConfig,
        env: Environment | None = None,
        instances: InstanceEnv | None = None,
        options: InferOptions | None = None,
    ) -> None:
        self.config = config
        self._base_env = env
        self.instances = instances
        self.options = options
        self.intern = InternTable(capacity=INTERN_CAPACITY)
        self.sessions: dict[str, Session] = {}
        self.address: tuple[str, int] | str | None = None
        self.tracer = None
        self._writer = None
        if config.trace_path is not None:
            from repro.observability import JsonlWriter, Tracer

            self._writer = JsonlWriter(open(config.trace_path, "w", encoding="utf-8"))
            self.tracer = Tracer(sink=self._writer, retain_events=False)
            self.intern.attach_tracer(self.tracer)
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._pending = 0
        self._conn_seq = 0
        self._draining = False
        self._shutdown_started = False
        self._started_at = time.monotonic()
        self._recent_ms: deque[float] = deque(maxlen=256)
        """Recent service times, feeding ``retry_after_ms`` and stats."""
        self.counts = {
            "total": 0,
            "ok": 0,
            "error": 0,
            "internal": 0,
            "shed": 0,
            "unavailable": 0,
            "protocol": 0,
            "disconnects": 0,
        }
        self.by_op: dict[str, int] = {}
        self.exit_reason: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def base_env(self) -> Environment:
        if self._base_env is None:
            from repro.evalsuite.figure2 import figure2_env

            self._base_env = figure2_env()
        return self._base_env

    async def run(self, ready=None) -> None:
        """Serve until a drain completes (signal or ``shutdown`` op)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.jobs, thread_name_prefix="serve-worker"
        )
        self.base_env()  # build the prelude before accepting traffic
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.socket_path,
                limit=self.config.max_line_bytes,
            )
            self.address = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self.config.host,
                self.config.port or 0,
                limit=self.config.max_line_bytes,
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
        self._install_signal_handlers()
        if self.tracer is not None:
            self.tracer.event("serve.start", address=str(self.address))
        if ready is not None:
            ready(self)
        await self._stopped.wait()

    def _install_signal_handlers(self) -> None:
        import signal as _signal

        for signum in (_signal.SIGINT, _signal.SIGTERM):
            try:
                self._loop.add_signal_handler(
                    signum,
                    lambda s=signum: self._loop.create_task(
                        self.shutdown(reason=_signal.Signals(s).name)
                    ),
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (tests) or an exotic platform —
                # lifecycle is then driven by the `shutdown` op instead.
                return

    async def shutdown(self, reason: str = "shutdown") -> None:
        """Graceful drain; idempotent.  See the module docstring."""
        if self._shutdown_started:
            return
        self._shutdown_started = True
        self._draining = True
        self.exit_reason = reason
        if self.tracer is not None:
            self.tracer.event("serve.drain", reason=reason, pending=self._pending)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), self.config.drain_grace_s)
        except asyncio.TimeoutError:
            pass
        # Cancel whatever the grace period did not finish: queued work
        # raises CancelledError inside its awaiting task, which answers
        # the client with a typed `unavailable` response.
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        self._flush()
        for writer in list(self._conn_writers):
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — already-dead sockets
                pass
        if self.config.socket_path is not None:
            import os

            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        self._stopped.set()

    def _flush(self) -> None:
        """Persist cache sidecars and close the trace sink."""
        for session in self.sessions.values():
            _save_sidecars(session)
        if self.tracer is not None:
            self.tracer.event("serve.stop", requests=self.counts["total"])
            self.tracer.emit_metrics_event()
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _session_for(self, name: str | None, default: Session) -> Session:
        if name is None:
            return default
        session = self.sessions.get(name)
        if session is None:
            session = Session(name=name, env=self.base_env(), named=True)
            self.sessions[name] = session
        return session

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_seq += 1
        conn_name = f"conn-{self._conn_seq}"
        session = Session(name=conn_name, env=self.base_env())
        self.sessions[conn_name] = session
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            await self._send(writer, write_lock, protocol.hello(conn_name))
            while True:
                line = await self._read_line(reader)
                if line is _OVERSIZE:
                    self.counts["protocol"] += 1
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(
                            None,
                            "PayloadTooLarge",
                            f"request line exceeds {self.config.max_line_bytes} "
                            "bytes; closing connection",
                        ),
                    )
                    break
                if line is None:
                    break
                text = line.strip()
                if not text:
                    continue
                await self._dispatch_line(text, session, writer, write_lock)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.counts["disconnects"] += 1
            if self.tracer is not None:
                self.tracer.event("serve.disconnect", session=conn_name)
            self._conn_writers.discard(writer)
            dropped = self.sessions.pop(conn_name, None)
            if dropped is not None:
                _save_sidecars(dropped)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — already-dead sockets
                pass

    async def _read_line(self, reader: asyncio.StreamReader):
        try:
            return (await reader.readuntil(b"\n")).decode("utf-8", "replace")
        except asyncio.IncompleteReadError as eof:
            if eof.partial:
                return eof.partial.decode("utf-8", "replace")
            return None
        except asyncio.LimitOverrunError:
            return _OVERSIZE
        except (ConnectionResetError, BrokenPipeError):
            return None

    async def _dispatch_line(self, text, session, writer, write_lock) -> None:
        import json

        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            self.counts["protocol"] += 1
            await self._send(
                writer,
                write_lock,
                protocol.error_response(None, "ProtocolError", f"not valid JSON: {error}"),
            )
            return
        request_id = request.get("id") if isinstance(request, dict) else None
        problems = protocol.validate_request(request)
        if not problems and not self.config.allow_faults:
            if "fault_step" in request or "fault_depth" in request:
                problems = ["fault injection is disabled (start with --allow-faults)"]
        if problems:
            self.counts["protocol"] += 1
            await self._send(
                writer,
                write_lock,
                protocol.error_response(
                    request_id, "ProtocolError", "; ".join(problems)
                ),
            )
            return
        op = request["op"]
        self.counts["total"] += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        if op == "stats":
            self.counts["ok"] += 1
            await self._send(
                writer, write_lock, protocol.ok_response(request_id, "stats", **self.stats())
            )
            return
        if op == "shutdown":
            self.counts["ok"] += 1
            # Refuse admission *now* — the drain task itself may only get
            # scheduled after further lines from this connection.
            self._draining = True
            await self._send(
                writer,
                write_lock,
                protocol.ok_response(request_id, "shutdown", draining=True),
            )
            asyncio.get_running_loop().create_task(self.shutdown(reason="shutdown-op"))
            return
        if self._draining:
            self.counts["unavailable"] += 1
            await self._send(
                writer,
                write_lock,
                protocol.error_response(
                    request_id,
                    "ShuttingDown",
                    "server is draining and accepts no new work",
                    severity=protocol.SEVERITY_UNAVAILABLE,
                    op=op,
                ),
            )
            return
        if self._pending >= self.config.queue_limit:
            self.counts["shed"] += 1
            if self.tracer is not None:
                self.tracer.inc("serve.shed")
                self.tracer.event("serve.shed", op=op, pending=self._pending)
            await self._send(
                writer,
                write_lock,
                protocol.error_response(
                    request_id,
                    "Overloaded",
                    f"request queue is full ({self._pending} outstanding); "
                    "retry after the hinted delay",
                    severity=protocol.SEVERITY_OVERLOADED,
                    op=op,
                    retry_after_ms=self._retry_after_ms(),
                ),
            )
            return

        target = self._session_for(request.get("session"), session)
        target.requests += 1
        deadline = time.monotonic() + self._clamped_timeout_s(request)
        self._pending += 1
        self._idle.clear()
        if self.tracer is not None:
            self.tracer.gauge("serve.queue_depth", self._pending)
        task = asyncio.get_running_loop().create_task(
            self._run_request(request, target, deadline, writer, write_lock)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_request(self, request, session, deadline, writer, write_lock) -> None:
        admitted = time.monotonic()
        op = request["op"]
        try:
            try:
                response = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._execute, request, session, deadline, admitted
                )
            except asyncio.CancelledError:
                # The drain cancelled this request while it sat in the
                # executor queue; answer with a typed response.
                response = protocol.error_response(
                    request["id"],
                    "ShuttingDown",
                    "request cancelled by server drain before it started",
                    severity=protocol.SEVERITY_UNAVAILABLE,
                    op=op,
                )
            except Exception as error:  # noqa: BLE001 — loop-side containment
                response = protocol.error_response(
                    request["id"],
                    "InternalError",
                    f"request scheduling failed ({type(error).__name__}): {error}",
                    severity=protocol.SEVERITY_INTERNAL,
                    op=op,
                )
        finally:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()
        status = "ok" if response.get("ok") else response["error"].get("severity")
        if status not in self.counts:
            status = "error"
        self.counts[status] += 1
        if "ms" in response:
            self._recent_ms.append(response["ms"])
            if self.tracer is not None:
                self.tracer.observe("serve.latency_ms", response["ms"])
        await self._send(writer, write_lock, response)

    async def _send(self, writer, write_lock, message: dict) -> None:
        try:
            payload = protocol.encode(message)
        except (TypeError, ValueError):
            # A payload that refuses to serialise must not kill the
            # connection handler — degrade to a structured internal error.
            payload = protocol.encode(
                protocol.error_response(
                    message.get("id"),
                    "ResponseEncodingError",
                    "response payload was not JSON-serialisable",
                    severity=protocol.SEVERITY_INTERNAL,
                )
            )
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError, OSError):
            self.counts["disconnects"] += 1

    # ------------------------------------------------------------------
    # Request execution (worker threads)
    # ------------------------------------------------------------------

    def _clamped_timeout_s(self, request: dict) -> float:
        requested = request.get("timeout_ms", self.config.default_timeout_ms)
        return min(float(requested), float(self.config.max_timeout_ms)) / 1000.0

    def _budget(self, request: dict, deadline: float) -> Budget:
        steps = self.config.max_solver_steps
        if request.get("max_steps") is not None:
            steps = min(request["max_steps"], steps or request["max_steps"])
        depth = self.config.max_unify_depth
        if request.get("max_depth") is not None:
            depth = min(request["max_depth"], depth or request["max_depth"])
        return Budget(
            max_solver_steps=steps,
            max_unify_depth=depth,
            deadline_at=deadline,
            tracer=self.tracer,
        )

    def _retry_after_ms(self) -> int:
        if self._recent_ms:
            average = sum(self._recent_ms) / len(self._recent_ms)
        else:
            average = 10.0
        estimate = average * max(1, self._pending) / max(1, self.config.jobs)
        return max(5, min(int(estimate), 5_000))

    def _execute(self, request: dict, session: Session, deadline, admitted) -> dict:
        """Run one request to a response dict.  Never raises: this is the
        server's crash-containment boundary (one per request)."""
        from contextlib import nullcontext

        op = request["op"]
        request_id = request["id"]
        queue_ms = round((time.monotonic() - admitted) * 1000.0, 3)
        tracing = self.tracer is not None
        span_cm = (
            self.tracer.span(
                "serve.request", op=op, session=session.name, queue_ms=queue_ms
            )
            if tracing
            else nullcontext()
        )
        started = time.perf_counter()
        with span_cm:
            try:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return protocol.error_response(
                        request_id,
                        "DeadlineExpired",
                        f"deadline expired after {queue_ms:.0f}ms in the queue",
                        op=op,
                        phase="queue",
                        ms=self._elapsed_ms(started),
                    )
                payload = self._perform(op, request, session, deadline)
                response = protocol.ok_response(
                    request_id, op, ms=self._elapsed_ms(started), **payload
                )
            except GIError as error:
                internal = isinstance(error, InternalError)
                response = protocol.error_response(
                    request_id,
                    type(error).__name__,
                    str(error),
                    severity=protocol.SEVERITY_INTERNAL
                    if internal
                    else protocol.SEVERITY_ERROR,
                    op=op,
                    phase=getattr(error, "phase", None),
                    ms=self._elapsed_ms(started),
                )
                if internal:
                    response["error"]["traceback"] = error.snapshot.get("traceback")
            except BaseException as error:  # noqa: BLE001 — containment
                contained = InternalError(
                    error,
                    phase="serve",
                    snapshot={"op": op, "traceback": _traceback.format_exc()},
                )
                response = protocol.error_response(
                    request_id,
                    "InternalError",
                    str(contained),
                    severity=protocol.SEVERITY_INTERNAL,
                    op=op,
                    phase="serve",
                    ms=self._elapsed_ms(started),
                )
                response["error"]["traceback"] = contained.snapshot.get("traceback")
            if tracing:
                self.tracer.event(
                    "serve.response",
                    op=op,
                    ok=bool(response.get("ok")),
                    status="ok"
                    if response.get("ok")
                    else response["error"]["severity"],
                    ms=response.get("ms"),
                    queue_ms=queue_ms,
                )
            return response

    @staticmethod
    def _elapsed_ms(started: float) -> float:
        return round((time.perf_counter() - started) * 1000.0, 3)

    def _options_for(self, request: dict) -> InferOptions | None:
        """The per-request inference options: the server defaults, with
        the request's ``policy`` field (validated at admission) applied."""
        name = request.get("policy")
        if name is None:
            return self.options
        from dataclasses import replace

        from repro.core.policy import parse_policy

        base = self.options if self.options is not None else InferOptions()
        return replace(base, policy=parse_policy(name))

    def _perform(self, op: str, request: dict, session: Session, deadline) -> dict:
        from repro.robustness.batch import _parse_contained

        budget = self._budget(request, deadline)
        options = self._options_for(request)
        if op in ("check", "infer"):
            faults = None
            if request.get("fault_step") or request.get("fault_depth"):
                faults = FaultPlan(
                    fail_at_solver_step=request.get("fault_step"),
                    fail_at_unify_depth=request.get("fault_depth"),
                )
            term = _parse_contained(request["expr"])
            if op == "check":
                from repro.syntax import parse_type

                term = Ann(term, parse_type(request["signature"]))
            inferencer = Inferencer(
                session.env,
                self.instances,
                options,
                budget=budget,
                faults=faults,
                tracer=self.tracer,
                intern=self.intern,
            )
            result = inferencer.infer(term)
            return {"type": str(result.type_), "solver_steps": result.solver.steps}
        if op == "explain":
            from repro.observability import Tracer, explain_tracer

            local = Tracer()
            term = _parse_contained(request["expr"])
            result = Inferencer(
                session.env,
                self.instances,
                options,
                budget=budget,
                tracer=local,
                intern=self.intern,
            ).infer(term)
            return {"type": str(result.type_), "explanation": explain_tracer(local)}
        if op == "module":
            return self._perform_module(request, session, budget, options)
        raise AssertionError(f"unreachable op {op}")  # pragma: no cover

    def _perform_module(
        self, request: dict, session: Session, budget, options: InferOptions
    ) -> dict:
        from repro.modules import ModuleCache, ModuleEngine

        path = request.get("path")
        with session.lock:
            if path is not None:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        source = handle.read()
                except OSError as error:
                    raise ModuleReadError(path, error) from error
                key = path
            else:
                source = request["source"]
                key = _INLINE
            cache = session.caches.get(key)
            if cache is None:
                cache = (
                    ModuleCache.load(path + ".cache.json")
                    if path is not None
                    else ModuleCache()
                )
                session.caches[key] = cache
            engine = ModuleEngine(
                session.env,
                self.instances,
                options,
                budget=budget,
                cache=cache,
                tracer=self.tracer,
            )
            result = engine.check_source(source, path=path)
            session.env = result.env
        payload = {
            "total": len(result.reports),
            "passed": len(result.reports) - len(result.failures),
            "failed": len(result.failures),
            "types": result.types,
            "cached": sum(1 for report in result.reports if report.cached),
            "diagnostics": [
                report.diagnostic.to_dict() for report in result.failures
            ],
        }
        if request.get("stats"):
            payload["stats"] = result.stats.to_dict()
        return payload

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        from repro.observability.metrics import percentile

        recent = sorted(self._recent_ms)
        latency = (
            {
                "count": len(recent),
                "p50": round(percentile(recent, 0.50), 3),
                "p95": round(percentile(recent, 0.95), 3),
                "p99": round(percentile(recent, 0.99), 3),
            }
            if recent
            else {"count": 0}
        )
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "draining": self._draining,
            "requests": dict(self.counts),
            "by_op": dict(self.by_op),
            "queue": {
                "pending": self._pending,
                "limit": self.config.queue_limit,
                "jobs": self.config.jobs,
            },
            "sessions": len(self.sessions),
            "intern_size": len(self.intern),
            "intern": self.intern.stats(),
            "latency_ms": latency,
        }


_OVERSIZE = object()
"""Sentinel returned by ``_read_line`` for an over-limit request line."""


def _save_sidecars(session: Session) -> None:
    """Atomically persist every path-keyed cache of a session."""
    for key, cache in session.caches.items():
        if key == _INLINE:
            continue
        try:
            cache.save(key + ".cache.json")
        except OSError:
            pass  # read-only location degrades to no persistence


# ----------------------------------------------------------------------
# Running a server from synchronous code (tests, benchmarks)
# ----------------------------------------------------------------------


class ServerHandle:
    """A server running on a daemon thread, stoppable from the caller."""

    def __init__(self, server: GIServer, thread: threading.Thread) -> None:
        self.server = server
        self.thread = thread

    @property
    def address(self):
        return self.server.address

    def stop(self, timeout: float = 15.0) -> None:
        """Request a graceful drain and wait for the thread to exit."""
        loop = self.server._loop
        if loop is not None and loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(self.server.shutdown(), loop)
            except RuntimeError:  # pragma: no cover — loop already gone
                pass
        self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_in_thread(
    config: ServeConfig,
    env: Environment | None = None,
    timeout: float = 20.0,
) -> ServerHandle:
    """Start a :class:`GIServer` on a background thread; returns once it
    is accepting connections (``handle.address`` is then bound)."""
    server = GIServer(config, env=env)
    ready = threading.Event()

    def runner() -> None:
        asyncio.run(server.run(ready=lambda _server: ready.set()))

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise RuntimeError("serve daemon failed to start within the timeout")
    return ServerHandle(server, thread)
