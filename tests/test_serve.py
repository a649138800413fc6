"""The serve daemon: protocol, sessions, containment, backpressure, drain.

Each test boots a real :class:`GIServer` on a Unix socket (TCP for the
one test that covers that path) via :func:`start_server_in_thread` and
talks to it with the library client — the same client the load
generator and the CI smoke job use, so every response read here is
schema-validated on the wire.
"""

import contextlib
import json
import socket as socket_module

import pytest

from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.modules import parse_module
from repro.robustness import protocol
from repro.robustness.loadgen import LoadConfig, deep_expr, run_load
from repro.robustness.server import ServeConfig, start_server_in_thread
from repro.robustness.serveclient import ServeClient


@contextlib.contextmanager
def serve(tmp_path, **overrides):
    """A running daemon on a Unix socket; yields (handle, socket path)."""
    sock = str(tmp_path / "gi.sock")
    overrides.setdefault("jobs", 2)
    config = ServeConfig(socket_path=sock, **overrides)
    with start_server_in_thread(config) as handle:
        yield handle, sock


def connect(sock: str) -> ServeClient:
    client = ServeClient(socket_path=sock)
    client.connect()
    return client


# ----------------------------------------------------------------------
# Protocol validators (pure)
# ----------------------------------------------------------------------


class TestRequestSchema:
    def _base(self, **fields):
        request = {"v": 1, "id": 1, "op": "infer", "expr": "head ids"}
        request.update(fields)
        return request

    def test_good_request_is_clean(self):
        assert protocol.validate_request(self._base()) == []

    def test_non_object_rejected(self):
        assert protocol.validate_request([1, 2]) != []
        assert protocol.validate_request("hi") != []

    def test_version_required_and_checked(self):
        assert any("v" in e for e in protocol.validate_request({"id": 1, "op": "stats"}))
        bad = self._base(v=99)
        assert any("version" in e for e in protocol.validate_request(bad))

    def test_id_required(self):
        request = self._base()
        del request["id"]
        assert any("`id`" in e for e in protocol.validate_request(request))

    def test_unknown_op_rejected(self):
        assert any(
            "unknown op" in e
            for e in protocol.validate_request({"v": 1, "id": 1, "op": "frobnicate"})
        )

    def test_missing_required_field(self):
        request = {"v": 1, "id": 1, "op": "check", "expr": "id"}
        assert any("signature" in e for e in protocol.validate_request(request))

    def test_module_source_xor_path(self):
        both = {"v": 1, "id": 1, "op": "module", "source": "x = 1", "path": "m.gi"}
        neither = {"v": 1, "id": 1, "op": "module"}
        assert any("exactly one" in e for e in protocol.validate_request(both))
        assert any("exactly one" in e for e in protocol.validate_request(neither))

    def test_unexpected_field_rejected(self):
        assert any(
            "unexpected" in e
            for e in protocol.validate_request(self._base(surprise=True))
        )

    def test_wrong_types_rejected(self):
        assert protocol.validate_request(self._base(expr=42)) != []
        assert protocol.validate_request(self._base(timeout_ms="soon")) != []

    def test_policy_field_validated(self):
        assert protocol.validate_request(self._base(policy="lazy-deep")) == []
        assert any(
            "unknown policy" in e
            for e in protocol.validate_request(self._base(policy="deep-lazy"))
        )
        assert protocol.validate_request(self._base(policy=7)) != []

    def test_nonpositive_budgets_rejected(self):
        assert any(
            "positive" in e
            for e in protocol.validate_request(self._base(timeout_ms=0))
        )
        assert any(
            "positive" in e
            for e in protocol.validate_request(self._base(max_steps=-5))
        )


class TestResponseSchema:
    def test_builders_satisfy_the_validator(self):
        assert protocol.validate_response(protocol.ok_response(1, "infer", type="Int")) == []
        assert (
            protocol.validate_response(
                protocol.error_response(2, "ParseError", "nope")
            )
            == []
        )
        shed = protocol.error_response(
            3,
            "Overloaded",
            "later",
            severity=protocol.SEVERITY_OVERLOADED,
            retry_after_ms=40,
        )
        assert protocol.validate_response(shed) == []
        assert protocol.validate_hello(protocol.hello("conn-1")) == []

    def test_overloaded_requires_retry_hint(self):
        shed = protocol.error_response(
            3, "Overloaded", "later", severity=protocol.SEVERITY_OVERLOADED
        )
        assert any("retry_after_ms" in e for e in protocol.validate_response(shed))

    def test_failure_requires_error_object(self):
        assert protocol.validate_response({"v": 1, "id": 1, "ok": False}) != []
        assert (
            protocol.validate_response(
                {"v": 1, "id": 1, "ok": False, "error": {"class": "X"}}
            )
            != []
        )

    def test_unknown_severity_rejected(self):
        response = protocol.error_response(1, "X", "m", severity="error")
        response["error"]["severity"] = "catastrophic"
        assert any("severity" in e for e in protocol.validate_response(response))

    def test_response_line_validator_covers_parse_errors(self):
        assert protocol.validate_response_line("{not json") != []
        good = protocol.encode(protocol.ok_response(1, "stats")).decode()
        assert protocol.validate_response_line(good) == []


# ----------------------------------------------------------------------
# The daemon itself
# ----------------------------------------------------------------------


class TestServeBasics:
    def test_hello_infer_check_stats(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                assert client.hello["proto"] == protocol.PROTO_VERSION
                reply = client.request("infer", expr="head ids")
                assert reply["ok"] and reply["type"] == "forall a. a -> a"
                assert reply["solver_steps"] > 0 and reply["ms"] >= 0
                reply = client.request(
                    "check", expr="single id", signature="[forall a. a -> a]"
                )
                assert reply["ok"]
                stats = client.request("stats")
                assert stats["ok"] and stats["requests"]["total"] >= 2
                assert stats["queue"]["limit"] == 64

    def test_type_errors_are_typed_not_fatal(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                for expr, expected in [
                    ("poly 1", "UnificationError"),
                    ("missing_name", "ScopeError"),
                    ("((", "ParseError"),
                ]:
                    reply = client.request("infer", expr=expr)
                    assert not reply["ok"]
                    assert reply["error"]["class"] == expected
                    assert reply["error"]["severity"] == "error"
                # The connection survived three failures.
                assert client.request("infer", expr="head ids")["ok"]

    def test_tcp_mode(self):
        config = ServeConfig(port=0, jobs=1)
        with start_server_in_thread(config) as handle:
            host, port = handle.address
            with ServeClient(host=host, port=port) as client:
                assert client.request("infer", expr="single id")["ok"]

    def test_explain_narrates(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                reply = client.request("explain", expr="app poly id")
                assert reply["ok"] and "classification" in reply["explanation"]

    def test_per_request_policy(self, tmp_path):
        flip = "let f = id in (f :: forall a. a -> a)"
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                # Default policy: eager instantiation, skolem escape.
                reply = client.request("infer", expr=flip)
                assert not reply["ok"]
                assert reply["error"]["class"] == "SkolemEscapeError"
                # Lazy instantiation flips the verdict for this request.
                reply = client.request("infer", expr=flip, policy="lazy-shallow")
                assert reply["ok"] and reply["type"] == "forall a. a -> a"
                # The override is per-request: the default is untouched.
                assert not client.request("infer", expr=flip)["ok"]
                reply = client.request(
                    "check", expr="k h lst", signature="Int -> Int -> Int"
                )
                assert not reply["ok"]

    def test_unknown_policy_is_a_schema_error(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                reply = client.request("infer", expr="id", policy="deepest")
                assert not reply["ok"]
                assert reply["error"]["severity"] == "error"
                assert "unknown policy" in reply["error"]["message"]
                # The connection survives the rejection.
                assert client.request("infer", expr="head ids")["ok"]

    def test_pipelined_requests_match_by_id(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                ids = [client.send("infer", expr="head ids") for _ in range(5)]
                replies = [client.wait_for(i) for i in reversed(ids)]
                assert all(r["ok"] for r in replies)
                assert [r["id"] for r in replies] == list(reversed(ids))


class TestSessions:
    MODULE = "five :: Int\nfive = 1\n"

    def test_connection_sessions_are_isolated(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as alice, connect(sock) as bob:
                assert alice.session != bob.session
                assert alice.request("module", source=self.MODULE)["ok"]
                assert alice.request("infer", expr="five")["type"] == "Int"
                # Bob's namespace never saw Alice's module.
                reply = bob.request("infer", expr="five")
                assert reply["error"]["class"] == "ScopeError"

    def test_named_sessions_are_shared(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as alice, connect(sock) as bob:
                assert alice.request(
                    "module", source=self.MODULE, session="team"
                )["ok"]
                assert (
                    bob.request("infer", expr="five", session="team")["type"] == "Int"
                )
                # ... but only inside the named session.
                assert not bob.request("infer", expr="five")["ok"]

    def test_module_failure_does_not_poison_the_session(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                reply = client.request("module", source="bad = missing_name\n")
                assert reply["ok"] is True  # module checked, with failures
                assert reply["failed"] == 1
                assert reply["diagnostics"][0]["error_class"] == "ScopeError"
                assert client.request("infer", expr="head ids")["ok"]

    def test_module_path_saves_sidecar_on_disconnect(self, tmp_path):
        module = tmp_path / "lib.gi"
        module.write_text("seven :: Int\nseven = 1\n", encoding="utf-8")
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                assert client.request("module", path=str(module))["ok"]
            # Disconnect persists the session's path-keyed caches.
            deadline = __import__("time").monotonic() + 5
            sidecar = tmp_path / "lib.gi.cache.json"
            while not sidecar.exists() and __import__("time").monotonic() < deadline:
                __import__("time").sleep(0.02)
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
            assert "seven" in payload["entries"]

    def test_module_recheck_is_served_from_the_session_cache(self, tmp_path):
        source = synthetic_module_source(chains=2, depth=10)
        bindings = len(parse_module(source).bindings)
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                cold = client.request("module", source=source)
                assert cold["ok"] and cold["passed"] == bindings
                assert cold["cached"] == 0
                warm = client.request("module", source=source)
                assert warm["ok"] and warm["cached"] == bindings

    def test_module_missing_path_is_an_io_error(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                reply = client.request("module", path=str(tmp_path / "nope.gi"))
                assert reply["error"]["class"] == "ModuleReadError"
                assert reply["error"]["phase"] == "io"


class TestContainment:
    def test_injected_faults_are_contained(self, tmp_path):
        with serve(tmp_path, allow_faults=True) as (handle, sock):
            with connect(sock) as client:
                for step in (1, 2, 3):
                    reply = client.request("infer", expr="head ids", fault_step=step)
                    assert not reply["ok"]
                    assert reply["error"]["severity"] == "internal"
                    assert reply["error"]["class"] == "InternalError"
                    assert "InjectedFaultError" in reply["error"]["message"]
                    assert "Traceback" in reply["error"]["traceback"]
                depth = client.request("infer", expr="head ids", fault_depth=1)
                assert depth["error"]["severity"] == "internal"
                # The server is fine.
                assert client.request("infer", expr="head ids")["ok"]
            assert handle.thread.is_alive()

    def test_faults_rejected_unless_enabled(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                reply = client.request("infer", expr="head ids", fault_step=1)
                assert reply["error"]["class"] == "ProtocolError"
                assert "allow-faults" in reply["error"]["message"]

    def test_malformed_json_gets_a_typed_reply(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                client.send_raw("this is not json\n")
                reply = client.wait_for(None)
                assert reply["error"]["class"] == "ProtocolError"
                assert client.request("infer", expr="head ids")["ok"]

    def test_oversized_line_is_shed_and_connection_closed(self, tmp_path):
        with serve(tmp_path, max_line_bytes=4096) as (handle, sock):
            with connect(sock) as client:
                client.send_raw(
                    json.dumps(
                        {"v": 1, "id": 9, "op": "infer", "expr": "x" * 10_000}
                    )
                    + "\n"
                )
                reply = client.wait_for(None)
                assert reply["error"]["class"] == "PayloadTooLarge"
                # The stream cannot be resynchronised; the server closes.
                with pytest.raises(ConnectionError):
                    client.request("infer", expr="head ids")
            # A fresh connection is unaffected.
            with connect(sock) as client:
                assert client.request("infer", expr="head ids")["ok"]

    def test_mid_request_disconnect_leaves_server_healthy(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            rude = connect(sock)
            rude.send("infer", expr=deep_expr(60))
            rude.close()
            with connect(sock) as client:
                assert client.request("infer", expr="head ids")["ok"]
            assert handle.thread.is_alive()

    def test_deadline_can_expire_in_the_queue(self, tmp_path):
        with serve(tmp_path, jobs=1) as (handle, sock):
            with connect(sock) as client:
                # Occupy the single worker, then race a 1ms-deadline
                # request behind it: its deadline burns in the queue.
                busy = client.send("infer", expr=deep_expr(150))
                doomed = client.send("infer", expr="head ids", timeout_ms=1)
                reply = client.wait_for(doomed)
                assert not reply["ok"]
                assert reply["error"]["class"] in (
                    "DeadlineExpired",  # expired waiting
                    "BudgetExceededError",  # admitted just before expiry
                )
                assert client.wait_for(busy)["ok"]

    def test_budget_ceilings_clamp_client_values(self, tmp_path):
        with serve(tmp_path, max_solver_steps=1_000) as (handle, sock):
            with connect(sock) as client:
                # A client may lower the ceiling but not raise it.
                reply = client.request(
                    "infer", expr=deep_expr(40), max_steps=5
                )
                assert reply["error"]["class"] == "BudgetExceededError"
                assert reply["error"]["severity"] == "error"


class TestCleanLoad:
    def test_well_typed_load_is_served_in_full(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            report = run_load(
                LoadConfig(
                    socket_path=sock,
                    clients=4,
                    requests=16,
                    seed=4,
                    ill_rate=0.0,
                    deep_rate=0.0,
                )
            )
            assert report.violations == [], report.violations[:5]
            assert report.served == 64, report.by_status
            assert handle.server.counts["shed"] == 0
            assert handle.server.counts["internal"] == 0


class TestBackpressure:
    def test_overload_sheds_typed_with_retry_hint(self, tmp_path):
        with serve(tmp_path, jobs=1, queue_limit=3) as (handle, sock):
            with connect(sock) as client:
                ids = [client.send("infer", expr=deep_expr(80)) for _ in range(20)]
                replies = [client.wait_for(i) for i in ids]
            statuses = [
                "ok" if r["ok"] else r["error"]["severity"] for r in replies
            ]
            shed = [r for r in replies if not r["ok"]]
            assert statuses.count("ok") >= 1
            assert len(shed) >= 1, "queue_limit=3 must shed under 20-deep burst"
            for reply in shed:
                assert reply["error"]["class"] == "Overloaded"
                assert isinstance(reply["retry_after_ms"], int)
                assert reply["retry_after_ms"] >= 5
            assert handle.server.counts["shed"] == len(shed)

    def test_accepted_latency_stays_bounded_under_overload(self, tmp_path):
        # The point of shedding: whatever the offered load, an *accepted*
        # request waits behind at most queue_limit others on `jobs`
        # workers — so its latency is bounded and the burst sheds rest.
        with serve(tmp_path, jobs=2, queue_limit=4) as (handle, sock):
            with connect(sock) as client:
                ids = [client.send("infer", expr=deep_expr(60)) for _ in range(40)]
                replies = [client.wait_for(i) for i in ids]
            served = [r for r in replies if r["ok"]]
            assert served and len(served) < 40
            worst_ms = max(r["ms"] for r in served)
            # Generous engineering bound: 4 queued × deep-spine service
            # time (~tens of ms) stays well under this; unbounded
            # queueing of all 40 would not.
            assert worst_ms < 5_000


class TestLifecycle:
    def test_shutdown_op_drains_cleanly(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                assert client.request("infer", expr="head ids")["ok"]
                reply = client.request("shutdown")
                assert reply["ok"] and reply["draining"] is True
            handle.thread.join(timeout=10)
            assert not handle.thread.is_alive()
            assert handle.server.exit_reason == "shutdown-op"
            # The socket file is gone after a clean drain.
            import os

            assert not os.path.exists(sock)

    def test_requests_during_drain_get_unavailable(self, tmp_path):
        with serve(tmp_path, jobs=1, drain_grace_s=2.0) as (handle, sock):
            with connect(sock) as client:
                busy = client.send("infer", expr=deep_expr(120))
                client.send("shutdown")
                late = client.send("infer", expr="head ids")
                seen = {}
                for _ in range(3):
                    reply = client._read_message()
                    seen[reply.get("id")] = reply
                assert seen[busy]["ok"], "in-flight work finishes during grace"
                assert seen[late]["error"]["severity"] == "unavailable"
                assert seen[late]["error"]["class"] == "ShuttingDown"
            handle.thread.join(timeout=10)
            assert not handle.thread.is_alive()

    def test_trace_file_is_schema_valid_and_flushed(self, tmp_path):
        from repro.observability import validate_line

        trace = tmp_path / "serve.jsonl"
        with serve(tmp_path, allow_faults=True, trace_path=str(trace)) as (
            handle,
            sock,
        ):
            with connect(sock) as client:
                client.request("infer", expr="head ids")
                client.request("infer", expr="head ids", fault_step=1)
                client.request("infer", expr="((")
        lines = [
            line
            for line in trace.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert lines, "trace must be flushed on drain"
        for line in lines:
            assert validate_line(line) == [], line
        events = [json.loads(line) for line in lines]
        names = {e.get("name") for e in events}
        assert "serve.request" in names and "serve.response" in names
        assert events[-1]["event"] == "metrics"

    def test_stop_is_idempotent(self, tmp_path):
        with serve(tmp_path) as (handle, sock):
            handle.stop()
            handle.stop()
            assert not handle.thread.is_alive()


class TestRetryHintSeams:
    """The latency-window seams of ``_retry_after_ms`` and ``stats``."""

    def test_retry_hint_sane_with_empty_latency_window(self, tmp_path):
        # Direct unit check first: no completed request has ever fed
        # ``_recent_ms``, so the estimate must fall back to the default
        # service time — never a ZeroDivisionError, never a 0ms hint
        # (which would tell clients to hammer the server in a tight loop).
        with serve(tmp_path, jobs=1, queue_limit=1) as (handle, sock):
            assert len(handle.server._recent_ms) == 0
            hint = handle.server._retry_after_ms()
            assert isinstance(hint, int) and 5 <= hint <= 5_000

    def test_overload_on_first_requests_after_boot(self, tmp_path):
        # End-to-end: overload the daemon before *any* request completes
        # (the very-first-requests-after-boot race).  Shed responses must
        # be typed Overloaded with a positive integer retry hint.
        with serve(tmp_path, jobs=1, queue_limit=1) as (handle, sock):
            with connect(sock) as client:
                ids = [client.send("infer", expr=deep_expr(100)) for _ in range(12)]
                replies = [client.wait_for(i) for i in ids]
            shed = [r for r in replies if not r["ok"]]
            assert shed, "queue_limit=1 must shed a 12-deep instant burst"
            for reply in shed:
                assert reply["error"]["class"] == "Overloaded"
                assert reply["error"]["severity"] == "overloaded"
                assert isinstance(reply["retry_after_ms"], int)
                assert reply["retry_after_ms"] >= 5

    def test_stats_mid_drain_is_answered(self, tmp_path):
        # ``stats`` is an observability op: it must keep answering while
        # the server drains (it is handled before the draining check),
        # with a well-typed payload reporting draining=True.
        with serve(tmp_path, jobs=1, drain_grace_s=2.0) as (handle, sock):
            with connect(sock) as client:
                busy = client.send("infer", expr=deep_expr(120))
                client.send("shutdown")
                stats_id = client.send("stats")
                seen = {}
                for _ in range(3):
                    reply = client._read_message()
                    seen[reply.get("id")] = reply
            stats = seen[stats_id]
            assert stats["ok"], "stats mid-drain must not be shed"
            assert stats["draining"] is True
            assert isinstance(stats["queue"]["pending"], int)
            assert seen[busy]["ok"]
            handle.thread.join(timeout=10)
            assert not handle.thread.is_alive()

    def test_stats_surfaces_intern_counters(self, tmp_path):
        # Satellite: the shared InternTable's hit/miss/full counters are
        # observable through the stats op, so capacity-full degradation
        # of a long-lived daemon is visible instead of silent.
        with serve(tmp_path) as (handle, sock):
            with connect(sock) as client:
                assert client.request("infer", expr="head ids")["ok"]
                stats = client.request("stats")
            intern = stats["intern"]
            assert intern["size"] == stats["intern_size"]
            assert set(intern) == {"size", "hits", "misses", "full_events"}
            assert intern["full_events"] == 0
            assert intern["misses"] >= 0 and intern["hits"] >= 0
