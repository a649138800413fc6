"""Command-line interface: ``python -m repro``.

Subcommands::

    python -m repro infer "head ids"          # infer a type
    python -m repro check "single id" "[Int -> Int]"
    python -m repro run "runST $ argST"       # evaluate
    python -m repro elaborate "id : ids"      # show the System F witness
    python -m repro batch exprs.txt --json    # check many expressions
    python -m repro batch tests/corpus        # replay a counterexample corpus
    python -m repro module lib.gi --stats     # check a module file
    python -m repro fuzz --seed 42 --count 500   # conformance sweep
    python -m repro figure2                   # regenerate the table
    python -m repro trace run.jsonl           # replay a recorded trace
    python -m repro repl                      # interactive loop
    python -m repro serve --socket /tmp/gi.sock --jobs 4   # daemon
    python -m repro loadgen --socket /tmp/gi.sock          # drive it

``infer``, ``batch``, ``module`` and ``fuzz`` accept the observability flags:
``--trace`` prints the span tree of the run, ``--trace FILE`` streams
JSONL trace events to ``FILE`` (replayable with ``repro trace``),
``--metrics`` prints the counter/gauge/histogram summary and
``--profile`` a per-span calls/total/self table.  ``infer --explain``
narrates the solver derivation step by step.

All commands use the Figure 1 prelude environment.  No command ever
prints a raw Python traceback: type errors are reported as one-line
``type error:`` diagnostics, and internal failures (e.g. blowing the
recursion limit on pathological input) as one-line ``internal error …``
diagnostics, also when the engine contained the failure as an
:class:`~repro.core.errors.InternalError`.
"""

from __future__ import annotations

import argparse
import json as json_module
import sys

from repro.core import Inferencer
from repro.core.errors import GIError, InternalError
from repro.core.infer import InferOptions
from repro.core.terms import Ann
from repro.interp import run as interp_run
from repro.syntax import parse_term, parse_type
from repro.evalsuite.figure2 import figure2_env


def _inferencer() -> Inferencer:
    return Inferencer(figure2_env())


def _internal_diagnostic(error: BaseException) -> str:
    """One line for a contained crash; never a traceback."""
    if isinstance(error, InternalError):  # already contained and rendered
        return str(error)
    detail = str(error) or "(no message)"
    if len(detail) > 200:
        detail = detail[:200] + "…"
    return f"internal error ({type(error).__name__}): {detail}"


def _diagnostic(error: Exception, prefix: str = "type error") -> str:
    """One line for a failed command: ``prefix: …`` for a type error, and
    ``internal error …`` for a crash, contained by the engine or not."""
    if isinstance(error, GIError) and not isinstance(error, InternalError):
        return f"{prefix}: {error}"
    return _internal_diagnostic(error)


class _Obs:
    """One command's observability session, built from the CLI flags.

    Owns the tracer (and the JSONL sink when ``--trace FILE`` was given)
    and renders whatever surfaces were requested when the command
    finishes — on the error paths too, since a failing run is exactly
    the one whose trace is wanted.
    """

    def __init__(self, trace, metrics: bool, profile: bool, explain: bool) -> None:
        from repro.observability import JsonlWriter, Tracer

        self.trace = trace
        self.show_metrics = metrics
        self.show_profile = profile
        self.show_explain = explain
        self.writer = None
        if trace is not None and trace != "-":
            self.writer = JsonlWriter(open(trace, "w", encoding="utf-8"))
        self.tracer = Tracer(sink=self.writer)

    @classmethod
    def from_args(cls, arguments) -> "_Obs | None":
        trace = getattr(arguments, "trace", None)
        metrics = getattr(arguments, "metrics", False)
        profile = getattr(arguments, "profile", False)
        explain = getattr(arguments, "explain", False)
        if trace is None and not metrics and not profile and not explain:
            return None
        return cls(trace, metrics, profile, explain)

    def finish(self) -> None:
        from repro.observability import (
            explain_tracer,
            render_metrics,
            render_profile,
            render_span_tree,
        )

        sections: list[str] = []
        if self.writer is not None:
            self.tracer.emit_metrics_event()
            self.writer.close()
            print(
                f"trace: {self.writer.lines} events written to {self.trace}",
                file=sys.stderr,
            )
        elif self.trace == "-":
            sections.append(render_span_tree(self.tracer.roots))
        if self.show_explain:
            sections.append(explain_tracer(self.tracer))
        if self.show_metrics:
            sections.append(render_metrics(self.tracer.metrics))
        if self.show_profile:
            sections.append(render_profile(self.tracer.roots))
        for section in sections:
            print()
            print(section)


def _resolve_policy(name: str):
    """Parse a ``--policy`` value; print the hint and return ``None`` on
    an unknown name (callers exit 2, mirroring the `--systems` path)."""
    from repro.core.policy import POLICY_NAMES, parse_policy

    try:
        return parse_policy(name)
    except ValueError:
        print(
            f"error: unknown policy {name!r} "
            f"(available: {', '.join(POLICY_NAMES)})",
            file=sys.stderr,
        )
        return None


def _add_policy_flag(parser) -> None:
    parser.add_argument(
        "--policy",
        default=None,
        metavar="NAME",
        help="instantiation policy: eager|lazy crossed with deep|shallow "
        "(eager-shallow, eager-deep, lazy-shallow, lazy-deep; "
        "default: eager-shallow, the paper's discipline)",
    )


def cmd_infer(source: str, policy=None, obs: _Obs | None = None) -> int:
    tracer = obs.tracer if obs is not None else None
    options = InferOptions(policy=policy) if policy is not None else None
    code = 0
    try:
        try:
            result = Inferencer(
                figure2_env(), options=options, tracer=tracer
            ).infer(parse_term(source))
            print(result.type_)
        except Exception as error:  # noqa: BLE001 — CLI containment
            print(_diagnostic(error), file=sys.stderr)
            code = 1
    finally:
        if obs is not None:
            obs.finish()
    return code


def cmd_check(source: str, signature: str) -> int:
    try:
        term = Ann(parse_term(source), parse_type(signature))
        _inferencer().infer(term)
    except Exception as error:  # noqa: BLE001 — CLI containment
        print(_diagnostic(error), file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_run(source: str) -> int:
    try:
        term = parse_term(source)
        _inferencer().infer(term)  # type before running
        value = interp_run(term)
    except Exception as error:  # noqa: BLE001 — CLI containment
        print(_diagnostic(error, "error"), file=sys.stderr)
        return 1
    print(value)
    return 0


def cmd_elaborate(source: str) -> int:
    from repro.systemf import elaborate_result, pretty_fterm, typecheck

    try:
        result = _inferencer().infer(parse_term(source))
        fterm = elaborate_result(result)
        ftype = typecheck(fterm, figure2_env())
    except Exception as error:  # noqa: BLE001 — CLI containment
        print(_diagnostic(error), file=sys.stderr)
        return 1
    print(f"term : {pretty_fterm(fterm)}")
    print(f"type : {ftype}")
    return 0


def cmd_batch(
    path: str,
    max_steps: int | None,
    max_depth: int | None,
    timeout: float | None,
    as_json: bool,
    seed: int | None = None,
    policy=None,
    obs: _Obs | None = None,
) -> int:
    import signal as signal_module
    import threading

    from repro.robustness import Budget, check_batch, read_batch_file, render_text

    try:
        sources = read_batch_file(path)
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:  # a bad `-- policy:` header in an input file
        print(f"error: {error}", file=sys.stderr)
        return 2
    budget = Budget(
        max_solver_steps=max_steps,
        max_unify_depth=max_depth,
        wall_clock=timeout,
    )
    # SIGINT/SIGTERM request a *cooperative* stop: the in-flight item
    # finishes, the rest are skipped, and the partial results are still emitted
    # (JSON carries `"interrupted": true`; exit code is 130).
    cancel = threading.Event()
    previous_handlers: dict = {}
    try:
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            previous_handlers[signum] = signal_module.signal(
                signum, lambda *_args: cancel.set()
            )
    except ValueError:
        previous_handlers = {}  # not the main thread (tests) — no handlers
    try:
        result = check_batch(
            sources,
            figure2_env(),
            budget=budget,
            seed=seed,
            options=InferOptions(policy=policy) if policy is not None else None,
            tracer=obs.tracer if obs is not None else None,
            cancel=cancel,
        )
        if as_json:
            print(json_module.dumps(result.to_dict(), indent=2))
        else:
            print(render_text(result))
        if result.interrupted:
            return 130
        return 0 if result.ok else 1
    finally:
        for signum, handler in previous_handlers.items():
            signal_module.signal(signum, handler)
        if obs is not None:
            obs.finish()


def cmd_module(
    path: str,
    max_steps: int | None,
    max_depth: int | None,
    timeout: float | None,
    as_json: bool,
    stats: bool,
    no_cache: bool = False,
    obs: _Obs | None = None,
) -> int:
    from repro.modules import ModuleCache, ModuleEngine, render_module_text
    from repro.robustness import Budget

    budget = Budget(
        max_solver_steps=max_steps,
        max_unify_depth=max_depth,
        wall_clock=timeout,
    )
    # The result cache persists next to the module (``lib.gi`` keeps its
    # checked types in ``lib.gi.cache.json``), so re-running the command
    # on an unchanged file starts warm — visible as cache hits in
    # ``--stats`` / ``--metrics``.  ``--no-cache`` opts out.
    cache_path = path + ".cache.json"
    cache = ModuleCache() if no_cache else ModuleCache.load(cache_path)
    engine = ModuleEngine(
        figure2_env(),
        budget=budget,
        cache=cache,
        tracer=obs.tracer if obs is not None else None,
    )
    try:
        try:
            result = engine.check_file(path)
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        except Exception as error:  # noqa: BLE001 — CLI containment
            print(_diagnostic(error, "error"), file=sys.stderr)
            return 1
        if not no_cache:
            try:
                cache.save(cache_path)
            except OSError:
                pass  # a read-only location degrades to no persistence
        if as_json:
            print(json_module.dumps(result.to_dict(include_stats=stats), indent=2))
        else:
            print(render_module_text(result, stats=stats))
        return 0 if result.ok else 1
    finally:
        if obs is not None:
            obs.finish()


def cmd_fuzz(arguments, obs: _Obs | None = None) -> int:
    from pathlib import Path

    from repro.conformance import (
        DEFAULT_ORACLES,
        ORACLES,
        FuzzConfig,
        render_fuzz_text,
        run_fuzz,
    )

    from repro.baselines import SYSTEMS

    oracles = tuple(arguments.oracle) if arguments.oracle else DEFAULT_ORACLES
    unknown = [name for name in oracles if name not in ORACLES]
    if unknown:
        print(
            f"error: unknown oracle(s) {', '.join(unknown)} "
            f"(available: {', '.join(ORACLES)})",
            file=sys.stderr,
        )
        return 2
    systems = tuple(arguments.system) if arguments.system else None
    if systems is not None:
        unknown_systems = [name for name in systems if name not in SYSTEMS]
        if unknown_systems:
            print(
                f"error: unknown system(s) {', '.join(unknown_systems)} "
                f"(available: {', '.join(SYSTEMS)}; see `repro systems`)",
                file=sys.stderr,
            )
            return 2
    policy = None
    if arguments.policy is not None:
        policy = _resolve_policy(arguments.policy)
        if policy is None:
            return 2
    config = FuzzConfig(
        seed=arguments.seed,
        count=arguments.count,
        oracles=oracles,
        systems=systems,
        **({"policy": policy.name} if policy is not None else {}),
        corpus_dir=Path(arguments.corpus) if arguments.corpus else None,
        fault_step=arguments.fault_step,
        fault_depth=arguments.fault_depth,
    )
    try:
        report = run_fuzz(config, tracer=obs.tracer if obs is not None else None)
        if arguments.json:
            print(json_module.dumps(report.to_dict(), indent=2))
        else:
            print(render_fuzz_text(report))
        return 0 if report.ok else 1
    except Exception as error:  # noqa: BLE001 — CLI containment
        print(_internal_diagnostic(error), file=sys.stderr)
        return 2
    finally:
        if obs is not None:
            obs.finish()


def cmd_systems(arguments) -> int:
    """List the registered backends (the differential-fuzz matrix)."""
    from repro.baselines import SYSTEMS
    from repro.conformance import PAIRWISE_IMPLICATIONS

    if arguments.json:
        payload = {
            "systems": [
                {"name": system.name, "description": system.description}
                for system in SYSTEMS.values()
            ],
            "implications": [
                {"premise": premise, "conclusion": conclusion, "level": level}
                for premise, conclusion, level in PAIRWISE_IMPLICATIONS
            ],
        }
        print(json_module.dumps(payload, indent=2))
        return 0
    width = max(len(name) for name in SYSTEMS)
    print("Registered type systems (use with `repro fuzz --systems NAME`):")
    for system in SYSTEMS.values():
        print(f"  {system.name:<{width}}  {system.description}")
    print("\nDifferential-oracle implications (premise accepts ⇒ conclusion):")
    for premise, conclusion, level in PAIRWISE_IMPLICATIONS:
        suffix = " (α-equivalent types)" if level == "type" else ""
        print(f"  {premise} ⇒ {conclusion}{suffix}")
    return 0


def cmd_serve(arguments) -> int:
    import asyncio

    from repro.robustness.server import GIServer, ServeConfig

    if (arguments.socket is None) == (arguments.port is None):
        print("error: exactly one of --socket / --port is required", file=sys.stderr)
        return 2
    config = ServeConfig(
        socket_path=arguments.socket,
        host=arguments.host,
        port=arguments.port,
        jobs=arguments.jobs,
        queue_limit=arguments.queue_limit,
        default_timeout_ms=arguments.default_timeout_ms,
        max_timeout_ms=arguments.max_timeout_ms,
        max_solver_steps=arguments.max_steps,
        max_unify_depth=arguments.max_depth,
        allow_faults=arguments.allow_faults,
        drain_grace_s=arguments.drain_grace,
        trace_path=arguments.trace,
    )
    server = GIServer(config)

    def announce(started: GIServer) -> None:
        print(
            f"repro serve: listening on {started.address} "
            f"(jobs={config.jobs}, queue={config.queue_limit})",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(server.run(ready=announce))
    except KeyboardInterrupt:
        # Only reachable where the loop could not own SIGINT; the drain
        # already ran via the signal handler on mainstream platforms.
        return 130
    except OSError as error:
        print(f"error: cannot listen: {error}", file=sys.stderr)
        return 2
    counts = server.counts
    print(
        f"repro serve: drained ({server.exit_reason}) — "
        f"{counts['total']} requests, {counts['internal']} contained crashes, "
        f"{counts['shed']} shed",
        file=sys.stderr,
    )
    return 0


def cmd_loadgen(arguments) -> int:
    from repro.robustness.loadgen import LoadConfig, render_load_text, run_load

    if (arguments.socket is None) == (arguments.port is None):
        print("error: exactly one of --socket / --port is required", file=sys.stderr)
        return 2
    config = LoadConfig(
        socket_path=arguments.socket,
        host=arguments.host,
        port=arguments.port,
        clients=arguments.clients,
        requests=arguments.requests,
        seed=arguments.seed,
        timeout_ms=arguments.timeout_ms,
        fault_rate=arguments.fault_rate,
        oversize_rate=arguments.oversize_rate,
        disconnect_rate=arguments.disconnect_rate,
    )
    try:
        report = run_load(config)
    except (ConnectionError, OSError) as error:
        print(f"error: cannot reach server: {error}", file=sys.stderr)
        return 2
    if arguments.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(render_load_text(report))
    return 1 if report.violations else 0


def cmd_trace(path: str, explain: bool, validate: bool) -> int:
    """Replay, narrate or schema-check a recorded JSONL trace file."""
    from repro.observability import (
        explain_events,
        read_trace,
        render_span_tree,
        spans_from_events,
        validate_line,
    )

    if validate:
        problems: list[str] = []
        total = 0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    total += 1
                    problems.extend(
                        f"line {lineno}: {problem}" for problem in validate_line(line)
                    )
        except OSError as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        if problems:
            for problem in problems[:20]:
                print(problem, file=sys.stderr)
            print(
                f"invalid: {len(problems)} schema error(s) across {total} event(s)",
                file=sys.stderr,
            )
            return 1
        print(f"ok: {total} events valid (schema v1)")
        return 0
    try:
        events = read_trace(path)
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: not a JSONL trace: {error}", file=sys.stderr)
        return 1
    if explain:
        print(explain_events(events))
    else:
        print(render_span_tree(spans_from_events(events)))
    return 0


_REPL_HELP = (
    "commands: :t <e> show a type · :r <e> run · :load <file> check a module "
    "and bring its bindings into scope · :browse list bindings · "
    ":set policy <name> switch the instantiation policy "
    "(:set policy shows the current one) · "
    ":trace on/off span trees per expression · :stats session metrics · :q quit"
)


def _repl_load(gi: Inferencer, path: str, loaded: dict[str, str]) -> Inferencer:
    """Check a module file and extend the REPL environment.

    Returns the (possibly new) inferencer; prints a summary.  Bindings of
    a partially failing module are still loaded when they checked.
    """
    from repro.modules import ModuleEngine, render_module_text

    engine = ModuleEngine(gi.env)
    result = engine.check_file(path)
    if not result.ok:
        print(render_module_text(result))
    checked = result.types
    loaded.update(checked)
    print(f"loaded {len(checked)}/{len(result.reports)} bindings from {path}")
    return Inferencer(result.env)


def cmd_repl() -> int:
    from repro.observability import Metrics, Tracer, render_metrics, render_span_tree

    gi = _inferencer()
    loaded: dict[str, str] = {}
    session_metrics = Metrics()
    """One metrics registry for the whole session: every traced
    expression accumulates into it, and ``:stats`` reads it back."""
    trace_on = False

    def infer_traced(term):
        """Infer, printing the run's span tree when ``:trace on``."""
        if not trace_on:
            return gi.infer(term)
        tracer = Tracer(metrics=session_metrics)
        try:
            return Inferencer(
                gi.env, gi.instances, gi.options, tracer=tracer
            ).infer(term)
        finally:
            print(render_span_tree(tracer.roots))

    print("guarded-impredicativity repl — :q to quit, :h for help")
    while True:
        try:
            line = input("gi> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line in (":q", ":quit"):
            return 0
        try:
            if line in (":h", ":help", ":?"):
                print(_REPL_HELP)
            elif line == ":browse":
                names = sorted(gi.env.names())
                for name in names:
                    origin = " (loaded)" if name in loaded else ""
                    print(f"{name} :: {gi.env.lookup(name)}{origin}")
            elif line == ":set policy" or line.startswith(":set policy "):
                from dataclasses import replace as dc_replace

                from repro.core.policy import POLICY_NAMES, parse_policy

                name = line[len(":set policy") :].strip()
                if not name:
                    print(f"policy: {gi.options.policy}")
                else:
                    try:
                        new_policy = parse_policy(name)
                    except ValueError:
                        print(
                            f"unknown policy `{name}` "
                            f"(available: {', '.join(POLICY_NAMES)})"
                        )
                    else:
                        gi = Inferencer(
                            gi.env,
                            gi.instances,
                            dc_replace(gi.options, policy=new_policy),
                        )
                        print(f"policy: {new_policy}")
            elif line in (":trace on", ":trace off", ":trace"):
                trace_on = not trace_on if line == ":trace" else line == ":trace on"
                print(f"tracing {'on' if trace_on else 'off'}")
            elif line == ":stats":
                print(render_metrics(session_metrics))
            elif line.startswith(":load "):
                gi = _repl_load(gi, line[6:].strip(), loaded)
            elif line.startswith(":t "):
                print(infer_traced(parse_term(line[3:])).type_)
            elif line.startswith(":r "):
                term = parse_term(line[3:])
                infer_traced(term)
                print(interp_run(term))
            elif line.startswith(":"):
                command = line.split()[0]
                print(f"unknown command `{command}` — {_REPL_HELP}")
            else:
                print(infer_traced(parse_term(line)).type_)
        except OSError as error:
            print(f"error: {error}")
        except Exception as error:  # noqa: BLE001 — the repl must survive
            print(_diagnostic(error, "error"))


def _add_observability_flags(parser, explain: bool = False) -> None:
    parser.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="print the span tree of the run; with FILE, stream JSONL "
        "trace events there instead (replayable via `repro trace`)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the counter/gauge/histogram summary after the run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-span calls/total/self-time table",
    )
    if explain:
        parser.add_argument(
            "--explain",
            action="store_true",
            help="narrate the solver derivation (rules, classifications, bindings)",
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="infer the principal type")
    p_infer.add_argument("expr")
    _add_policy_flag(p_infer)
    _add_observability_flags(p_infer, explain=True)
    p_check = sub.add_parser("check", help="check against a signature")
    p_check.add_argument("expr")
    p_check.add_argument("signature")
    p_run = sub.add_parser("run", help="type-check then evaluate")
    p_run.add_argument("expr")
    p_elab = sub.add_parser("elaborate", help="show the System F witness")
    p_elab.add_argument("expr")
    p_batch = sub.add_parser(
        "batch",
        help="check a file of expressions (one per line), one budget each",
    )
    p_batch.add_argument("file")
    p_batch.add_argument(
        "--max-steps", type=int, default=None, help="solver step budget per item"
    )
    p_batch.add_argument(
        "--max-depth", type=int, default=None, help="unification depth budget per item"
    )
    p_batch.add_argument(
        "--timeout", type=float, default=None, help="wall-clock seconds per item"
    )
    p_batch.add_argument(
        "--json", action="store_true", help="emit structured JSON diagnostics"
    )
    p_batch.add_argument(
        "--seed",
        type=int,
        default=None,
        help="arm a deterministic per-item fault plan derived from this seed "
        "(reproducible fault-injection sweep; the seed is recorded in every "
        "diagnostic)",
    )
    _add_policy_flag(p_batch)
    _add_observability_flags(p_batch)
    p_module = sub.add_parser(
        "module",
        help="check a module file: SCC binding groups, incremental cache",
    )
    p_module.add_argument("file")
    p_module.add_argument(
        "--max-steps", type=int, default=None, help="solver step budget per group"
    )
    p_module.add_argument(
        "--max-depth", type=int, default=None, help="unification depth budget per group"
    )
    p_module.add_argument(
        "--timeout", type=float, default=None, help="wall-clock seconds per group"
    )
    p_module.add_argument(
        "--json", action="store_true", help="emit structured JSON results"
    )
    p_module.add_argument(
        "--stats",
        action="store_true",
        help="report cache hits/misses and per-group timings",
    )
    p_module.add_argument(
        "--no-cache",
        action="store_true",
        help="do not load/save the on-disk result cache (<file>.cache.json)",
    )
    _add_observability_flags(p_module)
    p_fuzz = sub.add_parser(
        "fuzz",
        help="conformance sweep: seeded term generation + oracle battery",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="sweep seed (same seed ⇒ same cases)"
    )
    p_fuzz.add_argument(
        "--count", type=int, default=100, help="number of cases to generate"
    )
    p_fuzz.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this oracle (repeatable; default: the full battery)",
    )
    p_fuzz.add_argument(
        "--systems",
        dest="system",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict the differential oracle to this backend "
        "(repeatable; default: every registered system — see `repro systems`)",
    )
    p_fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write minimized counterexamples as replayable .gi files here",
    )
    p_fuzz.add_argument(
        "--json", action="store_true", help="emit the structured sweep report"
    )
    p_fuzz.add_argument(
        "--fault-step",
        type=int,
        default=None,
        help="arm an injected solver fault at step N for every case "
        "(self-test: the crash oracle must catch it)",
    )
    p_fuzz.add_argument(
        "--fault-depth",
        type=int,
        default=None,
        help="arm an injected unifier fault at depth D for every case",
    )
    _add_policy_flag(p_fuzz)
    _add_observability_flags(p_fuzz)
    p_trace = sub.add_parser(
        "trace",
        help="replay a recorded JSONL trace: span tree, narrative, or schema check",
    )
    p_trace.add_argument("file")
    p_trace.add_argument(
        "--explain",
        action="store_true",
        help="narrate the solver derivation recorded in the trace",
    )
    p_trace.add_argument(
        "--validate",
        action="store_true",
        help="check every line against the trace event schema; exit 1 on errors",
    )
    p_serve = sub.add_parser(
        "serve",
        help="long-running JSONL type-checking daemon (sessions, "
        "backpressure, graceful drain)",
    )
    p_serve.add_argument("--socket", default=None, metavar="PATH", help="Unix socket")
    p_serve.add_argument("--port", type=int, default=None, help="TCP port (0=ephemeral)")
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind address")
    p_serve.add_argument("--jobs", type=int, default=2, help="inference worker threads")
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="admitted-but-unfinished request bound; beyond it load is shed",
    )
    p_serve.add_argument(
        "--default-timeout-ms",
        type=int,
        default=10_000,
        help="per-request deadline when the client sends none",
    )
    p_serve.add_argument(
        "--max-timeout-ms",
        type=int,
        default=30_000,
        help="ceiling clamping any client-supplied timeout_ms",
    )
    p_serve.add_argument(
        "--max-steps", type=int, default=1_000_000, help="solver step ceiling per request"
    )
    p_serve.add_argument(
        "--max-depth",
        type=int,
        default=100_000,
        help="unification depth ceiling per request",
    )
    p_serve.add_argument(
        "--allow-faults",
        action="store_true",
        help="accept fault_step/fault_depth request fields (soak harness)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds a drain waits for in-flight work before cancelling",
    )
    p_serve.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="stream JSONL trace events here (flushed on drain)",
    )
    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive a serve daemon with a seeded mixed workload",
    )
    p_loadgen.add_argument("--socket", default=None, metavar="PATH", help="Unix socket")
    p_loadgen.add_argument("--port", type=int, default=None, help="TCP port")
    p_loadgen.add_argument("--host", default="127.0.0.1", help="TCP host")
    p_loadgen.add_argument("--clients", type=int, default=8)
    p_loadgen.add_argument(
        "--requests", type=int, default=50, help="requests per client"
    )
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument("--timeout-ms", type=int, default=10_000)
    p_loadgen.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="fraction of requests arming an injected fault "
        "(server must run with --allow-faults)",
    )
    p_loadgen.add_argument(
        "--oversize-rate",
        type=float,
        default=0.0,
        help="fraction of requests exceeding the line ceiling",
    )
    p_loadgen.add_argument(
        "--disconnect-rate",
        type=float,
        default=0.0,
        help="fraction of requests abandoned mid-flight",
    )
    p_loadgen.add_argument(
        "--json", action="store_true", help="emit the structured report"
    )
    p_systems = sub.add_parser(
        "systems",
        help="list the registered type-system backends and oracle implications",
    )
    p_systems.add_argument(
        "--json", action="store_true", help="emit the structured listing"
    )
    sub.add_parser("figure2", help="regenerate Figure 2")
    sub.add_parser("repl", help="interactive loop")

    arguments = parser.parse_args(argv)
    policy = None
    if getattr(arguments, "policy", None) is not None:
        policy = _resolve_policy(arguments.policy)
        if policy is None:
            return 2
    if arguments.command == "infer":
        return cmd_infer(arguments.expr, policy=policy, obs=_Obs.from_args(arguments))
    if arguments.command == "check":
        return cmd_check(arguments.expr, arguments.signature)
    if arguments.command == "run":
        return cmd_run(arguments.expr)
    if arguments.command == "elaborate":
        return cmd_elaborate(arguments.expr)
    if arguments.command == "batch":
        return cmd_batch(
            arguments.file,
            arguments.max_steps,
            arguments.max_depth,
            arguments.timeout,
            arguments.json,
            seed=arguments.seed,
            policy=policy,
            obs=_Obs.from_args(arguments),
        )
    if arguments.command == "module":
        return cmd_module(
            arguments.file,
            arguments.max_steps,
            arguments.max_depth,
            arguments.timeout,
            arguments.json,
            arguments.stats,
            no_cache=arguments.no_cache,
            obs=_Obs.from_args(arguments),
        )
    if arguments.command == "fuzz":
        return cmd_fuzz(arguments, obs=_Obs.from_args(arguments))
    if arguments.command == "systems":
        return cmd_systems(arguments)
    if arguments.command == "serve":
        return cmd_serve(arguments)
    if arguments.command == "loadgen":
        return cmd_loadgen(arguments)
    if arguments.command == "trace":
        return cmd_trace(arguments.file, arguments.explain, arguments.validate)
    if arguments.command == "figure2":
        import runpy
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "examples" / "figure2_table.py"
        runpy.run_path(str(script), run_name="__main__")
        return 0
    if arguments.command == "repl":
        return cmd_repl()
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
