"""Tests for the observability layer (tracing, metrics, JSONL, explain).

Covers the tentpole contracts:

* tracing is pure observation — identical inference results with no
  tracer, the null tracer, and a live tracer;
* the span tree is well-formed: module group spans attach to their
  layer and batch item spans to their batch via explicit parents;
* every emitted event round-trips through the JSONL schema
  (:func:`validate_event` is the single source of truth) and the span
  tree is rebuildable from the file alone;
* the explainer narrates solver traces in paper vocabulary;
* the CLI surfaces (``--trace``/``--metrics``/``--explain``,
  ``repro trace``, ``--seed``) behave.
"""

import json
from collections import Counter

import pytest

from repro.__main__ import main
from repro.core.errors import GIError, InternalError
from repro.core.infer import Inferencer
from repro.evalsuite import workloads
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.modules import ModuleCache, ModuleEngine
from repro.observability import (
    NULL_TRACER,
    JsonlWriter,
    NullTracer,
    Tracer,
    explain_tracer,
    read_trace,
    render_span_tree,
    spans_from_events,
    validate_event,
    validate_line,
)
from repro.robustness import check_batch, seeded_fault_plan
from repro.syntax import parse_term

from benchmarks.pipeline.workloads import STRESS_FAMILIES

ENV = figure2_env()


def _traced_infer(source: str) -> Tracer:
    tracer = Tracer()
    Inferencer(ENV, tracer=tracer).infer(parse_term(source))
    return tracer


def _counted(name: str):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
        return getattr(NullTracer, name)(self, *args, **kwargs)

    return method


class _CountingNullTracer(NullTracer):
    """A disabled tracer that counts the calls it receives."""

    def __init__(self) -> None:
        self.calls = Counter()

    span = _counted("span")
    event = _counted("event")
    inc = _counted("inc")
    gauge = _counted("gauge")
    observe = _counted("observe")


class TestTracerCore:
    def test_span_nesting_single_thread(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("tick", n=1)
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent_id == outer.span_id
        assert outer.end is not None and inner.end is not None
        assert inner.start >= outer.start and inner.end <= outer.end

    def test_explicit_parent_crosses_threads(self):
        import threading

        tracer = Tracer()
        with tracer.span("layer") as layer:

            def worker():
                with tracer.span("group", parent=layer):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        (child,) = layer.children
        assert child.name == "group"
        assert child.parent_id == layer.span_id

    def test_attrs_are_sanitized_to_json_types(self):
        tracer = Tracer()
        with tracer.span("s", type=parse_term("id"), pair=(1, "two")) as span:
            pass
        assert span.attrs["type"] == "id"
        assert span.attrs["pair"] == [1, "two"]
        json.dumps(span.attrs)  # must be serialisable as-is

    def test_null_tracer_is_inert(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", x=1) as span:
            assert span is None
        NULL_TRACER.event("e")
        NULL_TRACER.inc("c")
        NULL_TRACER.gauge("g", 1.0)
        NULL_TRACER.observe("h", 1.0)

    def test_disabled_tracer_receives_no_calls(self):
        # Every instrumentation site checks ``tracer.enabled`` before it
        # builds a payload, so a disabled tracer costs one attribute load
        # per site and is never called.
        tracer = _CountingNullTracer()
        inferencer = Inferencer(ENV, tracer=tracer)
        terms = [example.term for example in FIGURE2] + [
            getattr(workloads, family)(size) for family, size in STRESS_FAMILIES
        ]
        for term in terms:
            try:
                inferencer.infer(term)
            except GIError:
                pass
        assert tracer.calls == {}

    def test_tracing_never_changes_results(self):
        """Observation only: all tracer configurations agree with none."""
        for example in FIGURE2:
            outcomes = []
            for tracer in (None, NULL_TRACER, Tracer()):
                inferencer = Inferencer(ENV, tracer=tracer)
                try:
                    outcomes.append(str(inferencer.infer(example.term).type_))
                except GIError as error:
                    outcomes.append(type(error).__name__)
            assert len(set(outcomes)) == 1, (example.key, outcomes)

    def test_infer_emits_phase_spans(self):
        tracer = _traced_infer("app runST argST")
        (root,) = tracer.roots
        assert root.name == "infer"
        assert [child.name for child in root.children] == [
            "generate",
            "solve",
            "generalize",
        ]
        solve = root.children[1]
        assert solve.attrs["constraints"] >= 1

    def test_metrics_counters_populated(self):
        tracer = _traced_infer("app runST argST")
        counters = tracer.metrics.to_dict()["counters"]
        assert counters["infer.runs"] == 1
        assert counters["solver.steps"] > 0
        assert counters["unify.calls"] > 0

    def test_failed_inference_closes_spans_and_counts_error(self):
        tracer = Tracer()
        with pytest.raises(GIError):
            Inferencer(ENV, tracer=tracer).infer(parse_term("inc True"))
        assert all(span.end is not None for span in tracer.spans.values())
        assert tracer.metrics.to_dict()["counters"]["infer.errors"] == 1
        assert any(
            event["event"] == "point" and event["name"] == "infer.error"
            for event in tracer.events
        )


class TestJsonlSchema:
    def test_every_emitted_event_validates(self):
        tracer = _traced_infer("app runST argST")
        tracer.emit_metrics_event()
        assert tracer.events, "trace must not be empty"
        for event in tracer.events:
            assert validate_event(event) == [], event

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = JsonlWriter(open(path, "w", encoding="utf-8"))
        tracer = Tracer(sink=writer)
        Inferencer(ENV, tracer=tracer).infer(parse_term("app runST argST"))
        tracer.emit_metrics_event()
        writer.close()
        assert writer.lines == len(tracer.events)

        events = read_trace(str(path))
        assert events == tracer.events
        for line in path.read_text(encoding="utf-8").splitlines():
            assert validate_line(line) == []

        # The span tree is rebuildable from the file alone (timestamps are
        # rounded to microseconds in JSONL, so compare structure, not time).
        rebuilt = spans_from_events(events)
        live = tracer.roots
        assert [
            (span.span_id, span.parent_id, span.name, span.attrs)
            for root in rebuilt
            for span in root.walk()
        ] == [
            (span.span_id, span.parent_id, span.name, span.attrs)
            for root in live
            for span in root.walk()
        ]
        assert render_span_tree(rebuilt).splitlines()[0].startswith("infer")

    def test_validator_rejects_bad_events(self):
        good = {"v": 1, "event": "gauge", "ts": 0.1, "name": "g", "value": 2}
        assert validate_event(good) == []
        assert validate_event({**good, "v": 2})  # wrong version
        assert validate_event({**good, "event": "nope"})  # unknown kind
        assert validate_event({**good, "extra": 1})  # unexpected field
        missing = dict(good)
        del missing["value"]
        assert validate_event(missing)
        assert validate_event([1, 2])  # not an object
        assert validate_line("{not json")
        assert validate_line(json.dumps(good)) == []


class TestSpanTree:
    def test_module_span_tree_well_formed(self):
        source = synthetic_module_source(chains=3, depth=4)
        tracer = Tracer()
        engine = ModuleEngine(ENV, tracer=tracer)
        result = engine.check_source(source)
        assert result.ok

        spans = tracer.spans
        # Parent/child agreement: every non-root span's parent exists and
        # lists it as a child; every span was closed.
        for span in spans.values():
            assert span.end is not None, span.name
            if span.parent_id is None:
                assert span in tracer.roots
            else:
                parent = spans[span.parent_id]
                assert span in parent.children

        # Group spans attach under the layer that checked them.
        by_name = {}
        for span in spans.values():
            by_name.setdefault(span.name, []).append(span)
        assert by_name["group.check"], "no groups traced"
        for group in by_name["group.check"]:
            assert spans[group.parent_id].name == "layer"
        for layer in by_name["layer"]:
            assert spans[layer.parent_id].name == "module.check"
        for infer in by_name["infer"]:
            assert spans[infer.parent_id].name == "group.check"

    def test_batch_item_spans_parent_to_batch(self):
        tracer = Tracer()
        sources = ["head ids", "app runST argST", "single id", "ids"]
        result = check_batch(sources, ENV, tracer=tracer)
        assert result.ok
        (batch,) = [s for s in tracer.spans.values() if s.name == "batch"]
        items = [s for s in tracer.spans.values() if s.name == "batch.item"]
        assert len(items) == len(sources)
        assert {item.parent_id for item in items} == {batch.span_id}
        assert [item.attrs["index"] for item in items] == [0, 1, 2, 3]


class TestExplainer:
    def test_narrative_uses_paper_vocabulary(self):
        tracer = _traced_infer("app runST argST")
        narrative = explain_tracer(tracer)
        assert "classification" in narrative
        assert "inst∀l" in narrative or "instϵ" in narrative
        assert "picked" in narrative
        assert "bound" in narrative

    def test_defer_reasons_explained(self):
        tracer = _traced_infer("app runST argST")
        narrative = explain_tracer(tracer)
        assert "deferred:" in narrative


class TestModuleCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        source = synthetic_module_source(chains=2, depth=3)
        cache = ModuleCache()
        engine = ModuleEngine(ENV, cache=cache)
        cold = engine.check_source(source)
        assert cold.ok and cold.stats.cache_misses == len(cold.types)

        path = tmp_path / "mod.cache.json"
        cache.save(str(path))
        reloaded = ModuleCache.load(str(path))
        assert len(reloaded) == len(cache)

        warm = ModuleEngine(ENV, cache=reloaded).check_source(source)
        assert warm.ok and warm.stats.cache_hits == len(warm.types)

    def test_load_damaged_file_cold_starts(self, tmp_path):
        path = tmp_path / "bad.cache.json"
        path.write_text("{definitely not json", encoding="utf-8")
        assert len(ModuleCache.load(str(path))) == 0
        path.write_text(json.dumps({"version": 99, "entries": {}}), encoding="utf-8")
        assert len(ModuleCache.load(str(path))) == 0
        assert len(ModuleCache.load(str(tmp_path / "missing.json"))) == 0

    def _populated_cache(self):
        cache = ModuleCache()
        engine = ModuleEngine(ENV, cache=cache)
        result = engine.check_source(synthetic_module_source(chains=1, depth=2))
        assert result.ok
        return cache

    def test_crashed_save_leaves_old_sidecar_intact(self, tmp_path, monkeypatch):
        # A writer dying mid-save (full disk, kill -9 between write and
        # rename) must never corrupt the sidecar: the write goes to a
        # temp file that is renamed over the target only when complete.
        cache = self._populated_cache()
        path = tmp_path / "mod.cache.json"
        cache.save(str(path))
        before = path.read_text(encoding="utf-8")

        import repro.modules.cache as cache_module

        def explode(*_args, **_kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.json, "dump", explode)
        with pytest.raises(OSError):
            cache.save(str(path))
        assert path.read_text(encoding="utf-8") == before
        assert len(ModuleCache.load(str(path))) == len(cache)
        # ... and the aborted attempt cleans up its temp file.
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_save_is_effective_through_rename(self, tmp_path):
        cache = self._populated_cache()
        path = tmp_path / "fresh"
        path.mkdir()
        target = path / "mod.cache.json"
        cache.save(str(target))
        assert len(ModuleCache.load(str(target))) == len(cache)
        assert [p.name for p in path.iterdir()] == ["mod.cache.json"]


class TestSeededSweeps:
    def test_seeded_plans_are_deterministic(self):
        plans = [seeded_fault_plan(7, i) for i in range(16)]
        again = [seeded_fault_plan(7, i) for i in range(16)]
        assert [
            (p.fail_at_solver_step, p.fail_at_unify_depth) for p in plans
        ] == [(p.fail_at_solver_step, p.fail_at_unify_depth) for p in again]
        # Both trigger families appear across a modest sweep.
        assert any(p.fail_at_solver_step for p in plans)
        assert any(p.fail_at_unify_depth for p in plans)

    def test_seeded_batch_reproducible_and_stamped(self):
        sources = ["head ids", "app runST argST", "single id"]
        # seed 7 deterministically faults two of these three items.
        first = check_batch(sources, ENV, seed=7)
        second = check_batch(sources, ENV, seed=7)
        assert [item.to_dict() for item in first.items] == [
            item.to_dict() for item in second.items
        ]
        assert len(first.failures) == 2
        for diagnostic in first.diagnostics:
            assert diagnostic.seed == 7


class TestWorkerTraceback:
    def test_pool_crash_snapshot_carries_remote_traceback(self):
        from repro.robustness.pool import run_contained

        def boom(item):
            raise ValueError("kaput")

        with pytest.raises(InternalError) as info:
            run_contained(boom, 1)
        snapshot = info.value.snapshot
        assert "kaput" in snapshot["traceback"]
        assert "Traceback (most recent call last)" in snapshot["traceback"]
        assert snapshot["worker"]
        assert "\n" not in str(info.value)

    def test_internal_error_traceback_reaches_batch_json(self):
        result = check_batch(["inc (" * 2000 + "0" + ")" * 2000], ENV)
        (diagnostic,) = result.diagnostics
        assert diagnostic.severity == "internal"
        payload = json.dumps(result.to_dict())
        assert "RecursionError" in payload


class TestCliObservability:
    def test_infer_trace_to_stdout(self, capsys):
        assert main(["infer", "app runST argST", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "infer" in out and "solve" in out and "generalize" in out

    def test_infer_metrics_table(self, capsys):
        assert main(["infer", "head ids", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "solver.steps" in out and "metric" in out

    def test_infer_explain(self, capsys):
        assert main(["infer", "app runST argST", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "picked" in out and "classification" in out

    def test_trace_file_validates(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["infer", "head ids", "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "events written" in err
        assert main(["trace", str(trace), "--validate"]) == 0
        assert "valid (schema v1)" in capsys.readouterr().out

    def test_trace_replay_and_explain(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        main(["infer", "app runST argST", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        assert "infer" in capsys.readouterr().out
        assert main(["trace", str(trace), "--explain"]) == 0
        assert "picked" in capsys.readouterr().out

    def test_trace_validate_flags_corruption(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"v":1,"event":"nope","ts":0}\n', encoding="utf-8")
        assert main(["trace", str(trace), "--validate"]) == 1
        assert "unknown event kind" in capsys.readouterr().err

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/run.jsonl", "--validate"]) == 2

    def test_module_trace_metrics_and_warm_cache(self, tmp_path, capsys):
        path = tmp_path / "m.gi"
        path.write_text(
            "module M where\nx :: Int\nx = 1\ny :: Int\ny = inc x\n",
            encoding="utf-8",
        )
        assert main(["module", str(path), "--trace", "--metrics"]) == 0
        cold = capsys.readouterr().out
        assert "module.check" in cold and "group.check" in cold
        assert "module.cache.misses" in cold
        assert main(["module", str(path), "--trace", "--metrics"]) == 0
        warm = capsys.readouterr().out
        assert "module.cache.hits" in warm

    def test_module_no_cache_skips_sidecar(self, tmp_path, capsys):
        path = tmp_path / "m.gi"
        path.write_text("module M where\nx :: Int\nx = 1\n", encoding="utf-8")
        assert main(["module", str(path), "--no-cache"]) == 0
        assert not (tmp_path / "m.gi.cache.json").exists()

    def test_batch_seed_stamped_in_json(self, tmp_path, capsys):
        batch = tmp_path / "batch.txt"
        batch.write_text("head ids\napp runST argST\nsingle id\n", encoding="utf-8")
        assert main(["batch", str(batch), "--seed", "42", "--json"]) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        seeds = {
            item["diagnostic"]["seed"]
            for item in payload["items"]
            if item["diagnostic"]
        }
        assert seeds == {42}

    def test_repl_trace_and_stats(self, capsys, monkeypatch):
        lines = iter([":trace on", "head ids", ":stats", ":trace off", ":q"])
        monkeypatch.setattr("builtins.input", lambda _="": next(lines))
        assert main(["repl"]) == 0
        out = capsys.readouterr().out
        assert "tracing on" in out
        assert "infer" in out and "generalize" in out  # the span tree
        assert "solver.steps" in out  # :stats
        assert "tracing off" in out
