"""The incremental module-checking engine.

One :class:`ModuleEngine` owns a base environment, a result cache and a
budget, and repeatedly checks (evolving versions of) a module::

    engine = ModuleEngine(figure2_env())
    result = engine.check_source(source)      # cold: everything misses
    result = engine.check_source(edited)      # warm: only dirty SCCs run

Per check, the engine

1. parses the module and condenses its dependency graph into SCC
   binding groups (:mod:`repro.modules.graph`);
2. walks the topological *layers* of the condensation in one serial
   loop; a group that needs re-checking runs through
   :func:`~repro.robustness.pool.run_contained` under a clone of the
   engine's :class:`~repro.robustness.budget.Budget`, re-armed per
   group;
3. consults the content-hash cache (:mod:`repro.modules.cache`) before
   checking a group — a group whose every member's key is unchanged is
   taken from the cache without running inference, which is what makes
   re-checking an edited module proportional to the edit's invalidation
   footprint rather than to the module size;
4. aggregates per-binding outcomes: a checked type, a structured
   diagnostic, or a *skip* when a dependency failed (one failure costs
   its dependents a one-line skip diagnostic each, never a cascade of
   spurious scope errors).

The returned :class:`ModuleResult` carries the extended environment so
callers (the REPL's ``:load``) can keep using the module's bindings.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.env import Environment
from repro.core.infer import InferOptions
from repro.core.solver import InstanceEnv
from repro.core.types import Type
from repro.modules.cache import ModuleCache, binding_key
from repro.modules.checker import check_group
from repro.modules.graph import BindingGroup, GraphSummary, binding_groups, topo_layers
from repro.modules.parser import Module, parse_module, parse_module_file
from repro.robustness.batch import SEVERITY_ERROR, Diagnostic
from repro.robustness.budget import Budget
from repro.robustness.pool import clone_budget, run_contained


@dataclass
class BindingReport:
    """The outcome for one top-level binding."""

    name: str
    index: int
    """Declaration position within the module."""

    type_text: str | None = None
    diagnostic: Diagnostic | None = None
    cached: bool = False
    group: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.diagnostic is None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "ok": self.ok,
            "type": self.type_text,
            "cached": self.cached,
            "group": list(self.group),
            "diagnostic": self.diagnostic.to_dict() if self.diagnostic else None,
        }


@dataclass
class GroupTiming:
    """``--stats`` row: one binding group, how it was resolved."""

    names: tuple[str, ...]
    layer: int
    seconds: float
    cached: bool
    skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "layer": self.layer,
            "seconds": round(self.seconds, 6),
            "cached": self.cached,
            "skipped": self.skipped,
        }


@dataclass
class ModuleStats:
    """Cache and timing statistics for one check run."""

    cache_hits: int = 0
    cache_misses: int = 0
    groups_checked: int = 0
    groups_cached: int = 0
    groups_skipped: int = 0
    elapsed_seconds: float = 0.0
    graph: GraphSummary = field(default_factory=GraphSummary)
    group_timings: list[GroupTiming] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "groups_checked": self.groups_checked,
            "groups_cached": self.groups_cached,
            "groups_skipped": self.groups_skipped,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "graph": self.graph.to_dict(),
            "group_timings": [timing.to_dict() for timing in self.group_timings],
        }


@dataclass
class ModuleResult:
    """Everything one check run produced, in declaration order."""

    module: Module
    reports: list[BindingReport]
    stats: ModuleStats
    env: Environment
    """The base environment extended with every successfully checked
    binding — ready for a REPL or a dependent module."""

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    @property
    def failures(self) -> list[BindingReport]:
        return [report for report in self.reports if not report.ok]

    @property
    def types(self) -> dict[str, str]:
        return {
            report.name: report.type_text
            for report in self.reports
            if report.type_text is not None
        }

    def to_dict(self, include_stats: bool = True) -> dict:
        payload = {
            "module": self.module.name,
            "path": self.module.path,
            "total": len(self.reports),
            "passed": len(self.reports) - len(self.failures),
            "failed": len(self.failures),
            "bindings": [report.to_dict() for report in self.reports],
        }
        if include_stats:
            payload["stats"] = self.stats.to_dict()
        return payload


class ModuleEngine:
    """A reusable, caching module checker; see the module docstring."""

    def __init__(
        self,
        env: Environment | None = None,
        instances: InstanceEnv | None = None,
        options: InferOptions | None = None,
        budget: Budget | None = None,
        cache: ModuleCache | None = None,
        tracer=None,
    ) -> None:
        self.env = env or Environment()
        self.instances = instances
        self.options = options
        self.budget = budget
        # ``cache or ModuleCache()`` would discard a caller-supplied
        # *empty* cache (ModuleCache defines __len__, so empty is falsy)
        # — fatal for persistence, where the caller keeps the reference
        # to save it after the run.
        self.cache = cache if cache is not None else ModuleCache()
        self.tracer = tracer
        self._env_hashes: dict[str, tuple[Type, str]] = {}
        """The key hash of each environment name a check has read."""

    def _span(self, name: str, parent=None, **attrs):
        if self.tracer is not None and self.tracer.enabled:
            return self.tracer.span(name, parent=parent, **attrs)
        return nullcontext()

    # ------------------------------------------------------------------

    def check_file(self, path: str) -> ModuleResult:
        """Parse and check a module file from disk."""
        with self._span("parse", path=path):
            module = parse_module_file(path)
        return self.check_module(module)

    def check_source(self, source: str, path: str | None = None) -> ModuleResult:
        """Parse and check module source text."""
        with self._span("parse", chars=len(source)):
            module = parse_module(source, path=path)
        return self.check_module(module)

    def check_module(self, module: Module) -> ModuleResult:
        started = time.perf_counter()
        tracing = self.tracer is not None and self.tracer.enabled
        budget = clone_budget(self.budget)
        self.cache.reset_counters()
        with self._span("module.check", module=module.name or "(anonymous)") as module_span:
            with self._span("graph", parent=module_span):
                groups = binding_groups(module)
                layers = topo_layers(groups)
            indices = {name: position for position, name in enumerate(module.names)}

            stats = ModuleStats(graph=GraphSummary.of(groups))
            reports: dict[str, BindingReport] = {}
            env = self.env
            failed: set[str] = set()
            dep_hashes: dict[str, str] = {}
            rechecked: set[str] = set()
            """Names that went through inference (not cache) this run —
            a later cache hit that *depends* on one of these is an early
            cutoff: the dependency re-checked to the same type hash."""

            for layer_index, layer in enumerate(layers):
                with self._span(
                    "layer", parent=module_span, index=layer_index, groups=len(layer)
                ) as layer_span:
                    new_bindings: dict[str, Type] = {}
                    for group in layer:
                        blocked = sorted(group.deps & failed)
                        if blocked:
                            self._skip_group(group, blocked, indices, reports)
                            failed.update(group.names)
                            stats.groups_skipped += 1
                            stats.group_timings.append(
                                GroupTiming(
                                    group.names, layer_index, 0.0, False, skipped=True
                                )
                            )
                            if tracing:
                                self.tracer.inc("module.groups.skipped")
                                self.tracer.event(
                                    "module.skip",
                                    names=",".join(group.names),
                                    blocked_on=blocked,
                                )
                            continue
                        keys = {
                            binding.name: binding_key(
                                binding, group, dep_hashes, env, self._env_hashes
                            )
                            for binding in group.bindings
                        }
                        entries = {
                            name: self.cache.peek(name, key) for name, key in keys.items()
                        }
                        if all(entry is not None for entry in entries.values()):
                            self.cache.hits += len(entries)
                            stats.cache_hits += len(entries)
                            stats.groups_cached += 1
                            stats.group_timings.append(
                                GroupTiming(group.names, layer_index, 0.0, cached=True)
                            )
                            if tracing:
                                self.tracer.inc("module.cache.hits", len(entries))
                                cutoff = sorted(group.deps & rechecked)
                                if cutoff:
                                    self.tracer.inc("module.cache.cutoffs")
                                    self.tracer.event(
                                        "module.cache.cutoff",
                                        names=",".join(group.names),
                                        unchanged_deps=cutoff,
                                    )
                                else:
                                    self.tracer.event(
                                        "module.cache.hit", names=",".join(group.names)
                                    )
                            for binding in group.bindings:
                                entry = entries[binding.name]
                                reports[binding.name] = BindingReport(
                                    name=binding.name,
                                    index=indices[binding.name],
                                    type_text=entry.type_text,
                                    cached=True,
                                    group=group.names,
                                )
                                new_bindings[binding.name] = entry.type_
                                dep_hashes[binding.name] = entry.type_hash
                            continue
                        self.cache.misses += len(entries)
                        stats.cache_misses += len(entries)
                        if tracing:
                            self.tracer.inc("module.cache.misses", len(entries))
                            self.tracer.event(
                                "module.cache.miss", names=",".join(group.names)
                            )
                        outcome = run_contained(
                            check_group,
                            group,
                            env,
                            self.instances,
                            self.options,
                            budget=budget,
                            indices=indices,
                            tracer=self.tracer,
                            parent_span=layer_span,
                        )
                        stats.groups_checked += 1
                        rechecked.update(group.names)
                        stats.group_timings.append(
                            GroupTiming(
                                group.names, layer_index, outcome.seconds, False
                            )
                        )
                        for binding in group.bindings:
                            if binding.name in outcome.types:
                                type_ = outcome.types[binding.name]
                                entry = self.cache.store(
                                    binding.name, keys[binding.name], type_
                                )
                                type_text = entry.type_text
                                reports[binding.name] = BindingReport(
                                    name=binding.name,
                                    index=indices[binding.name],
                                    type_text=type_text,
                                    group=group.names,
                                )
                                new_bindings[binding.name] = type_
                                dep_hashes[binding.name] = entry.type_hash
                            else:
                                reports[binding.name] = BindingReport(
                                    name=binding.name,
                                    index=indices[binding.name],
                                    diagnostic=outcome.diagnostics[binding.name],
                                    group=group.names,
                                )
                                failed.add(binding.name)
                    if new_bindings:
                        env = env.extended_many(new_bindings)

        stats.elapsed_seconds = time.perf_counter() - started
        ordered = [reports[name] for name in module.names]
        return ModuleResult(module=module, reports=ordered, stats=stats, env=env)

    # ------------------------------------------------------------------

    @staticmethod
    def _skip_group(
        group: BindingGroup,
        blocked_on: list[str],
        indices: dict[str, int],
        reports: dict[str, BindingReport],
    ) -> None:
        culprits = ", ".join(f"`{name}`" for name in blocked_on)
        for binding in group.bindings:
            reports[binding.name] = BindingReport(
                name=binding.name,
                index=indices[binding.name],
                diagnostic=Diagnostic(
                    severity=SEVERITY_ERROR,
                    index=indices[binding.name],
                    error_class="SkippedBinding",
                    message=f"not checked: depends on failed binding {culprits}",
                    binding=binding.name,
                ),
                group=group.names,
            )


def render_module_text(result: ModuleResult, stats: bool = False) -> str:
    """The human-readable report printed by ``python -m repro module``."""
    lines: list[str] = []
    for report in result.reports:
        if report.ok:
            marker = " (cached)" if report.cached else ""
            lines.append(f"{report.name} :: {report.type_text}{marker}")
        else:
            diagnostic = report.diagnostic
            lines.append(
                f"{report.name}: {diagnostic.severity}"
                f" [{diagnostic.error_class}]: {diagnostic.message}"
            )
    total = len(result.reports)
    failed = len(result.failures)
    lines.append(f"{total - failed}/{total} bindings checked, {failed} failed")
    if stats:
        s = result.stats
        lines.append(
            f"groups: {s.graph.groups} ({s.graph.recursive_groups} recursive) "
            f"in {s.graph.layers} layers; checked {s.groups_checked}, "
            f"cached {s.groups_cached}, skipped {s.groups_skipped}"
        )
        lines.append(
            f"cache: {s.cache_hits} hits, {s.cache_misses} misses; "
            f"elapsed {s.elapsed_seconds:.3f}s"
        )
        for timing in s.group_timings:
            if timing.cached or timing.skipped:
                continue
            lines.append(
                f"  {'+'.join(timing.names)}: {timing.seconds * 1000:.1f} ms "
                f"(layer {timing.layer})"
            )
    return "\n".join(lines)
