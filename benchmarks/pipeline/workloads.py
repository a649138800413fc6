"""The in-process workloads: ``paper``, ``stress`` and ``module``.

Each workload builds its engines once (set-up), then yields *passes*:
lists of :class:`Item` generated from ``random.Random(f"{seed}:…:{pass}")``
so that pass ``i`` of a seed is the same work on every run.  An item's
``run`` is the timed call into ``repro``'s public API; its ``check``
compares the output with :mod:`benchmarks.pipeline.reference` outside
the timed region.

When a tracer is given, the public constructors receive it and the
benchmark opens its own spans around the calls it makes (``syntax.parse``,
``render``, ``baselines.<system>``) under one root span per item.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.registry import POLICY_SYSTEMS, SYSTEMS
from repro.core.errors import GIError, InternalError
from repro.core.infer import InferOptions, Inferencer
from repro.core.policy import POLICIES
from repro.evalsuite import workloads as synthetic
from repro.evalsuite.figure2 import FIGURE2, MEASURED_SYSTEMS, figure2_env
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.evalsuite.policies import TC211
from repro.modules import ModuleCache, ModuleEngine
from repro.syntax import parse_term

from benchmarks.pipeline.reference import Reference, module_types, same_type, stress_type

_NULL = nullcontext()


@dataclass
class Item:
    """One timed unit of work and the check of its output."""

    cls: str
    """Item class (a Figure-2 part, a stress family, a module check
    kind), for the per-class detail lines."""

    key: str
    """The input: per-input medians feed ``verdict_ms_p50``, and failure
    messages name it."""

    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    """Returns a description of what is wrong, or ``None``."""

    counts: Callable[[Any], dict[str, int]] = field(default=lambda output: {})
    """Untraced counts read from the output's public fields."""


@dataclass(frozen=True)
class Verdict:
    """What one backend said about one term."""

    accepted: bool
    text: str
    """The rendered type, or the error class of a rejection."""

    crashed: bool = False


class Workload:
    """Shared plumbing: engines, the optional tracer, span helper."""

    name = ""

    def __init__(self, seed: int, reference: Reference, tracer=None) -> None:
        self.seed = seed
        self.reference = reference
        self.tracer = tracer
        self.env = figure2_env()
        self.gi = Inferencer(self.env, tracer=tracer)

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return _NULL
        return self.tracer.span(name, **attrs)

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{index}")

    def warm_up(self) -> None:
        """One small verdict, so lazy set-up is paid before timing."""
        str(self.gi.infer(parse_term("head ids")).type_)

    def make_pass(self, index: int) -> list[Item]:  # pragma: no cover — abstract
        raise NotImplementedError


def _gi_counts(result) -> dict[str, int]:
    if result is None:
        return {}
    return {
        "gen.constraints": len(result.constraints),
        "solver.steps": result.solver.steps,
        "unify.bindings": result.solver.unifier.bindings,
    }


class Paper(Workload):
    """Figure 2 through GI and the six other backends, plus the tc211
    rows under every backend with a policy axis and every policy.

    GI's cells go through an :class:`Inferencer` (one per policy), the
    per-item path of ``repro batch``, so their time lands in the
    ``infer.*`` layers; the other backends go through ``SYSTEMS[name].run``.
    """

    name = "paper"

    def __init__(self, seed: int, reference: Reference, tracer=None) -> None:
        super().__init__(seed, reference, tracer)
        self.gi_policy = {
            policy.name: Inferencer(self.env, options=InferOptions(policy=policy), tracer=tracer)
            for policy in POLICIES
        }

    def run_gi(self, source: str, inferencer: Inferencer):
        with self.span("syntax.parse"):
            term = parse_term(source)
        try:
            result = inferencer.infer(term)
        except InternalError as error:
            return Verdict(False, type(error).__name__, crashed=True), None
        except GIError as error:
            return Verdict(False, type(error).__name__), None
        with self.span("render"):
            text = str(result.type_)
        return Verdict(True, text), result

    def run_system(self, system: str, source: str, policy=None):
        with self.span("syntax.parse"):
            term = parse_term(source)
        with self.span(f"baselines.{system}"):
            if policy is None:
                outcome = SYSTEMS[system].run(term, self.env)
            else:
                outcome = SYSTEMS[system].run(term, self.env, policy=policy)
        if outcome.accepted:
            with self.span("render"):
                return Verdict(True, str(outcome.type_)), None
        return Verdict(False, outcome.error or "", crashed=not outcome.available), None

    @staticmethod
    def check_verdict(output, expected: bool, paper_type: str | None = None) -> str | None:
        verdict = output[0]
        if verdict.crashed:
            return f"crashed: {verdict.text}"
        if verdict.accepted != expected:
            return f"accepted={verdict.accepted}, reference says {expected}"
        if verdict.accepted and paper_type and not same_type(verdict.text, paper_type):
            return f"type {verdict.text!r}, paper states {paper_type!r}"
        return None

    @staticmethod
    def counts(output) -> dict[str, int]:
        verdict, result = output
        counts = {"baselines.crashed": int(verdict.crashed)}
        if result is not None:
            counts.update(_gi_counts(result))
        return counts

    def make_pass(self, index: int) -> list[Item]:
        rng = self.rng(index)
        rows = list(FIGURE2)
        rng.shuffle(rows)
        items = [
            Item(
                "figure2-gi",
                f"GI {row.key}",
                lambda row=row: self.run_gi(row.source, self.gi),
                lambda output, row=row: self.check_verdict(
                    output, self.reference.accepts(row.key), row.gi_type
                ),
                self.counts,
            )
            for row in rows
        ]
        baseline_cells = [(system, row) for system in MEASURED_SYSTEMS[1:] for row in FIGURE2]
        rng.shuffle(baseline_cells)
        items += [
            Item(
                "figure2-baselines",
                f"{system} {row.key}",
                lambda system=system, row=row: self.run_system(system, row.source),
                lambda output, system=system, row=row: self.check_verdict(
                    output, self.reference.accepts(row.key, system)
                ),
                self.counts,
            )
            for system, row in baseline_cells
        ]
        grid = [
            (policy, system, row)
            for policy in POLICIES
            for system in POLICY_SYSTEMS
            for row in TC211
        ]
        rng.shuffle(grid)
        items += [
            Item(
                "tc211-policies",
                f"{system} {row.key} {policy.name}",
                (lambda policy=policy, row=row: self.run_gi(row.source, self.gi_policy[policy.name]))
                if system == "GI"
                else (lambda policy=policy, system=system, row=row: self.run_system(
                    system, row.source, policy
                )),
                lambda output, policy=policy, system=system, row=row: self.check_verdict(
                    output, self.reference.tc211_accepts(policy.name, system, row.key)
                ),
                self.counts,
            )
            for policy, system, row in grid
        ]
        return items


#: ``(family, base size)``; each item's size is the base jittered ±10%.
#: Every size stays below the depth at which GI's recursive helpers
#: raise (``deep_chain_term(500)`` fails today).
STRESS_FAMILIES = (
    ("deep_chain_term", 300),
    ("defaulting_fan", 60),
    ("impredicative_pipeline", 100),
    ("let_chain", 400),
    ("lambda_tower", 200),
    ("wide_application", 100),
)


class Stress(Workload):
    """Large synthetic ASTs: solve/unify/zonk dominate, parse is bypassed."""

    name = "stress"

    def run_term(self, term):
        try:
            result = self.gi.infer(term)
        except GIError as error:
            return f"{type(error).__name__}: {error}", None
        with self.span("render"):
            return str(result.type_), result

    @staticmethod
    def check_type(output, label: str, expected: str) -> str | None:
        if output[1] is not None and same_type(output[0], expected):
            return None
        return f"{label}: {output[0][:120]!r}… is not {expected[:120]!r}…"

    def make_pass(self, index: int) -> list[Item]:
        rng = self.rng(index)
        items = []
        for family, base in STRESS_FAMILIES:
            size = round(base * rng.uniform(0.9, 1.1))
            term = getattr(synthetic, family)(size)
            expected = stress_type(family, size)
            items.append(
                Item(
                    family,
                    family,
                    lambda term=term: self.run_term(term),
                    lambda output, label=f"{family}({size})", expected=expected: self.check_type(
                        output, label, expected
                    ),
                    lambda output: _gi_counts(output[1]),
                )
            )
        rng.shuffle(items)
        return items


class Module(Workload):
    """Rounds of cold, warm, type-changing and type-preserving checks of
    ``synthetic_module_source(4, 25)``, each round on a fresh engine."""

    name = "module"
    CHAINS = 4
    DEPTH = 25

    def __init__(self, seed: int, reference: Reference, tracer=None) -> None:
        super().__init__(seed, reference, tracer)
        self.source = synthetic_module_source(self.CHAINS, self.DEPTH)
        self.bindings = len(module_types(self.source))

    def _engine(self) -> ModuleEngine:
        return ModuleEngine(self.env, cache=ModuleCache(), tracer=self.tracer)

    def warm_up(self) -> None:
        super().warm_up()
        self._engine()

    def check_module(self, text: str, result, misses: int) -> str | None:
        if not result.ok:
            failure = result.failures[0]
            return f"{len(result.failures)} bindings failed, e.g. {failure.name}: {failure.diagnostic.message}"
        expected = module_types(text)
        for name, rendered in result.types.items():
            if not same_type(rendered, expected[name]):
                return f"{name} :: {rendered[:80]!r}, expected {expected[name][:80]!r}"
        stats = result.stats
        if (stats.cache_misses, stats.cache_hits) != (misses, self.bindings - misses):
            return (
                f"cache hits/misses {stats.cache_hits}/{stats.cache_misses}, "
                f"expected {self.bindings - misses}/{misses}"
            )
        return None

    def make_pass(self, index: int) -> list[Item]:
        rng = self.rng(index)
        changed, preserved = rng.sample(range(self.CHAINS), 2)
        literal = rng.randrange(self.CHAINS, 10**6)
        edit = self.source.replace(
            f"c{changed}_0 :: Int\nc{changed}_0 = {changed}\n",
            f"c{changed}_0 :: Bool\nc{changed}_0 = True\n",
        )
        cutoff = edit.replace(f"c{preserved}_0 = {preserved}\n", f"c{preserved}_0 = {literal}\n")
        engine = self._engine()
        steps = (
            ("cold", self.source, self.bindings),
            ("warm", self.source, 0),
            ("edit", edit, self.DEPTH),
            ("cutoff", cutoff, 1),
        )
        return [
            Item(
                kind,
                kind,
                lambda text=text: engine.check_source(text),
                lambda result, text=text, misses=misses: self.check_module(
                    text, result, misses
                ),
                lambda result: {
                    "modules.cache_hits": result.stats.cache_hits,
                    "modules.cache_misses": result.stats.cache_misses,
                    "modules.groups_checked": result.stats.groups_checked,
                },
            )
            for kind, text, misses in steps
        ]


WORKLOADS = {workload.name: workload for workload in (Paper, Stress, Module)}
