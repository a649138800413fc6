"""Work on nested terms grows linearly with their size.

Every unification variable the generator creates is owned by exactly one
generalisation scheme (``Scheme.captured``) or implication
(``Quant.existentials``): the innermost one it was created under.  Its
owner's release floats it into the release's scope (one write, or none
when it is already at that level), so the captured lists of a term of
size n add up to O(n) and so do the solver's bindings.  Capturing the variables
of nested schemes again in every enclosing one made both grow as n² on
nested application (``inc (inc … 0)``, ``tail (tail … ids)``).

The unifier summarises each type node once, so the nodes it summarises
grow linearly too, even where every binding extends one long type.  A
type that entered the environment carries its facts, so the unifiers of
a module check summarise it from them instead of walking it again.  Its
store keys by variable name, so resolving and binding variables hashes
no ``UVar``: the few hashes left come from substitution maps.

Types are DAGs: ``t_{k+1} = [(t_k, t_k)]`` has 2k composite nodes and
2^k leaves.  The type walks behind rendering, the sort judgement, the
quantifier check and the occurs check read each shared node's argument
tuple once, so their work follows the DAG, not the tree.

``forall`` records the free variables of the quantified type it builds,
so a quantifier nested under constructors (``∀a. a → ∀a. a → … Int``)
is never walked again by the ``forall`` around it.

The solver's step counts on the Figure-2 sweep, on a chain of deferred
generalisations and on ``deep_chain_term`` are pinned exactly: they are
deterministic, so any change to scheduling or wake-ups shows here.  So
are the store writes of the Figure-2 sweep and of five stress families:
rule inst→ on a known arrow hands its codomain on without binding a
fresh variable to it, and rule inst⨅l releases a scheme at the scope's
own level without renaming its captured variables.

Quick Look quick-looks each nested spine once: checking an argument
spine reuses the look its enclosing spine took.

Constraint generation's memory is linear in the term too: one binder
scope per run, and evidence keys of constant size.
"""

import tracemalloc

import pytest

from repro.baselines.quicklook import QuickLookInferencer
from repro.baselines.registry import SYSTEMS
from repro.core import Inferencer
from repro.core.constraints import Gen, Quant
from repro.core.env import DataCon
from repro.core.errors import GIError
from repro.core.evidence import EvidenceStore
from repro.core.generate import Generator
from repro.core.names import NameSupply
from repro.core.solver import InstanceEnv, Solver
from repro.core.sorts import Sort
from repro.core.types import (
    ARROW,
    INT,
    LIST_CON,
    TCon,
    TVar,
    Type,
    UVar,
    contains_uvar,
    forall,
    fun,
    list_of,
    mentions_forall,
    render_type,
    respects,
)
from repro.core.unify import Unifier
from repro.evalsuite import workloads
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.modules.engine import ModuleEngine
from repro.syntax import parse_term, parse_type

from benchmarks.pipeline.workloads import STRESS_FAMILIES
from tests.test_faultinject import _profile

ENV = figure2_env()

FAMILIES = {
    # family: n (measured at n and 2n)
    "application_chain": 100,
    "deep_chain_term": 150,
    "defaulting_fan": 30,
    "impredicative_pipeline": 100,
    "lambda_tower": 100,
    "let_chain": 100,
    "wide_application": 100,
}


class _Recording(Generator):
    """A generator that remembers every variable it creates."""

    def __init__(self) -> None:
        super().__init__()
        self.every: list[UVar] = []

    def fresh(self, sort: Sort) -> UVar:
        variable = super().fresh(sort)
        self.every.append(variable)
        return variable


def owners(constraints) -> list[tuple[Gen | Quant, tuple[UVar, ...]]]:
    """Every scheme with its captured list and every implication with
    its existentials, nested ones included."""
    found = []
    stack = list(constraints)
    while stack:
        constraint = stack.pop()
        if isinstance(constraint, Gen):
            found.append((constraint, constraint.scheme.captured))
            stack.extend(constraint.scheme.constraints)
        elif isinstance(constraint, Quant):
            found.append((constraint, constraint.existentials))
            stack.extend(constraint.wanteds)
    return found


def generate(term, env=ENV):
    generator = _Recording()
    _, constraints = generator.gen(env, term)
    return generator, constraints


def work(family: str, size: int) -> tuple[int, int]:
    """Total captured variables and solver bindings for one term."""
    term = getattr(workloads, family)(size)
    _, constraints = generate(term)
    captured = sum(len(owned) for _, owned in owners(constraints))
    result = Inferencer(ENV).infer(term)
    return captured, result.solver.unifier.bindings


def assert_single_owner(generator: _Recording, constraints) -> None:
    """No variable is in two owners' lists, and every created variable is
    either owned or left at the top level (``generator.created``)."""
    lists = [owned for _, owned in owners(constraints)] + [tuple(generator.created)]
    seen: dict[UVar, int] = {}
    for index, owned in enumerate(lists):
        for variable in owned:
            assert variable not in seen, (
                f"{variable} is owned by lists {seen[variable]} and {index}"
            )
            seen[variable] = index
    assert set(seen) == set(generator.every)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_work_counts_grow_linearly(family):
    size = FAMILIES[family]
    small_captured, small_bindings = work(family, size)
    large_captured, large_bindings = work(family, 2 * size)
    assert large_captured <= 2.5 * small_captured, (small_captured, large_captured)
    assert large_bindings <= 2.5 * small_bindings, (small_bindings, large_bindings)


def generation_peak(family: str, size: int) -> int:
    """Peak bytes traced while generating constraints for one term (no
    solver): the driver's open walks, the one binder scope, the evidence
    keys and the constraints themselves."""
    term = getattr(workloads, family)(size)
    tracemalloc.start()
    try:
        Generator().gen(ENV, term)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["let_chain", "lambda_tower"])
def test_generation_memory_grows_linearly(family):
    # A copy of the whole scope per binder, or an evidence key holding
    # the whole path to its node, made this grow about fourfold.
    small, large = generation_peak(family, 2000), generation_peak(family, 4000)
    assert large <= 2.5 * small, (small, large)


def summarised(family: str, size: int) -> int:
    """How many type nodes the unifier summarised for one term."""
    result = Inferencer(ENV).infer(getattr(workloads, family)(size))
    return len(result.solver.unifier._summaries)


@pytest.mark.parametrize("family", ["defaulting_fan", "lambda_tower"])
def test_unifier_summarises_each_node_once(family):
    # Re-walking every new suffix of a growing type made the equivalent
    # count grow about fourfold per doubling.
    size = FAMILIES[family]
    small, large = summarised(family, size), summarised(family, 2 * size)
    assert large <= 2.5 * small, (small, large)


def module_summaries(monkeypatch, depth: int) -> int:
    """Nodes summarised by all the unifiers of one cold check of the
    synthetic module, four chains of ``depth`` bindings."""
    unifiers: list[Unifier] = []
    plain = Unifier.__init__

    def recording(self, *args, **kwargs) -> None:
        plain(self, *args, **kwargs)
        unifiers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(Unifier, "__init__", recording)
        result = ModuleEngine(ENV).check_source(synthetic_module_source(4, depth))
    assert all(report.ok for report in result.reports)
    return sum(len(unifier._summaries) for unifier in unifiers)


def test_module_check_summarises_each_checked_type_once(monkeypatch):
    # Each binding's unifier re-summarised every environment type it
    # instantiated: 1 216 nodes at depth 25, 4 085 at 50.  A type that
    # entered the environment is summarised from its record.  Depth 50
    # at most: the printed types double every third binding.
    small, large = module_summaries(monkeypatch, 25), module_summaries(monkeypatch, 50)
    assert large <= 2.1 * small, (small, large)


def uvar_hashes(monkeypatch, family: str, size: int) -> tuple[int, int]:
    """``UVar.__hash__`` calls while inferring one term, and its bindings."""
    term = getattr(workloads, family)(size)
    plain = UVar.__hash__
    calls = 0

    def counting(variable: UVar) -> int:
        nonlocal calls
        calls += 1
        return plain(variable)

    with monkeypatch.context() as patch:
        patch.setattr(UVar, "__hash__", counting)
        result = Inferencer(ENV).infer(term)
    return calls, result.solver.unifier.bindings


@pytest.mark.parametrize(
    "family, size", list(STRESS_FAMILIES) + [("application_chain", 150)]
)
def test_store_hashes_no_variable_per_binding(monkeypatch, family, size):
    # Keying the store and the watch lists by variable made every find,
    # zonk, bind, union and wake-up hash one: 8 to 14 calls per binding.
    for n in (size, 2 * size):
        calls, bindings = uvar_hashes(monkeypatch, family, n)
        assert calls <= bindings + 8, (family, n, calls, bindings)


def constraint_work(size: int) -> tuple[int, int]:
    """Constraints, nested ones included, and captured variables the
    generator emits for ``impredicative_pipeline(size)``."""
    _, constraints = generate(workloads.impredicative_pipeline(size))
    found = owners(constraints)
    nested = sum(
        len(owner.scheme.constraints if isinstance(owner, Gen) else owner.wanteds)
        for owner, _ in found
    )
    return len(constraints) + nested, sum(len(owned) for _, owned in found)


def test_impredicative_pipeline_constraints_grow_linearly():
    # Quadratic generation or capture would grow about fourfold here.
    (small, small_captured), (large, large_captured) = (
        constraint_work(16),
        constraint_work(32),
    )
    assert large <= 2.5 * small, (small, large)
    assert large_captured <= 2.5 * small_captured, (small_captured, large_captured)


@pytest.mark.parametrize(
    "family, sizes, expected",
    [
        ("application_chain", (8, 32, 128), "Int"),
        ("let_chain", (8, 32, 128), "Int"),
        ("lambda_tower", (8, 32), "Int"),
        ("impredicative_pipeline", (8, 32, 128), "[forall a. a -> a]"),
    ],
)
def test_stress_families_keep_their_types(family, sizes, expected):
    inferencer = Inferencer(ENV)
    for size in sizes:
        term = getattr(workloads, family)(size)
        assert str(inferencer.infer(term).type_) == expected, (family, size)


def test_wide_and_mixed_programs_infer():
    inferencer = Inferencer(ENV)
    for size in (8, 32):
        inferencer.infer(workloads.wide_application(size))
    for size in (10, 40):
        inferencer.infer(workloads.mixed_program(size, seed=size))


def figure2_sweep() -> tuple[int, int, int]:
    """Figure-2 rows GI accepts, and the solver steps and store writes
    they take."""
    inferencer = Inferencer(ENV)
    accepted = steps = writes = 0
    for example in FIGURE2:
        try:
            result = inferencer.infer(example.term)
        except GIError:
            continue
        accepted += 1
        steps += result.solver.steps
        writes += result.solver.unifier.bindings
    return accepted, steps, writes


def test_figure2_sweep_solver_steps():
    # A release at the scope's own level writes nothing (192 writes
    # before).
    assert sum(1 for example in FIGURE2 if example.expected["GI"]) == 24
    assert figure2_sweep() == (24, 248, 163)


def wake_steps(length: int) -> int:
    """Solver steps on a dependency chain of deferred generalisations."""
    solver = Solver(NameSupply("b"), EvidenceStore(), InstanceEnv())
    solver.solve(workloads.gen_chain_constraints(length))
    return solver.steps


def test_wake_steps_on_a_generalisation_chain():
    # The variable-indexed wake-up queue pops each deferred constraint a
    # bounded number of times; re-scanning the deferred list each round
    # made this quadratic.
    assert wake_steps(400) == 1601
    for length in (400, 800):
        assert wake_steps(length) <= 5 * length + 5, length


def test_deep_chain_term_solver_steps():
    assert Inferencer(ENV).infer(workloads.deep_chain_term(300)).solver.steps == 1200


def store_writes(family: str, size: int) -> int:
    return Inferencer(ENV).infer(getattr(workloads, family)(size)).solver.unifier.bindings


@pytest.mark.parametrize(
    "family, size, writes",
    [
        # Rule inst→ on a known arrow writes nothing: binding a fresh
        # ``rest`` to the codomain cost one write per argument
        # (3n + 2, 5n - 1 and 10n - 3 before).  Rule inst⨅l releases a
        # scheme at the scope's own level in place: refreshing each
        # captured variable cost one write (4n - 1, 8n - 3, 15n - 11 and
        # 5n before).  ``lambda_tower`` passes only literal arguments and
        # captures nothing.
        ("lambda_tower", 100, 202),
        ("lambda_tower", 200, 402),
        ("let_chain", 100, 300),
        ("let_chain", 200, 600),
        ("wide_application", 100, 500),
        ("wide_application", 200, 1000),
        ("defaulting_fan", 50, 495),
        ("defaulting_fan", 100, 995),
        ("impredicative_pipeline", 100, 301),
        ("impredicative_pipeline", 200, 601),
    ],
)
def test_store_writes_are_pinned(family, size, writes):
    assert store_writes(family, size) == writes


def test_deep_chain_term_writes_three_per_argument():
    # Each argument writes the head's arrow, the demotion of its expected
    # type and that type's binding.  A ``u``-sort rest under an ``m``-sort
    # head was a fourth: rule eqfully demoted it.
    small, large = store_writes("deep_chain_term", 150), store_writes("deep_chain_term", 300)
    assert (small, large) == (452, 902)
    assert large - small == 3 * 150


#: ``(solver_steps, peak_unify_depth)`` per Figure-2 row, as the
#: fault-injection sweep profiles them.
FIGURE2_PROFILES = {
    "A1": (1, 1), "A2": (6, 2), "A3": (11, 2), "A4": (6, 2), "A5": (7, 2),
    "A6": (8, 2), "A7": (11, 2), "A8": (12, 2), "A9": (16, 2), "A10": (5, 2),
    "A11": (6, 2), "A12": (13, 2), "B1": (18, 2), "B2": (13, 2), "C1": (7, 2),
    "C2": (7, 2), "C3": (9, 2), "C4": (6, 2), "C5": (12, 2), "C6": (13, 2),
    "C7": (22, 2), "C8": (16, 2), "C9": (16, 2), "C10": (17, 2), "D1": (12, 2),
    "D2": (13, 2), "D3": (8, 2), "D4": (14, 2), "D5": (14, 2), "E1": (15, 2),
    "E2": (20, 2), "E3": (6, 2),
}


def test_figure2_profiles_are_pinned():
    # The fault-injection sweep injects at every step and depth of these
    # profiles, so a change to either changes what it covers.
    assert {example.key: _profile(example) for example in FIGURE2} == FIGURE2_PROFILES


def quick_spines(monkeypatch, size: int) -> int:
    """Nested-spine quick looks Quick Look runs on ``application_chain``."""
    plain = QuickLookInferencer._quick_spine
    calls = 0

    def counting(self, term, local):
        nonlocal calls
        calls += 1
        return plain(self, term, local)

    with monkeypatch.context() as patch:
        patch.setattr(QuickLookInferencer, "_quick_spine", counting)
        outcome = SYSTEMS["QuickLook"].run(workloads.application_chain(size), ENV)
    assert str(outcome.type_) == "Int", outcome
    return calls


def test_quick_look_runs_once_per_nested_spine(monkeypatch):
    # Checking an argument spine quick-looked its nested spines again, so
    # every level repeated the looks below it: n(n - 1)/2 in all.
    assert [quick_spines(monkeypatch, n) for n in (150, 300)] == [149, 299]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_variable_has_one_owner(family):
    generator, constraints = generate(getattr(workloads, family)(FAMILIES[family]))
    assert_single_owner(generator, constraints)


@pytest.mark.parametrize("family", ["application_chain", "impredicative_pipeline"])
@pytest.mark.parametrize("size", [1, 8, 100])
def test_nested_application_captures_at_most_2n(family, size):
    captured, _ = work(family, size)
    assert captured <= 2 * size


def _existential_env():
    """``data Box = forall b. MkBox b ([b] -> Int)`` and a ``box``."""
    b = TVar("b")
    env = ENV.with_datacon(
        DataCon(
            "MkBox",
            universals=(),
            existentials=("b",),
            fields=(b, fun(list_of(b), INT)),
            result_con="Box",
        )
    )
    return env.extended("box", parse_type("Box"))


@pytest.mark.parametrize(
    "source, expected",
    [
        # An annotation (an implication) under an argument, with
        # arguments (schemes) under the annotation.
        ("length (tail (single id :: [forall a. a -> a]))", "Int"),
        ("inc (head ((tail (tail ids)) :: [forall a. a -> a]) 1)", "Int"),
        # A case branch with an existential (an implication) under an
        # argument, with arguments under the branch.
        ("inc (case box of { MkBox x f -> f (single x) })", "Int"),
        ("inc (inc (case box of { MkBox x f -> inc (f (tail (single x))) }))", "Int"),
    ],
)
def test_implications_own_their_variables(source, expected):
    env = _existential_env()
    generator, constraints = generate(parse_term(source), env)
    assert any(isinstance(owner, Quant) for owner, _ in owners(constraints))
    assert_single_owner(generator, constraints)
    assert str(Inferencer(env).infer(parse_term(source)).type_) == expected


class _CountedArgs(tuple):
    """An argument tuple that counts how often a walk reads it."""

    reads = 0

    def __iter__(self):
        _CountedArgs.reads += 1
        return super().__iter__()

    def __getitem__(self, index):
        _CountedArgs.reads += 1
        return super().__getitem__(index)


def doubling_chain(k: int) -> TCon:
    """``t_{k+1} = [(t_k, t_k)]`` from ``t_0 = Int``."""
    type_ = INT
    for _ in range(k):
        pair = TCon("(,)", _CountedArgs((type_, type_)))
        type_ = TCon(LIST_CON, _CountedArgs((pair,)))
    return type_


SHARED_WALKS = {
    "render_type": render_type,
    "respects": lambda type_: respects(type_, Sort.M),
    "mentions_forall": mentions_forall,
    "contains_uvar": lambda type_: contains_uvar(type_, UVar("u0", Sort.M)),
}


@pytest.mark.parametrize("walk", sorted(SHARED_WALKS))
@pytest.mark.parametrize("k", [6, 12])
def test_type_walks_read_each_shared_node_once(walk, k):
    # Expanding the tree read 2^(k+1) - 2 tuples: 126 at k = 6, 8190 at 12.
    type_ = doubling_chain(k)
    _CountedArgs.reads = 0
    SHARED_WALKS[walk](type_)
    assert _CountedArgs.reads <= 2 * k + 2, (walk, k, _CountedArgs.reads)


def nested_foralls(n: int) -> Type:
    """``∀a. a → ∀a. a → … → Int``, built inside out as the parser does."""
    type_ = INT
    for _ in range(n):
        type_ = forall(["a"], TCon(ARROW, _CountedArgs((TVar("a"), type_))))
    return type_


def test_nested_foralls_cost_linear_work():
    # Re-walking every body read n(n+1)/2 tuples: 31 375 at n = 250.
    reads = []
    for n in (250, 500):
        _CountedArgs.reads = 0
        nested_foralls(n)
        reads.append(_CountedArgs.reads)
    assert reads[1] <= 2 * reads[0] + 2, reads
