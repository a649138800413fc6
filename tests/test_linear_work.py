"""Work on nested terms grows linearly with their size.

Every unification variable the generator creates is owned by exactly one
generalisation scheme (``Scheme.captured``) or implication
(``Quant.existentials``): the innermost one it was created under.  Its
owner's release refreshes it, so the captured lists of a term of size n
add up to O(n) and so do the solver's bindings.  Capturing the variables
of nested schemes again in every enclosing one made both grow as n² on
nested application (``inc (inc … 0)``, ``tail (tail … ids)``).

The unifier summarises each type node once, so the nodes it summarises
grow linearly too, even where every binding extends one long type.  Its
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
deterministic, so any change to scheduling or wake-ups shows here.

Sizes stay below the depth at which the recursive term walk of the
generator runs out of Python stack (about 330 nested applications).
"""

import pytest

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
from repro.evalsuite import workloads
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.syntax import parse_term, parse_type

from benchmarks.pipeline.workloads import STRESS_FAMILIES

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


def figure2_sweep() -> tuple[int, int]:
    """Figure-2 rows GI accepts, and the solver steps they take."""
    inferencer = Inferencer(ENV)
    accepted = steps = 0
    for example in FIGURE2:
        try:
            result = inferencer.infer(example.term)
        except GIError:
            continue
        accepted += 1
        steps += result.solver.steps
    return accepted, steps


def test_figure2_sweep_solver_steps():
    assert sum(1 for example in FIGURE2 if example.expected["GI"]) == 24
    assert figure2_sweep() == (24, 248)


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
