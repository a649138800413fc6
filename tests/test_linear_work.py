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

Sizes stay below the depth at which the recursive term walk of the
generator runs out of Python stack (about 330 nested applications).
"""

import pytest

from repro.core import Inferencer
from repro.core.constraints import Gen, Quant
from repro.core.env import DataCon
from repro.core.generate import Generator
from repro.core.sorts import Sort
from repro.core.types import (
    INT,
    LIST_CON,
    TCon,
    TVar,
    UVar,
    contains_uvar,
    fun,
    list_of,
    mentions_forall,
    render_type,
    respects,
)
from repro.evalsuite import workloads
from repro.evalsuite.figure2 import figure2_env
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
