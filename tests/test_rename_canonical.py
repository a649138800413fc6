"""``rename_canonical``: agreement with a recursive oracle on DAG-shared
types, fresh binders per ``∀`` occurrence, identity on untouched input, and
depth safety through the inference entry point."""

from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InternalError
from repro.core.infer import Inferencer
from repro.core.names import letters
from repro.core.sorts import Sort
from repro.core.types import (
    INT,
    Forall,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    forall,
    ftv,
    fun,
    list_of,
    rename_canonical,
    tuple_of,
)
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.workloads import deep_chain_term


def recursive_rename_canonical(type_: Type) -> Type:
    """The tree-rebuilding recursive renamer the library used to ship; kept
    here as the oracle for the iterative, sharing-preserving one."""
    supply = letters()
    used = set(ftv(type_))

    def next_name() -> str:
        for candidate in supply:
            if candidate not in used:
                used.add(candidate)
                return candidate
        raise RuntimeError("unreachable")

    def go(node: Type, env: Mapping[str, Type]) -> Type:
        if isinstance(node, TVar):
            replaced = env.get(node.name)
            return replaced if replaced is not None else node
        if isinstance(node, UVar):
            return node
        if isinstance(node, TCon):
            return TCon(node.name, tuple(go(argument, env) for argument in node.args))
        if isinstance(node, Forall):
            new_env = dict(env)
            new_binders = []
            for binder in node.binders:
                fresh = next_name()
                new_binders.append(fresh)
                new_env[binder] = TVar(fresh)
            new_context = tuple(
                Pred(p.class_name, tuple(go(argument, new_env) for argument in p.args))
                for p in node.context
            )
            return Forall(tuple(new_binders), go(node.body, new_env), new_context)
        raise TypeError(f"unknown type node: {node!r}")

    return go(type_, {})


_LEAVES = (
    TVar("a"),
    TVar("b"),
    TVar("c"),
    TVar("a1"),
    INT,
    TCon("Bool"),
    UVar("u1", Sort.M),
)
_BINDERS = ("a", "b", "c", "d")


@st.composite
def shared_types(draw) -> Type:
    """A type built bottom-up from a pool in which every new node picks its
    children among the earlier ones, so subterms — ``Forall`` nodes
    included — are shared, often several times over."""
    pool: list[Type] = list(_LEAVES)
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        pick = st.sampled_from(pool)
        shape = draw(st.sampled_from(("arrow", "arrow", "list", "pair", "forall", "qualified")))
        if shape == "arrow":
            node: Type = fun(draw(pick), draw(pick))
        elif shape == "list":
            node = list_of(draw(pick))
        elif shape == "pair":
            node = tuple_of(draw(pick), draw(pick))
        else:
            binders = tuple(
                draw(st.lists(st.sampled_from(_BINDERS), min_size=1, max_size=2, unique=True))
            )
            context = (Pred("Eq", (draw(pick),)),) if shape == "qualified" else ()
            node = Forall(binders, draw(pick), context)
        pool.append(node)
    return pool[-1]


class TestAgainstRecursiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(shared_types())
    def test_same_structure_and_rendering(self, type_):
        expected = recursive_rename_canonical(type_)
        renamed = rename_canonical(type_)
        assert renamed == expected
        assert str(renamed) == str(expected)

    def test_nested_shadowing(self):
        inner = Forall(("a",), fun(TVar("a"), TVar("b")))
        type_ = Forall(("b", "a"), fun(inner, fun(TVar("a"), inner)))
        assert rename_canonical(type_) == recursive_rename_canonical(type_)


class TestSharing:
    def test_shared_forall_draws_fresh_binders_per_occurrence(self):
        identity = forall(["a"], fun(TVar("a"), TVar("a")))
        type_ = fun(identity, identity)
        assert str(rename_canonical(type_)) == "(forall a. a -> a) -> (forall b. b -> b)"

    def test_closed_quantifier_free_type_is_returned_as_is(self):
        type_ = fun(list_of(INT), tuple_of(INT, TCon("Bool")))
        assert rename_canonical(type_) is type_

    def test_untouched_subtree_is_reused(self):
        free = fun(TVar("z"), INT)
        type_ = forall(["q"], fun(TVar("q"), free))
        renamed = rename_canonical(type_)
        assert str(renamed) == "forall a. a -> z -> Int"
        assert renamed.body.args[1] is free

    def test_doubling_dag_stays_shared(self):
        # 60 doublings: a tree of 2^60 leaves, renamed in linear time.
        type_ = fun(TVar("x"), INT)
        for _ in range(60):
            type_ = tuple_of(type_, type_)
        assert rename_canonical(type_) is type_


class TestDepth:
    @pytest.mark.parametrize("depth", [1000, 3000])
    def test_deep_chain_infers_and_renders(self, depth):
        try:
            result = Inferencer(figure2_env()).infer(deep_chain_term(depth))
        except InternalError as error:  # pragma: no cover — the regression
            pytest.fail(f"deep_chain_term({depth}): {error}")
        assert str(result.type_) == "forall a. (" + "Int -> " * depth + "a) -> a"
