"""Unit tests for environments, name supplies, and the prelude."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.env as env_module
from repro.core.env import DataCon, Environment
from repro.core.errors import ScopeError
from repro.core.names import NameSupply, letters
from repro.core.sorts import Sort
from repro.core.types import BOOL, INT, TVar, UVar, forall, ftv, fun, list_of
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.evalsuite.prelude import figure1_env
from repro.modules.engine import ModuleEngine


class TestEnvironment:
    def test_lookup(self):
        env = Environment({"x": INT})
        assert env.lookup("x") == INT

    def test_lookup_missing(self):
        with pytest.raises(ScopeError):
            Environment().lookup("x")

    def test_extended_is_persistent(self):
        env = Environment({"x": INT})
        extended = env.extended("y", INT)
        assert "y" in extended
        assert "y" not in env

    def test_extended_many(self):
        env = Environment().extended_many({"a": INT, "b": INT})
        assert "a" in env and "b" in env

    def test_shadowing(self):
        env = Environment({"x": INT}).extended("x", list_of(INT))
        assert env.lookup("x") == list_of(INT)

    def test_free_type_vars(self):
        env = Environment({"x": fun(TVar("a"), TVar("b"))})
        assert env.free_type_vars() == {"a", "b"}

    def test_free_unification_vars(self):
        alpha = UVar("u", Sort.M)
        env = Environment({"x": alpha})
        assert env.free_unification_vars() == {alpha}

    def test_is_closed(self):
        assert Environment({"x": forall(["a"], TVar("a"))}).is_closed()
        assert not Environment({"x": TVar("a")}).is_closed()

    def test_datacons(self):
        con = DataCon("K", ("a",), (), (TVar("a"),), "T")
        env = Environment().with_datacon(con)
        assert env.lookup_datacon("K") is con
        with pytest.raises(ScopeError):
            env.lookup_datacon("Missing")

    def test_free_type_vars_is_frozen_and_memoised(self):
        env = Environment({"x": TVar("a")})
        first = env.free_type_vars()
        assert isinstance(first, frozenset)
        assert env.free_type_vars() is first

    def test_shadowing_open_with_closed_drops_its_variables(self):
        env = Environment({"x": fun(TVar("a"), TVar("b")), "y": TVar("c")})
        assert env.free_type_vars() == {"a", "b", "c"}
        shadowed = env.extended("x", INT)
        assert shadowed.free_type_vars() == {"c"}
        assert env.free_type_vars() == {"a", "b", "c"}
        assert env.extended_many({"y": BOOL}).free_type_vars() == {"a", "b"}

    def test_shadowing_closed_with_open_adds_its_variables(self):
        env = Environment({"x": INT})
        assert env.free_type_vars() == frozenset()
        assert env.extended("x", TVar("a")).free_type_vars() == {"a"}
        assert env.extended_many({"x": list_of(TVar("b"))}).free_type_vars() == {"b"}

    def test_with_datacon_keeps_the_bindings_answer(self):
        env = Environment({"x": TVar("a")})
        env.free_type_vars()
        con = DataCon("K", ("a",), (), (TVar("a"),), "T")
        assert env.with_datacon(con).free_type_vars() == {"a"}

    def test_len_and_items(self):
        env = Environment({"x": INT, "y": INT})
        assert len(env) == 2
        assert dict(env.items()) == {"x": INT, "y": INT}


_NAMES = ("x", "y", "z", "w")
_TYPES = (
    INT,
    TVar("a"),
    fun(TVar("a"), TVar("b")),
    list_of(TVar("c")),
    forall(["a"], fun(TVar("a"), TVar("a"))),
    forall(["a"], fun(TVar("a"), TVar("d"))),
    UVar("u", Sort.M),
)
_binding_maps = st.dictionaries(st.sampled_from(_NAMES), st.sampled_from(_TYPES), max_size=4)
_steps = st.one_of(
    st.tuples(st.just("extended"), st.tuples(st.sampled_from(_NAMES), st.sampled_from(_TYPES))),
    st.tuples(st.just("extended_many"), _binding_maps),
    st.tuples(st.just("with_datacon"), st.sampled_from(("K", "L"))),
    st.tuples(st.just("query"), st.none()),
)


def _naive_free_type_vars(env: Environment) -> set[str]:
    result: set[str] = set()
    for _, type_ in env.items():
        result |= set(ftv(type_))
    return result


class TestFreeTypeVarsMemo:
    """The memoised union always equals the walk over every binding, however
    the environment was derived and whenever its ancestors were queried."""

    @settings(max_examples=200, deadline=None)
    @given(_binding_maps, st.lists(_steps, max_size=12))
    def test_matches_the_naive_union(self, initial, steps):
        env = Environment(initial)
        history = [env]
        for operation, argument in steps:
            if operation == "extended":
                env = env.extended(*argument)
            elif operation == "extended_many":
                env = env.extended_many(argument)
            elif operation == "with_datacon":
                env = env.with_datacon(DataCon(argument, (), (), (), "T"))
            else:  # populate the memo before the next derivation
                assert env.free_type_vars() == _naive_free_type_vars(env)
            history.append(env)
        for earlier in reversed(history):
            assert earlier.free_type_vars() == _naive_free_type_vars(earlier)

    def test_threads_sharing_one_environment_get_the_exact_answer(self):
        bindings = {f"v{index}": fun(TVar(f"t{index % 7}"), INT) for index in range(300)}
        bindings["solo"] = TVar("s")
        full = frozenset({f"t{index}" for index in range(7)} | {"s"})
        shadowed = full - {"s"}
        answers: list[frozenset[str]] = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                parent = Environment(bindings)

                def query() -> None:
                    answers.append(parent.free_type_vars())
                    answers.append(parent.extended("solo", INT).free_type_vars())

                threads = [threading.Thread(target=query) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert Counter(answers) == {full: 40, shadowed: 40}

    def test_module_check_walks_each_binding_once(self, monkeypatch):
        # The environment walks a type only to write its record.
        walked: Counter[int] = Counter()
        real_facts = env_module.type_facts

        def counting_facts(type_):
            if "_facts" not in type_.__dict__:
                walked[id(type_)] += 1
            return real_facts(type_)

        monkeypatch.setattr(env_module, "type_facts", counting_facts)
        result = ModuleEngine(figure2_env()).check_source(synthetic_module_source(4, 25))
        assert all(report.ok for report in result.reports)
        assert walked, "no checked type entered the environment"
        bound = Counter(id(type_) for _, type_ in result.env.items())
        assert sum(walked.values()) <= len(result.env)
        assert all(count <= bound[key] for key, count in walked.items())


class TestNameSupply:
    def test_fresh_unique(self):
        supply = NameSupply("t")
        names = [supply.fresh() for _ in range(100)]
        assert len(set(names)) == 100

    def test_hint(self):
        supply = NameSupply()
        assert supply.fresh("foo").startswith("foo")

    def test_hint_strips_digits(self):
        supply = NameSupply()
        name = supply.fresh("a12")
        assert name.startswith("a") and not name.startswith("a12") or name[1].isdigit()

    def test_fresh_many(self):
        supply = NameSupply()
        assert len(supply.fresh_many(5)) == 5

    def test_letters(self):
        stream = letters()
        first = [next(stream) for _ in range(28)]
        assert first[0] == "a" and first[25] == "z"
        assert first[26] == "a1"


class TestPrelude:
    def test_every_figure1_binding_present(self):
        env = figure1_env()
        for name in (
            "head", "tail", "nil", "cons", "single", "append", "length",
            "id", "inc", "choose", "poly", "auto", "auto'", "ids", "map",
            "app", "revapp", "flip", "runST", "argST",
        ):
            assert name in env, name

    def test_figure2_helpers_present(self):
        env = figure1_env()
        for name in ("f", "g", "h", "k", "lst", "r", "g23"):
            assert name in env, name

    def test_prelude_is_closed(self):
        assert figure1_env().is_closed()

    def test_signatures_match_figure1(self):
        env = figure1_env()
        assert str(env.lookup("head")) == "forall p. [p] -> p"
        assert str(env.lookup("ids")) == "[forall a. a -> a]"
        assert str(env.lookup("runST")) == "forall v. (forall s. ST s v) -> v"
        assert str(env.lookup("poly")) == "(forall a. a -> a) -> (Int, Bool)"
        assert (
            str(env.lookup("flip"))
            == "forall a b c. (a -> b -> c) -> b -> a -> c"
        )
