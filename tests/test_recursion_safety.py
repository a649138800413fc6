"""Deep types and terms must never escape as ``RecursionError``.

The core type traversals (``ftv``/``fuv``/``contains_uvar``/``subst_tvars``/
``subst_uvars``/``rename_canonical``/``respects``/``type_size``/``zonk``/
``unify``/``alpha_equal``/``render_type``) and the
structural term walks (``walk_terms``/``term_size``/``free_vars``/
``subst_term``/``subst_type_vars_in_term`` and the shrinker's
``candidates``) are iterative with explicit stacks, so depth is bounded
by memory — not by Python's recursion limit.  These tests drive each one
at depths far beyond ``sys.getrecursionlimit()``; a regression to
recursive form fails them immediately.  Term equality, hashing, ``repr``
and ``pretty_term`` are iterative too.  The parser keeps its nesting on
an explicit stack: source text nested 10 000 deep parses at every text
entry point.  ``tests/test_term_depth.py`` takes deep terms through
inference and every other entry point.
Budgets still apply: a depth *budget* must trip as a
:class:`BudgetExceededError`, never as a raw ``RecursionError``.
"""

import json
import sys
from itertools import islice

import pytest

from repro.__main__ import main
from repro.baselines.registry import SYSTEMS
from repro.conformance.shrink import candidates
from repro.core.terms import (
    Ann,
    App,
    Lit,
    Var,
    free_vars,
    subst_term,
    subst_type_vars_in_term,
    term_size,
    walk_terms,
)
from repro.core.errors import BudgetExceededError, UnificationError
from repro.core.sorts import Sort
from repro.core.types import (
    INT,
    Forall,
    Pred,
    TCon,
    TVar,
    UVar,
    alpha_equal,
    contains_uvar,
    ftv,
    fun,
    fuv,
    is_fully_monomorphic,
    is_rank1,
    list_of,
    render_type,
    rename_canonical,
    respects,
    subst_tvars,
    subst_uvars,
    tuple_of,
    type_size,
)
from repro.core.unify import Unifier
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.workloads import (
    application_chain,
    deep_chain_term,
    lambda_tower,
    let_chain,
)
from repro.modules import parse_module
from repro.robustness.budget import Budget
from repro.robustness.server import ServeConfig, start_server_in_thread
from repro.robustness.serveclient import ServeClient
from repro.syntax import parse_term, parse_type

DEPTH = 50_000
assert DEPTH > sys.getrecursionlimit()


def deep_arrow(depth: int, leaf=INT):
    type_ = leaf
    for _ in range(depth):
        type_ = fun(INT, type_)
    return type_


def deep_list(depth: int, leaf):
    """``[[…leaf…]]``: ``depth`` list constructors."""
    type_ = leaf
    for _ in range(depth):
        type_ = list_of(type_)
    return type_


def deep_forall_list(depth: int, leaf):
    """``depth`` layers alternating ``∀a. a -> _`` and ``[_]``, a list at
    the root; each layer adds three nodes (``∀``, ``->``, ``a``) or one."""
    type_ = leaf
    for index in range(depth):
        if index % 2:
            type_ = list_of(type_)
        else:
            type_ = Forall(("a",), fun(TVar("a"), type_))
    return type_


def deep_tuple(depth: int):
    """``((…(Int, Int)…), Int)``: ``depth`` pair constructors."""
    type_ = INT
    for _ in range(depth):
        type_ = tuple_of(type_, INT)
    return type_


def deep_application(depth: int):
    """``Maybe (Maybe (… Int))``: ``depth`` constructor applications."""
    type_ = INT
    for _ in range(depth):
        type_ = TCon("Maybe", (type_,))
    return type_


def deep_qualified(depth: int):
    """``forall a. Eq [[…a…]] => [[…a…]]``, both lists ``depth`` deep."""
    a = TVar("a")
    return Forall(("a",), deep_list(depth, a), (Pred("Eq", (deep_list(depth, a),)),))


SHAPES = [deep_list, deep_forall_list]


def expected_size(shape, depth: int) -> int:
    return 1 + (depth if shape is deep_list else 3 * ((depth + 1) // 2) + depth // 2)


class TestDeepTraversals:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_subst_tvars_deep(self, shape):
        type_ = shape(DEPTH, TVar("x"))
        image = subst_tvars({"x": TCon("Bool")}, type_)
        assert image == shape(DEPTH, TCon("Bool"))
        assert subst_tvars({"zz": INT}, type_) is type_

    @pytest.mark.parametrize("shape", SHAPES)
    def test_subst_uvars_deep(self, shape):
        variable = UVar("u0", Sort.M)
        image = subst_uvars({variable: INT}, shape(DEPTH, variable))
        assert image == shape(DEPTH, INT)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rename_canonical_deep(self, shape):
        renamed = rename_canonical(shape(DEPTH, TVar("x")))
        assert type_size(renamed) == expected_size(shape, DEPTH)
        # Walk the spine by hand: ``ftv``'s per-scope key grows with the
        # number of distinct enclosing binders.
        names, node = [], renamed
        while not isinstance(node, TVar):
            if isinstance(node, Forall):
                names.extend(node.binders)
                node = node.body
            node = node.args[-1]
        assert node == TVar("x")
        assert len(set(names)) == len(names) == (0 if shape is deep_list else DEPTH // 2)
        assert names[:3] == ([] if shape is deep_list else ["a", "b", "c"])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_respects_deep(self, shape):
        monomorphic = shape is deep_list
        assert is_fully_monomorphic(shape(DEPTH, INT)) is monomorphic
        assert is_rank1(shape(DEPTH, INT)) is monomorphic
        assert not respects(shape(DEPTH, UVar("u0", Sort.T)), Sort.M)
        assert respects(shape(DEPTH, UVar("u0", Sort.M)), Sort.M) is monomorphic

    @pytest.mark.parametrize("shape", SHAPES)
    def test_type_size_deep(self, shape):
        assert type_size(shape(DEPTH, INT)) == expected_size(shape, DEPTH)

    def test_ftv_fuv_contains(self):
        variable = UVar("u0", Sort.M)
        type_ = deep_arrow(DEPTH, leaf=variable)
        assert list(fuv(type_)) == [variable]
        assert ftv(type_) == set()
        assert contains_uvar(type_, variable)
        assert not contains_uvar(type_, UVar("other", Sort.M))

    def test_subst_rebuilds_deep_spine(self):
        variable = UVar("u0", Sort.M)
        type_ = deep_arrow(DEPTH, leaf=variable)
        image = subst_uvars({variable: INT}, type_)
        assert not contains_uvar(image, variable)
        # Identity-sharing: substituting nothing returns the same object.
        assert subst_uvars({UVar("other", Sort.M): INT}, type_) is type_

    def test_alpha_equal_deep(self):
        left = deep_arrow(DEPTH)
        right = deep_arrow(DEPTH)
        assert alpha_equal(left, right)
        assert not alpha_equal(left, deep_arrow(DEPTH, leaf=TCon("Bool")))

    @pytest.mark.parametrize(
        "build, start, length",
        [
            (lambda: deep_arrow(DEPTH), "Int -> Int", 7 * DEPTH + 3),
            (lambda: deep_list(DEPTH, INT), "[[[", 2 * DEPTH + 3),
            (lambda: deep_tuple(DEPTH), "(((", 7 * DEPTH + 3),
            (lambda: deep_application(DEPTH), "Maybe (Maybe (", 8 * DEPTH + 1),
            (lambda: deep_forall_list(DEPTH, INT), "[forall a. a -> [forall a.", 17 * DEPTH // 2 + 3),
            (lambda: deep_qualified(DEPTH), "forall a. Eq [[[", 4 * DEPTH + 19),
        ],
        ids=["arrow", "list", "tuple", "application", "forall-under-list", "qualified"],
    )
    def test_render_deep(self, build, start, length):
        rendered = render_type(build())
        assert rendered.startswith(start)
        assert len(rendered) == length

    def test_hash_and_equality_deep(self):
        left = deep_arrow(DEPTH)
        right = deep_arrow(DEPTH)
        assert hash(left) == hash(right)
        assert left == right

    def test_systemf_check_deep_binder_type(self):
        from repro.evalsuite.figure2 import figure2_env
        from repro.systemf import FLam, FVar, typecheck

        binder = deep_list(DEPTH, INT)
        checked = typecheck(FLam("x", binder, FVar("x")), figure2_env())
        assert checked.args[0] is binder and checked.args[1] is binder

    def test_systemf_check_names_a_leak_under_a_deep_type(self):
        from repro.core.errors import SystemFTypeError
        from repro.evalsuite.figure2 import figure2_env
        from repro.systemf import FLam, FVar, typecheck

        binder = deep_list(DEPTH, UVar("u7", Sort.M))
        with pytest.raises(SystemFTypeError, match=r"`u7\^m` leaked"):
            typecheck(FLam("x", binder, FVar("x")), figure2_env())


class TestDeepUnifier:
    def test_zonk_through_deep_binding(self):
        unifier = Unifier()
        variable = UVar("u0", Sort.M)
        unifier.bind(variable, deep_arrow(DEPTH))
        assert unifier.zonk(variable) == deep_arrow(DEPTH)

    def test_zonk_long_var_chain(self):
        unifier = Unifier()
        chain = [UVar(f"u{index}", Sort.M) for index in range(DEPTH)]
        for left, right in zip(chain, chain[1:]):
            unifier.assign(left, right)
        unifier.assign(chain[-1], INT)
        assert unifier.zonk(chain[0]) == INT

    def test_unify_deep_spines(self):
        unifier = Unifier()
        variable = UVar("u0", Sort.M)
        unifier.unify(deep_arrow(DEPTH, leaf=variable), deep_arrow(DEPTH))
        assert unifier.zonk(variable) == INT

    def test_unify_deep_mismatch_is_type_error(self):
        unifier = Unifier()
        with pytest.raises(UnificationError):
            unifier.unify(deep_arrow(DEPTH), deep_arrow(DEPTH, leaf=TCon("Bool")))

    def test_occurs_check_deep(self):
        from repro.core.errors import OccursCheckError

        unifier = Unifier()
        variable = UVar("u0", Sort.M)
        with pytest.raises(OccursCheckError):
            unifier.bind(variable, deep_arrow(DEPTH, leaf=variable))

    def test_depth_budget_still_trips_as_budget_error(self):
        # The worklist unifier keeps the old recursion-depth accounting,
        # so ``max_unify_depth`` semantics are unchanged — and the error
        # class stays BudgetExceededError even on hyper-deep input.
        budget = Budget(max_unify_depth=64).start()
        unifier = Unifier(budget=budget)
        with pytest.raises(BudgetExceededError):
            unifier.unify(deep_arrow(DEPTH), deep_arrow(DEPTH))


TERM_DEPTH = 10_000
assert TERM_DEPTH > sys.getrecursionlimit()

#: shape -> (node count, free variables) at ``TERM_DEPTH``
TERM_SHAPES = {
    application_chain: (2 * TERM_DEPTH + 1, {"inc"}),
    let_chain: (4 * TERM_DEPTH + 1, {"inc"}),
    lambda_tower: (2 * TERM_DEPTH + 2, set()),
}


class TestDeepTerms:
    @pytest.mark.parametrize("shape", list(TERM_SHAPES))
    def test_walk_size_and_free_vars(self, shape):
        term = shape(TERM_DEPTH)
        size, free = TERM_SHAPES[shape]
        assert term_size(term) == size
        assert next(walk_terms(term)) is term
        assert free_vars(term) == free

    @pytest.mark.parametrize("shape", list(TERM_SHAPES))
    def test_subst_term(self, shape):
        term = shape(TERM_DEPTH)
        assert subst_term(term, "absent", Lit(0)) is term
        renamed = subst_term(term, "inc", Var("dec"))
        names = [node.name for node in walk_terms(renamed) if isinstance(node, Var)]
        assert "inc" not in names
        assert names.count("dec") == (0 if shape is lambda_tower else TERM_DEPTH)

    @pytest.mark.parametrize("shape", list(TERM_SHAPES))
    def test_subst_type_vars_in_term(self, shape):
        term = shape(TERM_DEPTH)
        assert subst_type_vars_in_term({"a": INT}, term) is term
        annotated = subst_type_vars_in_term({"a": INT}, Ann(term, TVar("a")))
        assert annotated.annotation == INT and annotated.expr is term

    @pytest.mark.parametrize("shape", list(TERM_SHAPES))
    def test_equality_hash_repr_and_printing(self, shape):
        term, twin = shape(TERM_DEPTH), shape(TERM_DEPTH)
        assert term == twin and term is not twin
        assert hash(term) == hash(twin)
        assert term != shape(TERM_DEPTH - 1)
        assert {term: 1}[twin] == 1
        assert repr(term) == repr(twin) and repr(term).count("(") > TERM_DEPTH
        assert parse_term(str(term)) == term

    def test_literal_equality_observes_the_value_type(self):
        # ``True == 1`` in Python, but the two literals have different types.
        def chain(leaf):
            for _ in range(TERM_DEPTH):
                leaf = App(Var("inc"), (leaf,))
            return leaf

        assert chain(Lit(1)) == chain(Lit(1))
        assert chain(Lit(True)) != chain(Lit(1))
        assert len({chain(Lit(True)), chain(Lit(1)), chain(Lit(1))}) == 2

    @pytest.mark.parametrize("shape", list(TERM_SHAPES))
    def test_shrink_candidates(self, shape):
        term = shape(TERM_DEPTH)
        size = term_size(term)
        own = {id(node) for node in walk_terms(term)}
        offered = candidates(term)
        assert id(next(offered)) in own  # the smallest hoisted subterm
        # the first rewrite comes after the distinct hoisted subterms
        rewrite = next(c for c in islice(offered, 2 * TERM_DEPTH) if id(c) not in own)
        assert term_size(rewrite) < size


class TestDeepBackends:
    """``λf. f 1 … 1`` at depth 3000 through every registered system.

    Every system must accept within the same deadline.  RankN and Quick
    Look skolemise before they collect escape candidates, so a spine of
    ρ-typed arguments costs them no environment walk per argument.
    """

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_deep_chain(self, name):
        outcome = SYSTEMS[name].run(
            deep_chain_term(3000), figure2_env(), budget=Budget(wall_clock=60.0)
        )
        summary = (outcome.status, outcome.error, (outcome.detail or "")[:200])
        assert outcome.error != "RecursionError" and not outcome.crashed, summary
        assert outcome.accepted, summary


# ----------------------------------------------------------------------
# Source text: the lexer and the explicit-stack parser
# ----------------------------------------------------------------------

SOURCE_DEPTH = 10_000


def nested_parens(depth: int) -> str:
    return "inc (" * depth + "0" + ")" * depth


def nested_list_types(depth: int, leaf: str = "a") -> str:
    return "[" * depth + leaf + "]" * depth


def arrow_spine(depth: int, leaf: str = "a") -> str:
    return f"{leaf} -> " * depth + leaf


def nested_foralls(depth: int) -> str:
    return "forall a. a -> " * depth + "Int"


def cons_spine(depth: int) -> str:
    return "1 : " * depth + "nil"


def lambda_spine(depth: int) -> str:
    return "\\x -> " * depth + "x"


def let_spine(depth: int) -> str:
    return "let x = 1 in " * depth + "x"


#: The constructs that overflowed the recursive-descent parser at 200 to
#: 1000 levels, with the node count of the parsed tree at depth n.
DEEP_TERM_SOURCES = {
    "parentheses": (nested_parens, lambda n: 2 * n + 1),
    "cons": (cons_spine, lambda n: 3 * n + 1),
    "lambda": (lambda_spine, lambda n: n + 1),
    "let": (let_spine, lambda n: 2 * n + 1),
}
DEEP_TYPE_SOURCES = {
    "list-type": (nested_list_types, lambda n: n + 1),
    "arrow": (arrow_spine, lambda n: 2 * n + 1),
    # Parsed in linear time since ``forall`` stopped re-walking its body.
    "nested-forall": (nested_foralls, lambda n: 3 * n + 1),
}


class TestDeepSource:
    """Parsing is bounded by memory at every text entry point; past the
    parser an item may fail, but never in the parse phase."""

    @pytest.mark.parametrize("name", list(DEEP_TERM_SOURCES))
    def test_parse_term(self, name):
        build, size = DEEP_TERM_SOURCES[name]
        term = parse_term(build(SOURCE_DEPTH))
        assert term_size(term) == size(SOURCE_DEPTH)

    @pytest.mark.parametrize("name", list(DEEP_TYPE_SOURCES))
    def test_parse_type(self, name):
        build, size = DEEP_TYPE_SOURCES[name]
        assert type_size(parse_type(build(SOURCE_DEPTH))) == size(SOURCE_DEPTH)

    def test_parse_module(self):
        lines = []
        for index, (build, _) in enumerate(DEEP_TYPE_SOURCES.values()):
            lines += [f"t{index} :: {build(SOURCE_DEPTH)}", f"t{index} = undefined"]
        lines += [f"{name} =\n  {build(SOURCE_DEPTH)}" for name, (build, _) in
                  zip(("p", "c", "l", "e"), DEEP_TERM_SOURCES.values())]
        module = parse_module("\n".join(lines) + "\n")
        type_names = [f"t{index}" for index in range(len(DEEP_TYPE_SOURCES))]
        assert module.names == type_names + ["p", "c", "l", "e"]
        sizes = [size(SOURCE_DEPTH) for _, size in DEEP_TERM_SOURCES.values()]
        assert [term_size(module.binding(name).term) for name in "pcle"] == sizes
        signatures = [module.binding(name).signature for name in type_names]
        assert [type_size(type_) for type_ in signatures] == [
            size(SOURCE_DEPTH) for _, size in DEEP_TYPE_SOURCES.values()
        ]
        first = 2 * len(type_names) + 1
        assert [module.binding(name).line for name in "pcle"] == [
            first, first + 2, first + 4, first + 6
        ]

    def test_batch(self, tmp_path, capsys):
        typed = [
            "(" * SOURCE_DEPTH + "head ids" + ")" * SOURCE_DEPTH,
            f"(nil :: {nested_list_types(SOURCE_DEPTH, 'Int')})",
            f"\\(f :: {arrow_spine(SOURCE_DEPTH, 'Int')}) -> f",
        ]
        terms = [build(SOURCE_DEPTH) for build, _ in DEEP_TERM_SOURCES.values()]
        path = tmp_path / "deep.gi"
        path.write_text("\n".join(typed + terms) + "\n")
        main(["batch", str(path), "--json"])
        items = json.loads(capsys.readouterr().out)["items"]
        assert len(items) == len(typed) + len(terms)
        assert [item["ok"] for item in items[: len(typed)]] == [True] * len(typed)
        for item in items[len(typed):]:
            diagnostic = item["diagnostic"]
            if diagnostic is not None:
                assert diagnostic["phase"] != "parse", diagnostic["message"]
                assert diagnostic["error_class"] != "ParseError"

    def test_serve_check_signature(self, tmp_path):
        # A `check` request's signature is parsed outside the parse
        # containment of its expression.
        arrow = arrow_spine(SOURCE_DEPTH, "Int")
        requests = [
            ("nil", nested_list_types(SOURCE_DEPTH, "Int")),
            ("\\f -> f", f"({arrow}) -> {arrow}"),
            ("(" * SOURCE_DEPTH + "single id" + ")" * SOURCE_DEPTH, "[Int -> Int]"),
        ]
        config = ServeConfig(socket_path=str(tmp_path / "gi.sock"), jobs=1)
        with start_server_in_thread(config):
            with ServeClient(socket_path=config.socket_path) as client:
                for expr, signature in requests:
                    reply = client.request("check", expr=expr, signature=signature)
                    assert reply["ok"], reply.get("error")
