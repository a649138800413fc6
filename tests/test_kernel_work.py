"""The backend kernel zonks each type once per substitution state.

Every write into ``Kernel.subst`` goes through ``Kernel._assign``, which
only adds a variable and drops the zonk memo.  Between two writes,
``Kernel.zonk`` answers a composite node it has zonked before from the
memo, and with an empty substitution it answers at once; otherwise
``Kernel._zonk_walk`` rebuilds the node.  A frame of ``Kernel.unify``
resolves only the heads of its two sides, so unifying two spines costs
work linear in their length.

The walks are counted, not timed: the number of composite zonk walks on
the Figure-2 sweep of the six baselines is pinned exactly, and the nodes
those walks rebuild while unifying two arrow spines grow linearly.
"""

import pytest

from repro.baselines.kernel import Kernel
from repro.baselines.quicklook import QuickLookInferencer
from repro.core.errors import SkolemEscapeError
from repro.core.sorts import Sort
from repro.core.types import INT, LIST_CON, Forall, TCon, Type, fun
from repro.evalsuite.figure2 import MEASURED_SYSTEMS, figure2_env, measured_matrix
from repro.syntax import parse_term, parse_type

ENV = figure2_env()
POLY = parse_type("forall a. a -> a")


def size(type_: Type) -> int:
    """The number of nodes of ``type_`` as a tree."""
    count, stack = 0, [type_]
    while stack:
        node = stack.pop()
        count += 1
        if node.__class__ is TCon:
            stack.extend(node.args)
        elif node.__class__ is Forall:
            stack.append(node.body)
    return count


def walked(monkeypatch) -> list[int]:
    """Record the size of every composite node ``_zonk_walk`` returns."""
    sizes: list[int] = []
    walk = Kernel._zonk_walk

    def counting(self, type_):
        zonked = walk(self, type_)
        sizes.append(size(zonked))
        return zonked

    monkeypatch.setattr(Kernel, "_zonk_walk", counting)
    return sizes


def test_figure2_sweep_walks_are_pinned(monkeypatch):
    # 3 440 composite walks before the memo, the empty-substitution
    # answer and head-only unify frames.
    sizes = walked(monkeypatch)
    measured_matrix(systems=MEASURED_SYSTEMS[1:])
    assert len(sizes) == 1100


def spine_walk(monkeypatch, n: int) -> tuple[int, int]:
    """Unify ``α1 → … → αn → Int`` with ``[Int] → … → [Int] → Int``:
    the walks and the nodes they rebuild."""
    kernel = Kernel(ENV)
    variables = [kernel.fresh() for _ in range(n)]
    list_int = TCon(LIST_CON, (INT,))
    sizes = walked(monkeypatch)
    kernel.unify(fun(*variables, INT), fun(*[list_int] * n, INT))
    assert all(kernel.zonk(variable) == list_int for variable in variables)
    return len(sizes), sum(sizes)


def test_unifying_two_spines_walks_linearly(monkeypatch):
    # Zonking both sides of every frame in full rebuilt the rest of each
    # spine at every step: about n² nodes.  Now only each bound image
    # (`[Int]`, two nodes) is walked.
    assert [spine_walk(monkeypatch, n) for n in (500, 1000)] == [(500, 1000), (1000, 2000)]


class TestMemo:
    def test_empty_substitution_walks_nothing(self, monkeypatch):
        kernel = Kernel(ENV)
        sizes = walked(monkeypatch)
        type_ = fun(kernel.fresh(), INT)
        assert kernel.zonk(type_) is type_
        assert sizes == []

    def test_a_node_is_walked_once_between_writes(self, monkeypatch):
        kernel = Kernel(ENV)
        alpha, beta = kernel.fresh(), kernel.fresh()
        kernel._assign(beta, INT)
        sizes = walked(monkeypatch)
        type_ = fun(alpha, beta)
        first = kernel.zonk(type_)
        assert kernel.zonk(type_) is first
        assert first == fun(alpha, INT)
        assert len(sizes) == 1

    def test_a_zonk_after_assign_sees_the_write(self):
        kernel = Kernel(ENV)
        alpha, beta = kernel.fresh(), kernel.fresh()
        kernel._assign(beta, INT)
        type_ = fun(alpha, beta)
        assert kernel.zonk(type_) == fun(alpha, INT)
        kernel._assign(alpha, INT)
        assert kernel.zonk(type_) == fun(INT, INT)

    def test_a_bind_in_unify_drops_the_memo(self):
        kernel = Kernel(ENV)
        alpha, beta = kernel.fresh(), kernel.fresh()
        kernel._assign(beta, INT)
        type_ = fun(alpha, beta)
        assert kernel.zonk(type_) == fun(alpha, INT)
        kernel.unify(alpha, TCon(LIST_CON, (beta,)))
        assert kernel.zonk(type_) == fun(TCon(LIST_CON, (INT,)), INT)

    def test_a_new_run_starts_a_new_memo(self):
        kernel = Kernel(ENV)
        kernel._assign(kernel.fresh(), INT)
        type_ = fun(kernel.fresh(), INT)
        kernel.zonk(type_)
        assert any(node is type_ for node, _ in kernel._zonked.values())
        kernel.infer(parse_term("inc 1"))
        assert not any(node is type_ for node, _ in kernel._zonked.values())


class TestQuickLookCommits:
    """Quick Look's commits write through ``_assign`` too."""

    def setup_method(self):
        self.kernel = QuickLookInferencer(ENV)
        # A write, so that zonks below use the memo.
        self.kernel._assign(self.kernel.fresh(), INT)

    def test_commit_quicks(self):
        kappa = self.kernel.fresh(Sort.U)
        spine = TCon(LIST_CON, (kappa,))
        assert self.kernel.zonk(spine) is spine
        self.kernel._commit_quicks([(kappa, POLY)], [spine], {kappa})
        assert self.kernel.zonk(spine) == TCon(LIST_CON, (POLY,))

    def test_join_branch(self):
        result = self.kernel.fresh()
        whole = fun(result, INT)
        assert self.kernel.zonk(whole) is whole
        rhs = TCon(LIST_CON, (POLY,))
        self.kernel._join_branch(result, rhs)
        assert self.kernel.zonk(whole) == fun(rhs, INT)

    def test_spine_result(self):
        expected = self.kernel.fresh(Sort.U)
        whole = fun(expected, INT)
        assert self.kernel.zonk(whole) is whole
        self.kernel._subsume_rho(POLY, expected, spine_result=True)
        assert self.kernel.zonk(whole) == fun(POLY, INT)


class TestForallEscape:
    """``_check_forall_escape`` makes one pass over the substitution and
    reports the first leaking skolem in binder order, through the first
    variable in substitution order that it leaks into."""

    def escape(self, left: str, right) -> tuple[str, str]:
        kernel = Kernel(ENV)
        with pytest.raises(SkolemEscapeError) as caught:
            kernel.unify(parse_type(left), right(kernel.fresh(), kernel.fresh()))
        return caught.value.skolem, str(caught.value.type_)

    def test_two_skolems_leak(self):
        # The body binds `k0 := b_sk3` first, then `k1 := a_sk2`: the
        # report names `a`'s skolem, the first binder.
        reported = self.escape(
            "forall a b. b -> a -> Int", lambda k0, k1: Forall(("a", "b"), fun(k0, k1, INT))
        )
        assert reported == ("a_sk2", "a_sk2")

    def test_first_variable_in_substitution_order(self):
        # `k0 := [a_sk2]` and `k1 := a_sk2` both leak the skolem.
        reported = self.escape(
            "forall a. [a] -> a -> Int", lambda k0, k1: Forall(("a",), fun(k0, k1, INT))
        )
        assert reported == ("a_sk2", "[a_sk2]")
