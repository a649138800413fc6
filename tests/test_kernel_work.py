"""The backend kernel walks a whole type only where a rule reads all of it.

A rule that asks only whether a type is a ``∀``, a variable or an arrow
(the application rules, the subsumption and checking rules of RankN and
Quick Look, HMF's argument order, Quick Look's spine splits) resolves
the type's variable chain with ``Kernel._head`` instead of zonking it.
``Kernel.zonk`` answers at once on an empty substitution and otherwise
walks the node.
A frame of ``Kernel.unify`` resolves only the heads of its two sides, so
unifying two spines costs work linear in their length.

The walks are counted, not timed: a *walk* is a zonk, with a non-empty
substitution, of a type whose head is a constructor with arguments or a
``∀``.  The walks on the Figure-2 sweep of the six baselines are pinned
exactly, and the nodes those walks return grow linearly while unifying
two arrow spines.  On ``lambda_tower`` RankN and Quick Look walk
nothing; HM, FreezeML and HMF still zonk each bound image in full, so
they stay quadratic there, but walk no more than before.
"""

import pytest

from repro.baselines.kernel import Kernel
from repro.baselines.quicklook import QuickLookInferencer
from repro.baselines.registry import SYSTEMS
from repro.core.errors import SkolemEscapeError
from repro.core.sorts import Sort
from repro.core.types import INT, LIST_CON, Forall, TCon, Type, fun
from repro.evalsuite.figure2 import MEASURED_SYSTEMS, figure2_env, measured_matrix
from repro.evalsuite.workloads import lambda_tower
from repro.syntax import parse_type

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
    """Record the size of every node a walking ``Kernel.zonk`` returns."""
    sizes: list[int] = []
    zonk = Kernel.zonk

    def counting(self, type_):
        zonked = zonk(self, type_)
        head = self._head(type_)
        if self.subst and (head.__class__ is Forall or head.__class__ is TCon and head.args):
            sizes.append(size(zonked))
        return zonked

    monkeypatch.setattr(Kernel, "zonk", counting)
    return sizes


def test_figure2_sweep_walks_are_pinned(monkeypatch):
    # 3 440 walks when every zonk walked, and 1 100 with a zonk memo
    # dropped on every write (memo hits uncounted).  With no memo every
    # walking zonk counts; the rules that read only heads walk nothing.
    sizes = walked(monkeypatch)
    measured_matrix(systems=MEASURED_SYSTEMS[1:])
    assert len(sizes) == 1177


def spine_walk(monkeypatch, n: int) -> tuple[int, int]:
    """Unify ``α1 → … → αn → Int`` with ``[Int] → … → [Int] → Int``:
    the walks and the nodes they return."""
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
    # (`[Int]`, two nodes; the first bind finds an empty substitution)
    # and each variable's final zonk are walked.
    walks = [spine_walk(monkeypatch, n) for n in (500, 1000)]
    assert walks == [(999, 1998), (1999, 3998)]


#: The nodes ``lambda_tower(n)`` walked when every application rule
#: zonked the rest of the function type (the zonk memo in place).
TOWER_BEFORE = {
    "HM": {200: 79_998, 400: 319_998},
    "FreezeML": {200: 79_998, 400: 319_998},
    "HMF": {200: 161_797, 400: 643_597},
}


@pytest.mark.parametrize("name", ["RankN", "QuickLook", "HM", "FreezeML", "HMF"])
def test_lambda_tower_walks(monkeypatch, name):
    sizes = walked(monkeypatch)
    nodes = {}
    for n in (200, 400):
        sizes.clear()
        assert SYSTEMS[name].run(lambda_tower(n), ENV).type_ == INT
        nodes[n] = sum(sizes)
    if name in TOWER_BEFORE:
        # Each bind still zonks the rest of the tower as its image.
        assert all(nodes[n] <= TOWER_BEFORE[name][n] for n in nodes), nodes
    else:
        assert nodes == {200: 0, 400: 0}


class TestWrites:
    """A zonk sees every write into the substitution."""

    def test_empty_substitution_walks_nothing(self, monkeypatch):
        kernel = Kernel(ENV)
        sizes = walked(monkeypatch)
        type_ = fun(kernel.fresh(), INT)
        assert kernel.zonk(type_) is type_
        assert sizes == []

    def test_a_solved_node_is_returned_by_identity(self):
        kernel = Kernel(ENV)
        kernel.subst[kernel.fresh()] = INT
        type_ = fun(kernel.fresh(), INT)
        assert kernel.zonk(type_) is type_

    def test_a_zonk_sees_each_write(self):
        kernel = Kernel(ENV)
        alpha, beta = kernel.fresh(), kernel.fresh()
        kernel.subst[beta] = INT
        type_ = fun(alpha, beta)
        assert kernel.zonk(type_) == fun(alpha, INT)
        kernel.subst[alpha] = INT
        assert kernel.zonk(type_) == fun(INT, INT)

    def test_a_zonk_sees_a_bind_in_unify(self):
        kernel = Kernel(ENV)
        alpha, beta = kernel.fresh(), kernel.fresh()
        kernel.subst[beta] = INT
        type_ = fun(alpha, beta)
        assert kernel.zonk(type_) == fun(alpha, INT)
        kernel.unify(alpha, TCon(LIST_CON, (beta,)))
        assert kernel.zonk(type_) == fun(TCon(LIST_CON, (INT,)), INT)

    def test_head_resolves_only_the_variable_chain(self):
        kernel = Kernel(ENV)
        alpha, beta = kernel.fresh(), kernel.fresh()
        spine = fun(beta, INT)
        kernel.subst[alpha] = spine
        kernel.subst[beta] = INT
        assert kernel._head(alpha) is spine
        assert kernel.zonk(alpha) == fun(INT, INT)


class TestQuickLookCommits:
    """A zonk sees Quick Look's commits."""

    def setup_method(self):
        self.kernel = QuickLookInferencer(ENV)
        # A write, so that the zonks below walk.
        self.kernel.subst[self.kernel.fresh()] = INT

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
    """``∀``/``∀`` unification and ``subsume`` share one escape rule: the
    first leaked skolem in binder order, through the first free variable
    of the outer types that it leaks into."""

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

    def test_both_paths_name_the_first_binder(self):
        # One variable leaks both skolems.  Ordering the skolems by name
        # would report `a_sk2` through `subsume`, while ∀/∀ unification
        # reported `b`'s skolem; binder order names `b` on both paths.
        expected = parse_type("forall b a. (a, b) -> Int")

        def leaked(check) -> tuple[str, str]:
            kernel = Kernel(ENV)
            kappa = kernel.fresh()
            with pytest.raises(SkolemEscapeError) as caught:
                check(kernel, Forall(("b", "a"), fun(kappa, INT)))
            return caught.value.skolem, str(caught.value.type_)

        unified = leaked(lambda kernel, offered: kernel.unify(expected, offered))
        subsumed = leaked(lambda kernel, offered: kernel.subsume(offered, expected))
        assert unified == subsumed == ("b_sk1", "(a_sk2, b_sk1)")

    def test_escape_through_a_variable_bound_before(self):
        # `α := [ω]` before the ∀/∀ unification binds `ω := x_sk2`.  The
        # report names the free variable `ω` of the ∀, not `α`, the
        # earliest-bound variable whose image now mentions the skolem.
        kernel = Kernel(ENV)
        alpha, omega = kernel.fresh(), kernel.fresh()
        kernel.unify(alpha, TCon(LIST_CON, (omega,)))
        with pytest.raises(SkolemEscapeError) as caught:
            kernel.unify(parse_type("forall x. x -> Int"), Forall(("y",), fun(omega, INT)))
        assert (caught.value.skolem, str(caught.value.type_)) == ("x_sk2", "x_sk2")
