"""Property tests for the union-find substitution core and the wake-up
scheduler, over the conformance fuzzer's strategies.

Three invariants of the rework:

* ``zonk`` is idempotent after any sequence of binds — a zonked type is
  a fixpoint (no half-resolved chains can leak out);
* path compression is an *implementation* detail: forcing extra ``find``
  traffic between queries never changes any observable zonk result;
* the solved-set fast path is one too: ``zonk_head`` and ``zonk`` agree
  with a find followed by a lookup in the name-keyed tables, and return
  an unsolved variable itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.strategies import monotypes
from repro.core.errors import GIError
from repro.core.sorts import Sort
from repro.core.types import BOOL, INT, TCon, Type, UVar, fun, fuv, list_of
from repro.core.unify import Unifier


@st.composite
def unification_problems(draw):
    """A list of (variable, monotype) bind attempts over a shared pool."""
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(("u1", "u2", "u3")), monotypes()),
            min_size=1,
            max_size=6,
        )
    )
    return [(UVar(name, Sort.M), type_) for name, type_ in pairs]


def _apply(unifier, problem):
    for variable, type_ in problem:
        try:
            unifier.unify(variable, type_)
        except GIError:
            pass  # occurs/clash failures are fine — state stays usable


class TestZonkIdempotence:
    @given(unification_problems(), monotypes())
    def test_zonk_after_bind_is_idempotent(self, problem, probe):
        unifier = Unifier()
        _apply(unifier, problem)
        once = unifier.zonk(probe)
        assert unifier.zonk(once) == once

    @given(unification_problems())
    def test_zonked_variables_are_fixpoints(self, problem):
        unifier = Unifier()
        _apply(unifier, problem)
        for variable, _ in problem:
            image = unifier.zonk(variable)
            assert unifier.zonk(image) == image


class TestCompressionInvariance:
    @given(unification_problems(), st.integers(min_value=0, max_value=3))
    def test_extra_find_traffic_changes_nothing(self, problem, rounds):
        reference = Unifier()
        compressed = Unifier()
        _apply(reference, problem)
        _apply(compressed, problem)
        variables = [variable for variable, _ in problem]
        # Hammer the compressed store with redundant queries (each one
        # may shorten parent chains) before comparing observables.
        for _ in range(rounds):
            for variable in variables:
                compressed.zonk(variable)
                compressed.zonk_head(variable)
        for variable in variables:
            assert compressed.zonk(variable) == reference.zonk(variable)

    @given(unification_problems())
    def test_chain_order_does_not_change_results(self, problem):
        # Zonking in reverse order exercises different compression paths.
        forward = Unifier()
        backward = Unifier()
        _apply(forward, problem)
        _apply(backward, problem)
        variables = [variable for variable, _ in problem]
        forward_images = [forward.zonk(v) for v in variables]
        backward_images = [backward.zonk(v) for v in reversed(variables)]
        assert forward_images == list(reversed(backward_images))


POOL = [
    UVar("p0", Sort.U, 0),
    UVar("p1", Sort.M, 0),
    UVar("p2", Sort.T, 1),
    UVar("p3", Sort.U, 2),
    UVar("p4", Sort.M, 1),
]

pool_types = st.recursive(
    st.one_of(st.sampled_from(POOL), st.just(INT), st.just(BOOL)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda pair: fun(*pair)),
        inner.map(list_of),
    ),
    max_leaves=5,
)
store_steps = st.lists(
    st.tuples(
        st.sampled_from(("bind", "assign", "union")),
        st.sampled_from(POOL),
        pool_types,
        st.sampled_from(POOL),
    ),
    max_size=10,
)


def _step(unifier, kind, target, image, other):
    """One store write on an unsolved representative, as the solver
    makes them; an unchecked write that would make a cycle is skipped."""
    if unifier._find(target).name in unifier._binding:
        return
    if kind == "bind":
        try:
            unifier.bind(target, image)
        except GIError:
            pass
        return
    if kind == "union":
        image = other
    if unifier._find(target) not in fuv(unifier.zonk(image)):
        unifier.assign(target, image)


def find_then_lookup(unifier, variable: UVar) -> Type:
    """The head of a variable the long way: find, then a name lookup."""
    root = unifier._find(variable)
    bound = unifier._binding.get(root.name)
    return root if bound is None else bound


def slow_zonk(unifier, type_: Type) -> Type:
    if isinstance(type_, UVar):
        head = find_then_lookup(unifier, type_)
        return head if isinstance(head, UVar) else slow_zonk(unifier, head)
    if isinstance(type_, TCon):
        return TCon(type_.name, tuple(slow_zonk(unifier, a) for a in type_.args))
    return type_


class TestSolvedSetFastPath:
    @settings(max_examples=300, deadline=None)
    @given(store_steps, st.lists(pool_types, min_size=1, max_size=3))
    def test_fast_path_agrees_with_find_then_lookup(self, steps, probes):
        unifier = Unifier()
        for kind, target, image, other in steps:
            _step(unifier, kind, target, image, other)
            # The pool and every variable the writes created (promoted
            # and demoted ones), each queried fast path first.
            # ``zonk`` writes an expansion back, so each head is checked
            # before the variable is zonked.
            for variable in [*POOL, *unifier._variables.values()]:
                unsolved = variable.name not in unifier._solved
                head = unifier.zonk_head(variable)
                assert head == find_then_lookup(unifier, variable)
                full = unifier.zonk(variable)
                assert full == slow_zonk(unifier, variable)
                if unsolved:
                    assert head is variable and full is variable
                    assert find_then_lookup(unifier, variable) is variable
            for probe in probes:
                assert unifier.zonk(probe) == slow_zonk(unifier, probe)

