"""The facts an environment records on the types it binds.

``type_facts`` writes one record on a node: its free rigid names, its
free unification variables (both in first-occurrence order), whether it
is rank-1 and whether a quantifier occurs in it.  ``ftv``, ``fuv``,
``is_rank1``, ``respects(·, M)``, ``mentions_forall`` and the unifier's
summaries read the record and stop at any node that carries one, so each
must answer exactly as its walk does on an unrecorded copy of the type,
in the same order, whether the record sits at the root or deep inside,
under binders that shadow its free names.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import Environment
from repro.core.sorts import Sort
from repro.core.types import (
    Forall,
    Pred,
    TCon,
    Type,
    ftv,
    fuv,
    is_rank1,
    mentions_forall,
    respects,
    type_facts,
)
from repro.core.unify import Unifier
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.modules_corpus import synthetic_module_source
from repro.modules.engine import ModuleEngine

from tests.test_unifier_summaries import TYPES


def unrecorded(type_: Type, copies: dict[int, Type] | None = None) -> Type:
    """A copy of ``type_`` whose composite nodes carry no record and no
    ``forall`` memo; sharing within the type is kept."""
    copies = {} if copies is None else copies
    copy = copies.get(id(type_))
    if copy is not None:
        return copy
    if type_.__class__ is TCon and type_.args:
        copy = TCon(type_.name, tuple(unrecorded(arg, copies) for arg in type_.args))
    elif type_.__class__ is Forall:
        context = tuple(
            Pred(predicate.class_name, tuple(unrecorded(arg, copies) for arg in predicate.args))
            for predicate in type_.context
        )
        copy = Forall(type_.binders, unrecorded(type_.body, copies), context)
    else:
        copy = type_
    copies[id(type_)] = copy
    return copy


def answers(type_: Type) -> tuple:
    """What every reader of the record says about ``type_``."""
    _, names, level, rigid, poly = Unifier()._summary(type_)
    return (
        list(ftv(type_)),
        list(fuv(type_)),
        is_rank1(type_),
        respects(type_, Sort.M),
        mentions_forall(type_),
        (names, level, rigid, poly),
    )


def assert_reads_like_the_walks(type_: Type) -> None:
    walked = answers(unrecorded(type_))
    facts = type_facts(type_)
    assert facts == (tuple(walked[0]), tuple(walked[1]), walked[2], walked[4])
    assert answers(type_) == walked


def test_figure2_types_read_like_the_walks():
    for _, type_ in figure2_env().items():
        assert "_facts" in type_.__dict__
        assert_reads_like_the_walks(type_)


def test_checked_module_types_read_like_the_walks():
    result = ModuleEngine(figure2_env()).check_source(synthetic_module_source(4, 25))
    assert all(report.ok for report in result.reports)
    checked = [result.env.lookup(name) for name in result.types]
    assert len(checked) == 102
    for type_ in checked:
        assert "_facts" in type_.__dict__
        assert_reads_like_the_walks(type_)


def recorded_inside(type_: Type, picks: list[bool]) -> Type:
    """Record the facts of the composite nodes of ``type_`` that ``picks``
    selects, in pre-order, cycling through ``picks``."""
    stack, seen, index = [type_], set(), 0
    while stack:
        node = stack.pop()
        if node.__class__ not in (TCon, Forall) or id(node) in seen:
            continue
        seen.add(id(node))
        if picks and picks[index % len(picks)]:
            type_facts(node)
        index += 1
        if node.__class__ is TCon:
            stack.extend(reversed(node.args))
        else:
            stack.append(node.body)
            stack.extend(arg for predicate in node.context for arg in predicate.args)
    return type_


@settings(max_examples=300, deadline=None)
@given(TYPES, st.lists(st.booleans(), max_size=6))
def test_walks_stop_at_records_inside_a_type(type_, picks):
    # Records under a binder that the recorded node mentions free, under
    # a constructor shared twice, and at the root all answer as the walk.
    walked = answers(unrecorded(type_))
    recorded_inside(type_, picks)
    assert answers(type_) == walked
    wrapped = Forall(("a", "b"), TCon("->", (type_, TCon("(,)", (type_, type_)))))
    assert answers(wrapped) == answers(unrecorded(wrapped))


@settings(max_examples=100, deadline=None)
@given(st.lists(TYPES, min_size=1, max_size=4))
def test_environment_records_what_it_binds(types):
    env = Environment({"x": types[0]}).extended_many(
        {f"y{index}": type_ for index, type_ in enumerate(types)}
    )
    env = env.extended("x", types[-1])
    for _, type_ in env.items():
        assert "_facts" in type_.__dict__
        assert_reads_like_the_walks(type_)
    assert env.free_unification_vars() == {v for _, t in env.items() for v in fuv(t)}
