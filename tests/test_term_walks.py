"""The term walks of ``core/terms.py`` against the recursive walks they
replaced.

``core/terms.py`` describes the term shape once (``term_children``,
``term_binders``, ``rebuild_term``) and builds two iterative walks on it:
``walk_terms`` (pre-order) and a scoped rebuild behind ``free_vars``,
``subst_term`` and ``subst_type_vars_in_term``.  The shrinker's
``candidates`` uses the same helpers.  The ``ref_*`` functions below are
the earlier recursive, one-function-per-walk versions, kept here (and only
here) as oracles: on hypothesis terms and on the 500 fuzz seed-42 terms
every new walk must give the same answer, in the same order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.generator import TermGenerator
from repro.conformance.shrink import _local, candidates
from repro.conformance.strategies import VAR_POOL, hm_terms, polytypes
from repro.core.terms import (
    Ann,
    AnnLam,
    App,
    Case,
    CaseAlt,
    Lam,
    Let,
    Lit,
    Term,
    Var,
    app,
    free_vars,
    rebuild_term,
    subst_term,
    subst_type_vars_in_term,
    term_binders,
    term_children,
    term_size,
    walk_terms,
)
from repro.core.types import Forall, TCon, TVar, ftv, subst_tvars
from repro.evalsuite.figure2 import figure2_env

# ---------------------------------------------------------------------
# Reference oracles: the recursive walks, one per function.
# ---------------------------------------------------------------------


def ref_free_vars(term: Term) -> set[str]:
    result: set[str] = set()
    _ref_collect_free(term, frozenset(), result)
    return result


def _ref_collect_free(term, bound, out):
    if isinstance(term, Var):
        if term.name not in bound:
            out.add(term.name)
    elif isinstance(term, Lit):
        pass
    elif isinstance(term, App):
        _ref_collect_free(term.head, bound, out)
        for argument in term.args:
            _ref_collect_free(argument, bound, out)
    elif isinstance(term, (Lam, AnnLam)):
        _ref_collect_free(term.body, bound | {term.var}, out)
    elif isinstance(term, Ann):
        _ref_collect_free(term.expr, bound, out)
    elif isinstance(term, Let):
        _ref_collect_free(term.bound, bound, out)
        _ref_collect_free(term.body, bound | {term.var}, out)
    elif isinstance(term, Case):
        _ref_collect_free(term.scrutinee, bound, out)
        for alt in term.alts:
            _ref_collect_free(alt.rhs, bound | set(alt.binders), out)


def ref_walk(term: Term):
    yield term
    if isinstance(term, App):
        yield from ref_walk(term.head)
        for argument in term.args:
            yield from ref_walk(argument)
    elif isinstance(term, (Lam, AnnLam)):
        yield from ref_walk(term.body)
    elif isinstance(term, Ann):
        yield from ref_walk(term.expr)
    elif isinstance(term, Let):
        yield from ref_walk(term.bound)
        yield from ref_walk(term.body)
    elif isinstance(term, Case):
        yield from ref_walk(term.scrutinee)
        for alt in term.alts:
            yield from ref_walk(alt.rhs)


def ref_subst_term(term: Term, name: str, replacement: Term) -> Term:
    if isinstance(term, Var):
        return replacement if term.name == name else term
    if isinstance(term, Lit):
        return term
    if isinstance(term, App):
        return app(
            ref_subst_term(term.head, name, replacement),
            *(ref_subst_term(argument, name, replacement) for argument in term.args),
        )
    if isinstance(term, Lam):
        return term if term.var == name else Lam(term.var, ref_subst_term(term.body, name, replacement))
    if isinstance(term, AnnLam):
        if term.var == name:
            return term
        return AnnLam(term.var, term.annotation, ref_subst_term(term.body, name, replacement))
    if isinstance(term, Ann):
        return Ann(ref_subst_term(term.expr, name, replacement), term.annotation)
    if isinstance(term, Let):
        body = term.body if term.var == name else ref_subst_term(term.body, name, replacement)
        return Let(term.var, ref_subst_term(term.bound, name, replacement), body)
    return Case(
        ref_subst_term(term.scrutinee, name, replacement),
        tuple(
            alt
            if name in alt.binders
            else CaseAlt(alt.constructor, alt.binders, ref_subst_term(alt.rhs, name, replacement))
            for alt in term.alts
        ),
    )


def ref_subst_type_vars(mapping, term: Term) -> Term:
    if not mapping or isinstance(term, (Var, Lit)):
        return term
    if isinstance(term, App):
        return App(
            ref_subst_type_vars(mapping, term.head),
            tuple(ref_subst_type_vars(mapping, argument) for argument in term.args),
        )
    if isinstance(term, Lam):
        return Lam(term.var, ref_subst_type_vars(mapping, term.body))
    if isinstance(term, AnnLam):
        return AnnLam(
            term.var, subst_tvars(mapping, term.annotation), ref_subst_type_vars(mapping, term.body)
        )
    if isinstance(term, Ann):
        inner = mapping
        if isinstance(term.annotation, Forall) and term.annotation.binders:
            inner = {k: v for k, v in mapping.items() if k not in term.annotation.binders}
        return Ann(ref_subst_type_vars(inner, term.expr), subst_tvars(mapping, term.annotation))
    if isinstance(term, Let):
        return Let(
            term.var, ref_subst_type_vars(mapping, term.bound), ref_subst_type_vars(mapping, term.body)
        )
    return Case(
        ref_subst_type_vars(mapping, term.scrutinee),
        tuple(
            CaseAlt(alt.constructor, alt.binders, ref_subst_type_vars(mapping, alt.rhs))
            for alt in term.alts
        ),
    )


def ref_candidates(term: Term):
    size = term_size(term)
    seen: set[str] = set()
    hoisted = [
        sub
        for sub in _ref_subterms(term)
        if term_size(sub) < size and not ref_free_vars(sub) - ref_free_vars(term)
    ]
    hoisted.sort(key=term_size)
    for sub in hoisted:
        key = repr(sub)
        if key not in seen:
            seen.add(key)
            yield sub
    for variant in _ref_rewrites(term):
        if term_size(variant) >= size or ref_free_vars(variant) - ref_free_vars(term):
            continue
        key = repr(variant)
        if key not in seen:
            seen.add(key)
            yield variant


def _ref_subterms(term: Term):
    for child in _ref_children(term):
        yield from _ref_subterms(child)
        yield child


def _ref_children(term: Term):
    if isinstance(term, App):
        return (term.head, *term.args)
    if isinstance(term, (Lam, AnnLam)):
        return (term.body,)
    if isinstance(term, Ann):
        return (term.expr,)
    if isinstance(term, Let):
        return (term.bound, term.body)
    if isinstance(term, Case):
        return (term.scrutinee, *(alt.rhs for alt in term.alts))
    return ()


def _ref_rewrites(term: Term):
    """Raises ``ValueError`` when a head rewrite yields an application."""
    yield from _local(term)
    if isinstance(term, App):
        for index, argument in enumerate(term.args):
            for replacement in _ref_rewrites(argument):
                args = list(term.args)
                args[index] = replacement
                yield App(term.head, tuple(args))
        for replacement in _ref_rewrites(term.head):
            yield App(replacement, term.args)
    elif isinstance(term, Lam):
        for replacement in _ref_rewrites(term.body):
            yield Lam(term.var, replacement)
    elif isinstance(term, AnnLam):
        for replacement in _ref_rewrites(term.body):
            yield AnnLam(term.var, term.annotation, replacement)
    elif isinstance(term, Ann):
        for replacement in _ref_rewrites(term.expr):
            yield Ann(replacement, term.annotation)
    elif isinstance(term, Let):
        for replacement in _ref_rewrites(term.bound):
            yield Let(term.var, replacement, term.body)
        for replacement in _ref_rewrites(term.body):
            yield Let(term.var, term.bound, replacement)
    elif isinstance(term, Case):
        for replacement in _ref_rewrites(term.scrutinee):
            yield Case(replacement, term.alts)
        for index, alt in enumerate(term.alts):
            for replacement in _ref_rewrites(alt.rhs):
                alts = list(term.alts)
                alts[index] = CaseAlt(alt.constructor, alt.binders, replacement)
                yield Case(term.scrutinee, tuple(alts))


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------

FUZZ_TERMS = [case.term for case in TermGenerator(figure2_env()).cases(42, 500)]


def all_terms():
    """Every term form: ``hm_terms`` plus ``let``, ``case`` and both
    annotation forms, with annotations drawn from ``polytypes``."""
    base = hm_terms(depth=2)
    names = st.sampled_from(VAR_POOL)

    def extend(inner):
        return st.one_of(
            st.builds(Lam, names, inner),
            st.builds(lambda head, args: app(head, *args), inner, st.lists(inner, min_size=1, max_size=2)),
            st.builds(Let, names, inner, inner),
            st.builds(Ann, inner, polytypes(max_depth=2)),
            st.builds(AnnLam, names, polytypes(max_depth=2), inner),
            st.builds(
                Case,
                inner,
                st.lists(
                    st.builds(CaseAlt, st.sampled_from(("Just", "Pair")), st.lists(names, max_size=2).map(tuple), inner),
                    min_size=1,
                    max_size=2,
                ).map(tuple),
            ),
        )

    return st.recursive(base, extend, max_leaves=12)


def type_mappings(term: Term) -> list[dict]:
    """Mappings over every type-variable name the term's annotations
    mention, free or bound, so nested ``forall`` annotations shadow them;
    the second mapping's images would be captured without renaming."""
    names: set[str] = set()
    for node in walk_terms(term):
        if isinstance(node, (Ann, AnnLam)):
            names.update(ftv(node.annotation))
            if isinstance(node.annotation, Forall):
                names.update(node.annotation.binders)
    ordered = sorted(names)
    return [
        {name: TVar("sk") for name in ordered},
        {name: TCon("[]", (TVar(other),)) for name, other in zip(ordered, reversed(ordered))},
    ]


def check_walks(term: Term) -> None:
    assert free_vars(term) == ref_free_vars(term)
    assert [id(node) for node in walk_terms(term)] == [id(node) for node in ref_walk(term)]
    assert term_size(term) == sum(1 for _ in ref_walk(term))
    for name in sorted(ref_free_vars(term)):
        for replacement in (Var("fresh"), app(Var("f"), Lit(1))):
            assert subst_term(term, name, replacement) == ref_subst_term(term, name, replacement)
    for mapping in type_mappings(term):
        assert subst_type_vars_in_term(mapping, term) == ref_subst_type_vars(mapping, term)


def check_candidates(term: Term) -> None:
    expected = []
    try:
        for candidate in ref_candidates(term):
            expected.append(candidate)
    except ValueError:  # the reference's head-rewrite bug: compare its prefix
        assert list(candidates(term))[: len(expected)] == expected
        return
    assert list(candidates(term)) == expected


# ---------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(all_terms())
def test_walks_match_reference(term):
    check_walks(term)


@settings(max_examples=200, deadline=None)
@given(all_terms())
def test_candidates_match_reference(term):
    check_candidates(term)


@settings(max_examples=100, deadline=None)
@given(hm_terms())
def test_walks_and_candidates_match_reference_on_hm_terms(term):
    check_walks(term)
    check_candidates(term)


def test_walks_match_reference_on_fuzz_terms():
    for term in FUZZ_TERMS:
        check_walks(term)


def test_candidates_match_reference_on_fuzz_terms():
    raised = 0
    for term in FUZZ_TERMS:
        try:
            list(ref_candidates(term))
        except ValueError:
            raised += 1
        check_candidates(term)
    assert raised == 5  # the terms the reference cannot shrink


def test_shadowing_forall_annotation_keeps_inner_names():
    inner = Ann(Var("x"), Forall(("a",), TCon("->", (TVar("a"), TVar("b")))))
    term = AnnLam("y", TVar("a"), inner)
    renamed = subst_type_vars_in_term({"a": TVar("sk"), "b": TVar("sb")}, term)
    assert renamed == AnnLam(
        "y", TVar("sk"), Ann(Var("x"), Forall(("a",), TCon("->", (TVar("a"), TVar("sb")))))
    )
    assert renamed == ref_subst_type_vars({"a": TVar("sk"), "b": TVar("sb")}, term)


@pytest.mark.parametrize("term", FUZZ_TERMS[:100:7])
def test_substitution_that_hits_nothing_returns_the_same_object(term):
    assert subst_term(term, "not-a-name", Lit(0)) is term
    assert subst_type_vars_in_term({"not_a_tvar": TVar("sk")}, term) is term
    for name in ref_free_vars(term):
        bound_everywhere = Lam(name, term)
        assert subst_term(bound_everywhere, name, Lit(0)) is bound_everywhere


def test_shape_helpers_agree():
    for term in FUZZ_TERMS:
        for node in walk_terms(term):
            children = term_children(node)
            assert len(term_binders(node)) == len(children)
            assert rebuild_term(node, children) is node


def test_rebuild_flattens_an_application_head():
    term = App(Var("f"), (Lit(1),))
    assert rebuild_term(term, [app(Var("g"), Lit(0)), Lit(1)]) == App(Var("g"), (Lit(0), Lit(1)))
    alts = (CaseAlt("Just", ("x",), Var("x")), CaseAlt("Nothing", (), Lit(0)))
    case = Case(Var("m"), alts)
    rebuilt = rebuild_term(case, [Var("n"), alts[0].rhs, Lit(1)])
    assert rebuilt.alts[0] is alts[0] and rebuilt.alts[1] == CaseAlt("Nothing", (), Lit(1))
