"""Robustness fuzzing: inference never crashes with a non-GI error.

Whatever term we throw at the pipeline, it must either produce a type or
raise a :class:`GIError` subclass — never an internal Python exception.
The same holds for the baselines, the parser on arbitrary printable
input, and the full elaboration pipeline on accepted terms.
"""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import SYSTEMS
from repro.core import Inferencer
from repro.core.errors import GIError
from repro.core.terms import (
    Ann,
    App,
    Case,
    CaseAlt,
    Lam,
    Let,
    Lit,
    Term,
    Var,
    app,
)
from repro.syntax import parse_term, parse_type, pretty_term
from repro.systemf import elaborate_result, typecheck
from repro.evalsuite.figure2 import figure2_env

from repro.conformance.strategies import polytypes

ENV = figure2_env()
RELAXED = settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.filter_too_much],
    deadline=None,
)

NAMES = st.sampled_from(
    ["id", "inc", "choose", "single", "head", "ids", "poly", "auto",
     "map", "app", "runST", "argST", "x", "y", "zz"]
)


def wild_terms(depth: int = 3) -> st.SearchStrategy[Term]:
    base = st.one_of(
        NAMES.map(Var),
        st.integers(min_value=0, max_value=5).map(Lit),
        st.booleans().map(Lit),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["x", "y", "f"]), inner).map(
                lambda p: Lam(p[0], p[1])
            ),
            st.tuples(inner, st.lists(inner, min_size=1, max_size=3)).map(
                lambda p: app(p[0], *p[1])
            ),
            st.tuples(inner, polytypes(2)).map(lambda p: Ann(p[0], p[1])),
            st.tuples(st.sampled_from(["v", "w"]), inner, inner).map(
                lambda p: Let(p[0], p[1], p[2])
            ),
            st.tuples(inner, inner, inner).map(
                lambda p: Case(
                    p[0],
                    (
                        CaseAlt("Just", ("j",), p[1]),
                        CaseAlt("Nothing", (), p[2]),
                    ),
                )
            ),
        )

    return st.recursive(base, extend, max_leaves=2 ** depth)


class TestInferenceNeverCrashes:
    @RELAXED
    @given(wild_terms())
    def test_gi(self, term):
        try:
            Inferencer(ENV).infer(term)
        except GIError:
            pass

    @RELAXED
    @given(wild_terms())
    def test_baselines(self, term):
        for system in SYSTEMS.values():
            try:
                system.infer(term, ENV)
            except GIError:
                pass

    @RELAXED
    @given(wild_terms())
    def test_accepted_terms_elaborate(self, term):
        try:
            result = Inferencer(ENV).infer(term)
        except GIError:
            return
        fterm = elaborate_result(result)
        typecheck(fterm, ENV)

    @RELAXED
    @given(wild_terms())
    def test_pretty_reparses(self, term):
        rendered = pretty_term(term)
        reparsed = parse_term(rendered)
        assert pretty_term(reparsed) == rendered


class TestParserNeverCrashes:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=60))
    def test_parse_term_total(self, source):
        try:
            parse_term(source)
        except GIError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=string.ascii_letters + "[]()->. ", max_size=60))
    def test_parse_type_total(self, source):
        try:
            parse_type(source)
        except GIError:
            pass
