"""The one-pass front end against the recursive-descent oracle.

``tests/frontend_oracle.py`` keeps the per-character lexer and the
recursive-descent parser that the master-regex lexer and the
explicit-stack parser replaced.  On random source, well-formed and
malformed, both must give equal tokens, equal trees, and equal
``ParseError`` messages and positions.

Two differences are allowed, and only these:

* the oracle raises ``RecursionError`` (it recurses once per level of
  nesting); the new front end must then give an answer or a
  ``ParseError``, never a ``RecursionError``;
* integer literals are ASCII digits.  The oracle lexed any
  ``str.isdigit`` character into an ``int`` token, so ``²`` crashed
  ``int()`` and ``٣`` read as ``3``; the new lexer reports
  ``unexpected character`` at the first non-ASCII digit of such a token.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError
from repro.syntax import parse_term, parse_type, pretty_term, pretty_type, tokenize

from tests import frontend_oracle as oracle
from tests.strategies import hm_terms, polytypes

#: Token texts, blanks, comments, unterminated quotes and non-ASCII text.
ALPHABET = [
    "x", "y'", "_f", "go2", "Eq", "Int", "Maybe", "True", "False", "0", "42",
    "'c'", "'''", '"s"', '""', "let", "in", "case", "of", "forall", "∀", "→",
    "::", "->", "=>", "++", "\\", ".", "(", ")", "[", "]", "{", "}", ",", ";",
    "=", ":", "$", " ", "  ", "\t", "\r", "\n", "\n  ", "-- note\n", "--",
    "-", "'", '"', "?", "λ", "Äb", "x²", "²", "٣", "½", "\u2028", "\x0c",
]

SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def token_soup() -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(ALPHABET), max_size=24).map("".join)


def grammar_source() -> st.SearchStrategy[str]:
    """Source text built from every construct of the surface grammar."""
    leaves = st.sampled_from(
        ["x", "f", "1", "'c'", '"s"', "True", "()", "[]", "Int", "a", "Eq a", "Maybe b"]
    )

    def extend(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(
            pairs.map(lambda p: f"{p[0]} {p[1]}"),
            inner.map(lambda e: f"({e})"),
            pairs.map(lambda p: f"[{p[0]}, {p[1]}]"),
            pairs.map(lambda p: f"({p[0]}, {p[1]})"),
            inner.map(lambda e: f"\\x y -> {e}"),
            pairs.map(lambda p: f"\\(x :: {p[0]}) . {p[1]}"),
            pairs.map(lambda p: f"let x = {p[0]} in {p[1]}"),
            pairs.map(lambda p: f"case {p[0]} of {{ K y -> {p[1]} ; J -> x }}"),
            st.tuples(inner, st.sampled_from([":", "++", "$", "->", "=>"]), inner).map(
                " ".join
            ),
            pairs.map(lambda p: f"({p[0]} :: {p[1]})"),
            inner.map(lambda e: f"forall a b. {e}"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def pretty_source() -> st.SearchStrategy[str]:
    return st.one_of(hm_terms().map(pretty_term), polytypes().map(pretty_type))


def mutated(sources: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """``sources``, sometimes with a slice replaced by an alphabet entry."""

    def splice(draw_tuple):
        source, start, length, insert = draw_tuple
        start %= len(source) + 1
        return source[:start] + insert + source[start + length:]

    return st.one_of(
        sources,
        st.tuples(
            sources,
            st.integers(0, 200),
            st.integers(0, 4),
            st.sampled_from(ALPHABET + [""]),
        ).map(splice),
    )


def outcome(function, source):
    """A comparable result: the value, or a ``ParseError``'s text and place."""
    try:
        return ("ok", function(source))
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


def has_non_ascii_digit(source: str) -> bool:
    return any(char.isdigit() and not char.isascii() for char in source)


def names_non_ascii_digit(result) -> bool:
    if result[0] != "error":
        return False
    found = re.search(r"unexpected character '(.)'", result[1])
    return found is not None and found.group(1).isdigit() and not found.group(1).isascii()


def agree(new, old, source: str, compare=lambda value: value) -> None:
    try:
        expected = outcome(old, source)
    except RecursionError:
        # Allowed difference 1: the oracle recurses once per level.
        outcome(new, source)  # an answer or a ParseError, nothing else
        return
    except ValueError:
        # Allowed difference 2: `int()` of a non-ASCII digit crashed the oracle.
        assert has_non_ascii_digit(source)
        assert names_non_ascii_digit(outcome(new, source))
        return
    actual = outcome(new, source)
    if expected[0] == "ok":
        expected = ("ok", compare(expected[1]))
    if actual[0] == "ok":
        actual = ("ok", compare(actual[1]))
    if actual != expected and has_non_ascii_digit(source):
        # Allowed difference 2: `٣` lexed as an `int` token in the oracle.
        assert names_non_ascii_digit(actual), (source, actual, expected)
        return
    assert actual == expected, source


def token_tuples(tokens):
    return [(token.kind, token.text, token.line, token.column) for token in tokens]


def check_all(source: str) -> None:
    agree(tokenize, oracle.tokenize, source, token_tuples)
    agree(parse_term, oracle.parse_term, source)
    agree(parse_type, oracle.parse_type, source)


@SETTINGS
@given(mutated(token_soup()))
def test_token_soup_agrees_with_oracle(source):
    check_all(source)


@SETTINGS
@given(mutated(grammar_source()))
def test_grammar_source_agrees_with_oracle(source):
    check_all(source)


@SETTINGS
@given(mutated(pretty_source()))
def test_pretty_printed_source_agrees_with_oracle(source):
    check_all(source)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "  -- only a comment",
        "runST $ argST",
        "(Eq a, Show b) => a -> b",
        "(Eq a) => a",
        "((Eq a)) => a",
        "Eq => a",
        "Eq a => Show a => b",
        "Maybe (Eq a) => b",
        "(Eq a -> b, c) => d",
        "forall a. (forall b. a -> b)",
        "forall a a. a",
        "a : \\x -> x",
        "case x of { K y -> y ; J -> \"s\" }",
        "'\n' x\n  \"two\nlines\" )",
        "x²",
        "²",
        "1٣",
    ],
)
def test_corner_cases_agree_with_oracle(source):
    check_all(source)


def test_oracle_recursion_is_the_only_gap():
    source = "inc (" * 2000 + "0" + ")" * 2000
    with pytest.raises(RecursionError):
        oracle.parse_term(source)
    check_all(source)
