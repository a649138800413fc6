"""Tests for the lexer, parser, and pretty printer."""

import pytest
from hypothesis import given

from repro.core.errors import ParseError
from repro.core.terms import Ann, AnnLam, App, Case, CaseAlt, Lam, Let, Lit, Var, app
from repro.core.types import (
    BOOL,
    INT,
    Forall,
    Pred,
    TCon,
    TVar,
    forall,
    fun,
    list_of,
    tuple_of,
)
from repro.syntax import parse_term, parse_type, pretty_term, pretty_type, tokenize

from repro.conformance.strategies import hm_terms, polytypes


class TestLexer:
    def test_symbols(self):
        kinds = [t.kind for t in tokenize("\\x -> x :: [a]")]
        assert kinds == ["symbol", "ident", "symbol", "ident", "symbol",
                         "symbol", "ident", "symbol", "eof"]

    def test_comments_skipped(self):
        tokens = tokenize("x -- a comment\ny")
        assert [t.text for t in tokens[:-1]] == ["x", "y"]

    def test_positions(self):
        tokens = tokenize("x\n  y")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_char_literal(self):
        assert tokenize("'c'")[0].kind == "char"

    def test_string_literal(self):
        assert tokenize('"hello"')[0].text == "hello"

    def test_primes_in_identifiers(self):
        assert tokenize("auto'")[0].text == "auto'"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("№")


    @pytest.mark.parametrize("source", ["\u00b2", "1\u00b2", "\u0663", "x \u00b9"])
    def test_integer_literals_are_ascii_digits(self, source):
        # `str.isdigit` accepts "²", which `int` rejects: a crash, not a
        # parse error.  "٣" is a decimal digit that `int` reads as 3.
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize(source)
        with pytest.raises(ParseError, match="unexpected character"):
            parse_term(source)

    def test_non_ascii_digits_inside_names(self):
        assert [t.text for t in tokenize("x\u00b2 y\u0663")[:-1]] == ["x\u00b2", "y\u0663"]

    def test_trailing_blanks_end_in_one_eof(self):
        tokens = tokenize("x  -- note\n  ")
        assert [t.kind for t in tokens] == ["ident", "eof"]
        assert (tokens[-1].line, tokens[-1].column) == (2, 3)


class TestTypeParser:
    A, B = TVar("a"), TVar("b")

    def test_arrow_right_assoc(self):
        assert parse_type("a -> b -> a") == fun(self.A, self.B, self.A)

    def test_parens(self):
        assert parse_type("(a -> b) -> a") == fun(fun(self.A, self.B), self.A)

    def test_forall(self):
        assert parse_type("forall a. a -> a") == forall(["a"], fun(self.A, self.A))

    def test_forall_to_the_right_of_arrow(self):
        parsed = parse_type("Int -> forall a. a -> a")
        assert parsed == fun(INT, forall(["a"], fun(self.A, self.A)))

    def test_list(self):
        assert parse_type("[forall a. a -> a]") == list_of(
            forall(["a"], fun(self.A, self.A))
        )

    def test_tuple(self):
        assert parse_type("(Int, Bool)") == tuple_of(INT, BOOL)

    def test_constructor_application(self):
        assert parse_type("ST s Int") == TCon("ST", (TVar("s"), INT))

    def test_unit(self):
        assert parse_type("()") == TCon("()")

    def test_context(self):
        parsed = parse_type("forall a. Eq a => a -> Bool")
        assert isinstance(parsed, Forall)
        assert parsed.context == (Pred("Eq", (self.A,)),)

    def test_multi_context(self):
        parsed = parse_type("forall a b. (Eq a, Ord b) => a -> b")
        assert len(parsed.context) == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_type("Int Int ->")

    def test_empty_forall(self):
        with pytest.raises(ParseError):
            parse_type("forall . Int")


class TestTermParser:
    def test_application_flattens(self):
        assert parse_term("f x y") == App(Var("f"), (Var("x"), Var("y")))

    def test_parenthesised_application_also_flattens(self):
        # The parser maximises n-ary applications (Section 3.2).
        assert parse_term("(f x) y") == App(Var("f"), (Var("x"), Var("y")))

    def test_lambda_multi_binder(self):
        assert parse_term(r"\x y -> x") == Lam("x", Lam("y", Var("x")))

    def test_lambda_dot_syntax(self):
        assert parse_term(r"\x. x") == Lam("x", Var("x"))

    def test_annotated_lambda(self):
        parsed = parse_term(r"\(x :: forall a. a -> a) -> x")
        assert isinstance(parsed, AnnLam)

    def test_annotation(self):
        parsed = parse_term("(f x :: Int)")
        assert parsed == Ann(app(Var("f"), Var("x")), INT)

    def test_let(self):
        parsed = parse_term("let x = f y in x")
        assert parsed == Let("x", app(Var("f"), Var("y")), Var("x"))

    def test_case(self):
        parsed = parse_term("case m of { Just x -> x ; Nothing -> y }")
        assert parsed == Case(
            Var("m"),
            (CaseAlt("Just", ("x",), Var("x")), CaseAlt("Nothing", (), Var("y"))),
        )

    def test_list_sugar(self):
        assert parse_term("[]") == Var("nil")
        assert parse_term("[x]") == app(Var("cons"), Var("x"), Var("nil"))
        assert parse_term("[x, y]") == app(
            Var("cons"), Var("x"), app(Var("cons"), Var("y"), Var("nil"))
        )

    def test_cons_operator_right_assoc(self):
        assert parse_term("x : y : zs") == app(
            Var("cons"), Var("x"), app(Var("cons"), Var("y"), Var("zs"))
        )

    def test_append_operator(self):
        assert parse_term("xs ++ ys") == app(Var("append"), Var("xs"), Var("ys"))

    def test_dollar_is_ordinary(self):
        assert parse_term("f $ x") == app(Var("$"), Var("f"), Var("x"))

    def test_tuple_sugar(self):
        assert parse_term("(x, y)") == app(Var("pair"), Var("x"), Var("y"))

    def test_literals(self):
        assert parse_term("42") == Lit(42)
        assert parse_term("True") == Lit(True)
        assert parse_term("'c'") == Lit("c")

    def test_nested(self):
        parsed = parse_term(r"let f = \x -> x in (f 1, f True)")
        assert isinstance(parsed, Let)

    def test_missing_in(self):
        with pytest.raises(ParseError):
            parse_term("let x = 1")

    def test_empty_lambda(self):
        with pytest.raises(ParseError):
            parse_term(r"\ -> x")


class TestRoundTrip:
    @given(polytypes())
    def test_types_roundtrip(self, type_):
        assert parse_type(pretty_type(type_)) == type_

    def test_terms_roundtrip(self):
        sources = [
            "runST $ argST",
            r"\x y -> f (g x) y",
            "(single id :: [forall a. a -> a])",
            r"let go = \n -> plus n 1 in go 41",
            "case xs of { Cons y ys -> y ; Nil -> z }",
            r"\(f :: (forall a. a -> a) -> Int) -> f id",
        ]
        for source in sources:
            term = parse_term(source)
            assert parse_term(pretty_term(term)) == term

    @given(hm_terms())
    def test_generated_terms_roundtrip(self, term):
        assert parse_term(pretty_term(term)) == term


class TestErrorPositions:
    """Every ParseError carries the line/column of the offending token
    (the robustness satellite: positions flow from the lexer into the
    error, including across newlines)."""

    def _fail(self, source, parse=parse_term):
        with pytest.raises(ParseError) as info:
            parse(source)
        return info.value

    def test_malformed_term_reports_position(self):
        error = self._fail("inc )")
        assert (error.line, error.column) == (1, 5)
        assert "1:5" in str(error)

    def test_position_crosses_newlines(self):
        error = self._fail("head\n  [1,")
        assert error.line == 2
        assert error.column == 6

    def test_unterminated_string_position(self):
        error = self._fail('f\n "abc')
        assert (error.line, error.column) == (2, 2)

    def test_unexpected_character_position(self):
        error = self._fail("id ?")
        assert (error.line, error.column) == (1, 4)

    def test_missing_in_position(self):
        error = self._fail("let x = 1")
        assert (error.line, error.column) == (1, 10)

    def test_type_error_position(self):
        error = self._fail("forall .", parse=parse_type)
        assert error.line == 1
        assert error.column is not None

    def test_empty_input_position(self):
        error = self._fail("")
        assert (error.line, error.column) == (1, 1)

    def test_multiline_type_position(self):
        error = self._fail("[Int ->\n  ]", parse=parse_type)
        assert error.line == 2
