"""The module layer's front half: parsing and binding-group analysis.

Includes the golden tests for module-file parse errors: every rejection
carries the *file* position of the offending token, even when the fault
sits deep inside the third multi-line binding.
"""

import pytest

from repro.core.errors import DuplicateBindingError, ParseError
from repro.core.terms import App, Lam, Var
from repro.modules import (
    GraphSummary,
    binding_groups,
    dependencies,
    dependents_closure,
    parse_module,
    parse_module_file,
    strongly_connected_components,
    topo_layers,
)

WELL_FORMED = """\
module Demo where

-- signatures may precede their bindings
setters :: [forall a. a -> a]
setters = id : ids

pick =
  head
    setters

n :: Int
n = runST $ argST
"""


class TestParseModule:
    def test_header_and_order(self):
        module = parse_module(WELL_FORMED)
        assert module.name == "Demo"
        assert module.names == ["setters", "pick", "n"]

    def test_signatures_attach(self):
        module = parse_module(WELL_FORMED)
        assert str(module.binding("setters").signature) == "[forall a. a -> a]"
        assert module.binding("pick").signature is None
        assert str(module.binding("n").signature) == "Int"

    def test_multiline_continuation(self):
        module = parse_module(WELL_FORMED)
        pick = module.binding("pick").term
        assert pick == App(Var("head"), (Var("setters"),))

    def test_positions_are_file_positions(self):
        module = parse_module(WELL_FORMED)
        assert module.binding("setters").line == 5
        assert module.binding("pick").line == 7
        assert module.binding("n").line == 12
        assert module.binding("n").signature_line == 11

    def test_no_header_is_fine(self):
        module = parse_module("x = 1\n")
        assert module.name is None
        assert module.names == ["x"]

    def test_source_key_ignores_formatting(self):
        dense = parse_module("f = \\x -> single x\n")
        airy = parse_module("f =\n  \\x ->\n    single x   -- comment\n")
        assert dense.binding("f").source_key == airy.binding("f").source_key

    def test_source_key_sees_signature_changes(self):
        signed = parse_module("f :: Int -> [Int]\nf = \\x -> single x\n")
        unsigned = parse_module("f = \\x -> single x\n")
        assert signed.binding("f").source_key != unsigned.binding("f").source_key

    def test_parse_module_file(self, tmp_path):
        path = tmp_path / "demo.gi"
        path.write_text(WELL_FORMED)
        module = parse_module_file(str(path))
        assert module.path == str(path)
        assert module.names == ["setters", "pick", "n"]


class TestModuleLines:
    """Lines end at "\n", "\r\n" or a lone "\r" and nowhere else."""

    @pytest.mark.parametrize("breaker", ["\u2028", "\u2029", "\x0c", "\x1c", "\x85"])
    def test_comment_stays_a_comment(self, breaker):
        # `str.splitlines` breaks at these; a binding must not start
        # inside the comment text after one.
        module = parse_module(f"a = 1 -- note{breaker}b = c\n")
        assert module.names == ["a"]

    def test_line_numbers_stay_file_lines(self):
        source = "a = 1 -- x\u2028y\x0cz\n\nb =\n  inc a -- \x85\nc = 2\n"
        module = parse_module(source)
        assert [module.binding(name).line for name in "abc"] == [1, 3, 5]
        error = self._fail(source + "d = inc (\n")
        assert (error.line, error.column) == (6, 10)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_end_lines(self, ending):
        source = ending.join(["a = 1", "b =", "  inc a", "", "c = 2", ""])
        module = parse_module(source)
        assert [module.binding(name).line for name in "abc"] == [1, 2, 5]
        error = self._fail(source + "d = inc (" + ending)
        assert (error.line, error.column) == (6, 10)

    @staticmethod
    def _fail(source):
        with pytest.raises(ParseError) as info:
            parse_module(source)
        return info.value


class TestModuleParseErrorsGolden:
    """Golden positions: the error points at the offending binding."""

    def _fail(self, source, error=ParseError):
        with pytest.raises(error) as info:
            parse_module(source)
        return info.value

    def test_error_deep_in_third_binding(self):
        source = "a = 1\n\nb = 2\n\nc =\n  inc )\n"
        error = self._fail(source)
        assert (error.line, error.column) == (6, 7)
        assert "6:7" in str(error)

    @pytest.mark.parametrize(
        "last, position, message",
        [
            ('b = "oops', (6, 5), "unterminated string literal"),
            ("b = inc (", (6, 10), "expected a term"),
            ('b =\n  inc "oops', (7, 7), "unterminated string literal"),
            ("b =\n  inc ?", (7, 7), "unexpected character"),
        ],
        ids=["lexer", "parser", "lexer-continuation", "lexer-character"],
    )
    def test_lexer_and_parser_errors_report_file_lines(self, last, position, message):
        # Each chunk is lexed on its own; a lexer error must not report
        # its line within the chunk.
        error = self._fail(f"module M where\n\na :: Int\na = 1\n\n{last}\n")
        assert (error.line, error.column) == position
        assert f"{position[0]}:{position[1]}" in str(error)
        assert message in str(error)

    def test_bad_separator_position(self):
        error = self._fail("a = 1\nb :: Int\nc inc 1\n")
        assert (error.line, error.column) == (3, 3)
        assert "expected `::` or `=` after `c`" in str(error)

    def test_leading_indentation_rejected(self):
        error = self._fail("  x = 1\n")
        assert (error.line, error.column) == (1, 3)

    def test_orphan_signature_points_at_signature(self):
        error = self._fail("a = 1\n\nghost :: Int\n")
        assert (error.line, error.column) == (3, 1)
        assert "ghost" in str(error)

    def test_malformed_type_in_signature(self):
        error = self._fail("a = 1\nb :: forall .\nb = 2\n")
        assert error.line == 2

    def test_module_header_trailing_garbage(self):
        error = self._fail("module Demo where extra\nx = 1\n")
        assert (error.line, error.column) == (1, 19)

    def test_non_binding_declaration(self):
        error = self._fail("a = 1\nData = 3\n")
        assert (error.line, error.column) == (2, 1)

    def test_duplicate_binding(self):
        error = self._fail("x = 1\ny = 2\nx = 3\n", DuplicateBindingError)
        assert error.name == "x"
        assert error.kind == "binding"
        assert (error.line, error.first_line) == (3, 1)
        assert "duplicate binding for `x` at 3:1" in str(error)

    def test_duplicate_signature(self):
        error = self._fail(
            "x :: Int\nx :: Bool\nx = 1\n", DuplicateBindingError
        )
        assert error.kind == "signature"
        assert (error.line, error.first_line) == (2, 1)


CHAIN = "a = 1\nb = inc a\nc = inc b\nfree = head ids\n"
MUTUAL = (
    "evens :: Int -> Bool\nevens = \\x -> odds x\n"
    "odds :: Int -> Bool\nodds = \\x -> evens x\n"
    "use = evens 3\n"
)


class TestDependencyGraph:
    def test_only_module_names_count(self):
        graph = dependencies(parse_module(CHAIN))
        assert graph == {"a": set(), "b": {"a"}, "c": {"b"}, "free": set()}

    def test_scc_order_is_dependency_first(self):
        components = strongly_connected_components(
            {"a": set(), "b": {"a"}, "c": {"b"}}
        )
        assert components == [["a"], ["b"], ["c"]]

    def test_mutual_recursion_is_one_group(self):
        groups = binding_groups(parse_module(MUTUAL))
        shapes = [group.names for group in groups]
        assert ("evens", "odds") in shapes
        recursive = next(g for g in groups if len(g.names) == 2)
        assert recursive.recursive
        use = next(g for g in groups if g.names == ("use",))
        assert use.deps == {"evens"}
        assert not use.recursive

    def test_self_recursion_detected(self):
        groups = binding_groups(parse_module("loop = \\x -> loop x\n"))
        assert groups[0].recursive

    def test_topo_layers_are_independent(self):
        module = parse_module(CHAIN)
        layers = topo_layers(binding_groups(module))
        names = [sorted(g.names[0] for g in layer) for layer in layers]
        assert names == [["a", "free"], ["b"], ["c"]]

    def test_dependents_closure(self):
        module = parse_module(CHAIN)
        assert dependents_closure(module, {"a"}) == {"a", "b", "c"}
        assert dependents_closure(module, {"c"}) == {"c"}
        assert dependents_closure(module, {"free"}) == {"free"}

    def test_graph_summary(self):
        summary = GraphSummary.of(binding_groups(parse_module(MUTUAL)))
        assert summary.bindings == 3
        assert summary.groups == 2
        assert summary.largest_group == 2
        assert summary.recursive_groups == 1
        assert summary.layers == 2

    def test_long_chain_does_not_recurse(self):
        # The iterative Tarjan must survive a chain far deeper than the
        # Python recursion limit would allow a recursive version.
        lines = ["x0 = 1"]
        lines += [f"x{i} = inc x{i - 1}" for i in range(1, 1500)]
        module = parse_module("\n".join(lines) + "\n")
        groups = binding_groups(module)
        assert len(groups) == 1500
        assert groups[0].names == ("x0",)
        assert groups[-1].names == ("x1499",)
