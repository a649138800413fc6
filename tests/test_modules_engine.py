"""The module checker and the incremental engine.

The acceptance scenario lives in :class:`TestIncremental`: on a
~100-binding synthetic module, editing one leaf binding re-checks only
that binding's SCC and its transitive dependents — verified through the
``--stats`` cache-hit counters — and a type-preserving edit cuts off
even earlier.
"""

import json

from repro.core.errors import CyclicBindingError
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.modules_corpus import (
    package_module_source,
    stackage_fragment_source,
    synthetic_module_source,
)
from repro.evalsuite.stackage import generate_corpus, study_env
from repro.modules import (
    ModuleCache,
    ModuleEngine,
    binding_groups,
    check_group,
    parse_module,
    render_module_text,
)
from repro.robustness import Budget
from repro.syntax import parse_term

ENV = figure2_env()

IMPREDICATIVE = """\
module Demo where

setters :: [forall a. a -> a]
setters = id : ids

pick = head setters

evens :: Int -> Bool
evens = \\x -> odds x

odds :: Int -> Bool
odds = \\x -> evens x

dup = \\x -> pair x x
"""


class TestCheckModule:
    def test_signatures_guide_impredicativity(self):
        result = ModuleEngine(ENV).check_source(IMPREDICATIVE)
        assert result.ok
        assert result.types["setters"] == "[forall a. a -> a]"
        # `head setters` instantiates head at the polymorphic element type.
        assert result.types["pick"] == "forall a. a -> a"

    def test_unsigned_bindings_generalise(self):
        result = ModuleEngine(ENV).check_source(IMPREDICATIVE)
        assert result.types["dup"] == "forall a. a -> (a, a)"

    def test_recursive_group_with_signatures(self):
        result = ModuleEngine(ENV).check_source(IMPREDICATIVE)
        assert result.types["evens"] == "Int -> Bool"
        assert result.types["odds"] == "Int -> Bool"

    def test_self_recursion_with_signature(self):
        result = ModuleEngine(ENV).check_source(
            "spin :: Int -> Int\nspin = \\x -> spin x\n"
        )
        assert result.ok

    def test_unannotated_recursion_rejected(self):
        result = ModuleEngine(ENV).check_source("loop = \\x -> loop x\n")
        assert not result.ok
        diagnostic = result.reports[0].diagnostic
        assert diagnostic.error_class == "CyclicBindingError"
        assert "type signature" in diagnostic.message

    def test_unannotated_mutual_recursion_names_missing_members(self):
        source = "f :: Int -> Int\nf = \\x -> g x\ng = \\x -> f x\n"
        result = ModuleEngine(ENV).check_source(source)
        assert not result.ok
        messages = {r.name: r.diagnostic.message for r in result.failures}
        assert set(messages) == {"f", "g"}
        assert "missing: `g`" in messages["f"]

    def test_failure_skips_dependents_not_siblings(self):
        source = (
            "bad :: Int\nbad = inc True\n"
            "hurt = single bad\n"
            "fine = head ids\n"
        )
        result = ModuleEngine(ENV).check_source(source)
        by_name = {report.name: report for report in result.reports}
        assert by_name["bad"].diagnostic.error_class == "UnificationError"
        assert by_name["hurt"].diagnostic.error_class == "SkippedBinding"
        assert "`bad`" in by_name["hurt"].diagnostic.message
        assert by_name["fine"].ok

    def test_declared_signature_is_the_env_type(self):
        # Check mode binds at the declared type, not a re-generalisation.
        source = "f :: Int -> Int\nf = \\x -> x\n"
        result = ModuleEngine(ENV).check_source(source)
        assert result.types["f"] == "Int -> Int"

    def test_result_env_is_usable(self):
        from repro.core import Inferencer

        result = ModuleEngine(ENV).check_source(IMPREDICATIVE)
        gi = Inferencer(result.env)
        assert str(gi.infer(parse_term("pick 3")).type_) == "Int"

    def test_module_binding_shadows_prelude(self):
        result = ModuleEngine(ENV).check_source("inc = \\b -> not b\nuse = inc True\n")
        assert result.ok
        assert result.types["use"] == "Bool"

    def test_budget_exhaustion_is_a_diagnostic(self):
        busy = "busy = app (app (app id id) (app id id)) (app (app id id) (app id id))\n"
        engine = ModuleEngine(ENV, budget=Budget(max_solver_steps=10))
        result = engine.check_source(busy + "fine :: Int\nfine = 1\n")
        by_name = {report.name: report for report in result.reports}
        assert by_name["busy"].diagnostic.error_class == "BudgetExceededError"
        assert by_name["fine"].ok

    def test_to_dict_is_json_serialisable(self):
        result = ModuleEngine(ENV).check_source(IMPREDICATIVE)
        payload = result.to_dict()
        json.dumps(payload)
        assert payload["passed"] == 5
        assert payload["stats"]["cache_misses"] == 5
        assert payload["bindings"][0]["group"] == ["setters"]

    def test_render_text_summary(self):
        text = render_module_text(ModuleEngine(ENV).check_source(IMPREDICATIVE))
        assert "5/5 bindings checked, 0 failed" in text
        assert "setters :: [forall a. a -> a]" in text


class TestCheckGroup:
    def test_cyclic_diagnostics_cover_all_members(self):
        module = parse_module("f = \\x -> g x\ng = \\x -> f x\n")
        group = binding_groups(module)[0]
        outcome = check_group(group, ENV)
        assert set(outcome.diagnostics) == {"f", "g"}
        assert not outcome.types

    def test_error_type_is_cyclic_binding_error(self):
        error = CyclicBindingError(("f", "g"), ("g",))
        assert "binding group {`f`, `g`}" in str(error)
        assert error.missing == ("g",)


class TestIncremental:
    """The acceptance scenario, on the ~100-binding synthetic module."""

    def setup_method(self):
        self.source = synthetic_module_source(chains=4, depth=25)
        self.engine = ModuleEngine(ENV, cache=ModuleCache())
        self.total = len(parse_module(self.source).bindings)
        assert self.total == 102

    def test_cold_check_misses_everything(self):
        result = self.engine.check_source(self.source)
        assert result.ok
        assert result.stats.cache_misses == self.total
        assert result.stats.cache_hits == 0

    def test_warm_recheck_hits_everything(self):
        self.engine.check_source(self.source)
        result = self.engine.check_source(self.source)
        assert result.stats.cache_hits == self.total
        assert result.stats.cache_misses == 0
        assert result.stats.groups_checked == 0

    def test_leaf_edit_rechecks_only_its_chain(self):
        self.engine.check_source(self.source)
        # A type-changing edit on chain 0's leaf: Int -> Bool.
        edited = self.source.replace(
            "c0_0 :: Int\nc0_0 = 0", "c0_0 :: Bool\nc0_0 = True"
        )
        assert edited != self.source
        result = self.engine.check_source(edited)
        assert result.ok
        # Exactly chain 0 (25 bindings) re-checks; everything else hits.
        assert result.stats.cache_misses == 25
        assert result.stats.cache_hits == self.total - 25
        rechecked = {
            report.name for report in result.reports if not report.cached
        }
        assert rechecked == {f"c0_{i}" for i in range(25)}

    def test_type_preserving_edit_cuts_off_early(self):
        self.engine.check_source(self.source)
        edited = self.source.replace("c0_0 = 0", "c0_0 = 7")
        result = self.engine.check_source(edited)
        # The leaf's type is unchanged, so dependents' keys are unchanged:
        # only the edited binding itself re-checks.
        assert result.stats.cache_misses == 1
        assert result.stats.cache_hits == self.total - 1

    def test_whitespace_edit_is_free(self):
        self.engine.check_source(self.source)
        edited = self.source.replace("c0_0 = 0", "c0_0 =\n  0   -- same")
        result = self.engine.check_source(edited)
        assert result.stats.cache_misses == 0

    def test_each_binding_walks_its_free_names_once_per_check(self, monkeypatch):
        # The graph, the recursion test and the cache key all read a
        # binding's free names; they share one walk per parsed binding.
        from repro.modules import parser

        walked = []
        plain = parser.free_vars

        def counting(term):
            walked.append(term)
            return plain(term)

        monkeypatch.setattr(parser, "free_vars", counting)
        edited = self.source.replace(
            "c0_0 :: Int\nc0_0 = 0", "c0_0 :: Bool\nc0_0 = True"
        )
        # Cold, warm and after an edit, then a module with a recursive group.
        for source, total, hits in [
            (self.source, self.total, 0),
            (self.source, self.total, self.total),
            (edited, self.total, self.total - 25),
            (IMPREDICATIVE, 5, 0),
        ]:
            walked.clear()
            result = self.engine.check_source(source)
            assert result.ok
            assert len(walked) == total
            assert len({id(term) for term in walked}) == total
            assert result.stats.cache_hits == hits

    def test_cached_types_are_reusable(self):
        self.engine.check_source(self.source)
        result = self.engine.check_source(self.source)
        from repro.core import Inferencer

        gi = Inferencer(result.env)
        assert str(gi.infer(parse_term("inc runner")).type_) == "Int"


class TestEvalsuiteModules:
    def test_stackage_fragments_check_as_a_module(self):
        result = ModuleEngine(ENV).check_source(stackage_fragment_source())
        assert result.ok
        assert result.types["storeId"] == "[forall a. a -> a]"

    def test_synthetic_package_checks_as_a_module(self):
        package = generate_corpus(size=40)[0]
        result = ModuleEngine(study_env()).check_source(
            package_module_source(package)
        )
        assert result.ok
        assert len(result.reports) == len(package.declarations)
