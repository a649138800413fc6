"""Direct tests of constraint generation (Figure 7)."""

import pytest

from repro.core.classify import Bit
from repro.core.constraints import Eq, Gen, Inst, Quant
from repro.core.evidence import ROOT
from repro.core.generate import Generator
from repro.core.infer import InferOptions
from repro.core.sorts import Sort
from repro.core.types import Forall, UVar, fuv
from repro.syntax import parse_term, parse_type
from repro.evalsuite.figure2 import figure2_env

ENV = figure2_env()


def generate(source: str, **options):
    generator = Generator(options=InferOptions(**options) if options else None)
    return generator.gen(ENV, parse_term(source))


class TestShapes:
    def test_lone_variable_is_nullary_app(self):
        type_, constraints = generate("id")
        assert isinstance(type_, UVar) and type_.sort is Sort.T
        [inst] = constraints
        assert isinstance(inst, Inst)
        assert inst.bits == () and inst.args == ()

    def test_literal_has_no_constraints(self):
        type_, constraints = generate("42")
        assert str(type_) == "Int" and constraints == []

    def test_application_emits_inst_then_gens(self):
        type_, constraints = generate("single id")
        kinds = [type(c).__name__ for c in constraints]
        assert kinds == ["Inst", "Gen"]
        inst = constraints[0]
        assert inst.sort is Sort.M
        assert len(inst.args) == 1

    def test_vargen_bit_for_rank1_vars(self):
        _, constraints = generate("single id")
        inst, gen = constraints
        assert inst.bits == (Bit.STAR,)
        assert gen.star

    def test_arggen_bit_for_expressions(self):
        _, constraints = generate("single (id 1)")
        inst = constraints[0]
        assert inst.bits == (Bit.GEN,)
        assert not constraints[1].star

    def test_arggen_bit_for_non_rank1_vars(self):
        # ids : [∀a.a→a] is not rank-1, so ArgGen applies.
        _, constraints = generate("single ids")
        assert constraints[0].bits == (Bit.GEN,)

    def test_vargen_disabled_by_option(self):
        _, constraints = generate("single id", use_vargen=False)
        assert constraints[0].bits == (Bit.GEN,)

    def test_annotation_produces_quant(self):
        type_, constraints = generate("(single id :: [forall a. a -> a])")
        [quant] = constraints
        assert isinstance(quant, Quant)
        assert str(type_) == "[forall a. a -> a]"
        inner_inst = [c for c in quant.wanteds if isinstance(c, Inst)]
        assert inner_inst and inner_inst[0].sort is Sort.U

    def test_annotation_skolems_are_freshened(self):
        _, constraints = generate("(id :: forall a. a -> a)")
        [quant] = constraints
        assert quant.skolems and quant.skolems[0] != "a"

    def test_scheme_captures_argument_variables(self):
        _, constraints = generate("single (id 1)")
        gen = constraints[1]
        assert isinstance(gen, Gen)
        assert gen.scheme.captured  # the inner application's variables
        inner_fuv = set()
        for inner in gen.scheme.constraints:
            from repro.core.constraints import constraint_fuv

            inner_fuv |= constraint_fuv(inner)
        assert set(gen.scheme.captured) <= inner_fuv | set(gen.scheme.captured)

    def test_binary_mode_one_arg_per_inst(self):
        _, constraints = generate("choose id auto", nary_apps=False)
        insts = [c for c in constraints if isinstance(c, Inst)]
        assert len(insts) == 2
        assert all(len(inst.args) == 1 for inst in insts)

    def test_nary_mode_one_inst(self):
        _, constraints = generate("choose id auto")
        insts = [c for c in constraints if isinstance(c, Inst)]
        assert len(insts) == 1
        assert len(insts[0].args) == 2

    def test_lambda_binder_is_fully_monomorphic(self):
        generator = Generator()
        type_, _ = generator.gen(ENV, parse_term(r"\x -> x"))
        binder = generator.evidence.lam_binders[ROOT]
        assert binder.sort is Sort.M

    def test_let_records_bound_type(self):
        generator = Generator()
        generator.gen(ENV, parse_term("let x = inc 1 in x"))
        assert ROOT in generator.evidence.let_types

    def test_case_constraints(self):
        _, constraints = generate(
            "case Just 1 of { Just x -> x ; Nothing -> 0 }"
        )
        insts = [c for c in constraints if isinstance(c, Inst)]
        eqs = [c for c in constraints if isinstance(c, Eq)]
        assert insts and len(eqs) == 2  # one result equation per branch

    def test_unknown_constructor_raises(self):
        with pytest.raises(Exception):
            generate("case x of { Bogus y -> y }")
