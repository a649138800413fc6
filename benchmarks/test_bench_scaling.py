"""Scaling benchmarks: inference time vs program size.

Not a table in the paper — the paper's implementation claim is that GI
"easily integrates in a pre-existing constraint-based type inference
engine" with modest overhead; these benches quantify our implementation's
scaling on five workload shapes, including a pipeline that performs an
impredicative instantiation at every step.
"""

import pytest

from repro.core import Inferencer
from repro.evalsuite.figure2 import figure2_env
from repro.evalsuite.workloads import (
    application_chain,
    impredicative_pipeline,
    lambda_tower,
    let_chain,
    mixed_program,
    wide_application,
)

ENV = figure2_env()
SIZES = [8, 32, 128]


@pytest.mark.parametrize("size", SIZES)
def test_bench_application_chain(benchmark, size):
    term = application_chain(size)
    gi = Inferencer(ENV)
    result = benchmark(lambda: gi.infer(term).type_)
    assert str(result) == "Int"


@pytest.mark.parametrize("size", SIZES)
def test_bench_let_chain(benchmark, size):
    term = let_chain(size)
    gi = Inferencer(ENV)
    result = benchmark(lambda: gi.infer(term).type_)
    assert str(result) == "Int"


@pytest.mark.parametrize("size", [8, 32])
def test_bench_lambda_tower(benchmark, size):
    term = lambda_tower(size)
    gi = Inferencer(ENV)
    result = benchmark(lambda: gi.infer(term).type_)
    assert str(result) == "Int"


@pytest.mark.parametrize("size", SIZES)
def test_bench_impredicative_pipeline(benchmark, size):
    term = impredicative_pipeline(size)
    gi = Inferencer(ENV)
    result = benchmark(lambda: gi.infer(term).type_)
    assert str(result) == "[forall a. a -> a]"


@pytest.mark.parametrize("size", [8, 32])
def test_bench_wide_application(benchmark, size):
    term = wide_application(size)
    gi = Inferencer(ENV)
    benchmark(lambda: gi.infer(term).type_)


@pytest.mark.parametrize("size", [10, 40])
def test_bench_mixed_program(benchmark, size):
    term = mixed_program(size, seed=size)
    gi = Inferencer(ENV)
    benchmark(lambda: gi.infer(term).type_)


def test_scaling_is_roughly_linear(benchmark):
    """Sanity: doubling the impredicative pipeline roughly doubles both
    the constraint count (no accidental quadratic blow-up in generation)
    and the variables the schemes capture (each scheme captures only the
    variables created directly under it, so releases do linear work)."""
    gi = Inferencer(ENV)
    benchmark(lambda: gi.infer(impredicative_pipeline(16)).type_)
    from repro.core.constraints import Gen, Quant
    from repro.core.generate import Generator

    def work_for(size: int) -> tuple[int, int]:
        """Constraints and captured variables, nested ones included."""
        _, constraints = Generator().gen(ENV, impredicative_pipeline(size))
        total = captured = 0
        stack = list(constraints)
        while stack:
            c = stack.pop()
            total += 1
            if isinstance(c, Gen):
                captured += len(c.scheme.captured)
                stack.extend(c.scheme.constraints)
            elif isinstance(c, Quant):
                captured += len(c.existentials)
                stack.extend(c.wanteds)
        return total, captured

    (small, small_captured), (large, large_captured) = work_for(16), work_for(32)
    assert large <= 2.5 * small
    assert large_captured <= 2.5 * small_captured
