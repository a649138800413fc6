"""Conformance fuzzing: seeded generation, oracle battery, shrinking.

The correctness backstop for the whole reproduction.  One sweep
(:func:`run_fuzz` / ``python -m repro fuzz``) generates seeded closed
terms — most of them well-typed by construction, grown backward from a
goal type against the Figure-2 prelude — and checks every one against
the oracle battery (:mod:`repro.conformance.oracles`): never-crash,
printer/parser round-trip, declarative-replay soundness, System F
elaboration + erasure behaviour, HM agreement on the λ→ fragment,
metamorphic stability under small program transformations (eta,
redundant signatures, let-floating, let-swapping and let-inlining/
extraction are type-preserving exactly where "Seeking Stability by being
Lazy and Shallow" promises for the grid point ``--policy`` selects), and
cross-backend differential agreement over the registered system matrix
(``--systems`` restricts which backends take part).  Violations are
greedily shrunk (:mod:`repro.conformance.shrink`) and persisted as
replayable ``.gi`` corpus files (:mod:`repro.conformance.corpus`) that
``repro batch`` and the regression suite both consume.

:mod:`repro.conformance.strategies` (the hypothesis strategies the tests
draw from) is exported lazily: ``hypothesis`` is a
test-only dependency, and the seeded CLI generator must work without it.
"""

from repro.conformance.corpus import (
    CorpusEntry,
    counterexample_name,
    load_corpus,
    write_counterexample,
)
from repro.conformance.generator import (
    MODE_ARBITRARY,
    MODE_FIGURE2,
    MODE_WELL_TYPED,
    FuzzCase,
    TermGenerator,
)
from repro.conformance.metamorphic import TRANSFORMS
from repro.conformance.oracles import (
    DEFAULT_ORACLES,
    ORACLES,
    PAIRWISE_IMPLICATIONS,
    OracleContext,
    Violation,
    run_battery,
)
from repro.conformance.runner import (
    Counterexample,
    FuzzConfig,
    FuzzReport,
    render_fuzz_text,
    run_fuzz,
)
from repro.conformance.shrink import ShrinkResult, candidates, shrink

_STRATEGY_EXPORTS = (
    "closed_polytypes",
    "hm_terms",
    "monotypes",
    "polytypes",
)

__all__ = [
    "CorpusEntry",
    "Counterexample",
    "DEFAULT_ORACLES",
    "FuzzCase",
    "FuzzConfig",
    "FuzzReport",
    "MODE_ARBITRARY",
    "MODE_FIGURE2",
    "MODE_WELL_TYPED",
    "ORACLES",
    "OracleContext",
    "PAIRWISE_IMPLICATIONS",
    "ShrinkResult",
    "TRANSFORMS",
    "TermGenerator",
    "Violation",
    "candidates",
    "counterexample_name",
    "load_corpus",
    "render_fuzz_text",
    "run_battery",
    "run_fuzz",
    "shrink",
    "write_counterexample",
    *_STRATEGY_EXPORTS,
]


def __getattr__(name: str):
    if name in _STRATEGY_EXPORTS:
        from repro.conformance import strategies

        return getattr(strategies, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
