"""Golden outcomes of the hand-written backends.

``tests/test_figure2_matrix.py`` pins each backend's *verdicts*; this
file pins the rest of every outcome — status, rendered type, error class
and error message — on the Figure-2 rows for the six baselines and on
the tc211 rows for the two policy-axis baselines under every policy.  A
third corpus, :data:`WALK`, exercises the term rules the backends share
(``case``, ``let`` and annotated λ-binders), which Figure 2 and tc211
barely reach; every baseline runs it, and the policy-axis ones under
every policy too.  A refactor of the shared backend machinery must leave
all of them alone.

The expected file was generated by this module and is identical under
``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=1``.  Regenerate it (only for
an intended behaviour change, listed in CHANGES.md) with::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_backend_golden.py

For a wider check than the golden rows, ``--digest SEED COUNT`` prints
one sha256 over every baseline outcome (every policy for the policy-axis
baselines) on the first ``COUNT`` generated conformance cases of sweep
``SEED``; equal digests before and after a refactor mean equal outcomes::

    PYTHONPATH=src python tests/test_backend_golden.py --digest 42 500
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.baselines.registry import SYSTEMS, SystemOutcome
from repro.conformance.generator import TermGenerator
from repro.core.policy import POLICIES
from repro.core.terms import AnnLam, Case, Let, Term, walk_terms
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.policies import TC211
from repro.syntax import parse_term

GOLDEN = Path(__file__).parent / "golden" / "backend_outcomes.json"
BASELINES = ("HM", "HMF", "HMF-N", "RankN", "FreezeML", "QuickLook")
POLICY_BASELINES = ("RankN", "QuickLook")

#: ``case``, ``let`` and λ rows: ``C`` cases (over ``Maybe`` and lists, a
#: mixed-constructor one, ∀-headed scrutinees and branches), ``L`` lets
#: (nested, let-polymorphic, over a λ-bound variable), ``A`` annotated
#: λ-binders and annotations under a λ.  The occurs-check rows name
#: unification variables, so they also pin the order of fresh names.
WALK: tuple[tuple[str, str], ...] = (
    ("C1", "case Just 1 of { Just x -> x ; Nothing -> 0 }"),
    ("C2", "case [1, 2] of { Cons x xs -> x ; Nil -> 0 }"),
    ("C3", "case ids of { Cons f fs -> f 1 ; Nil -> 0 }"),
    ("C4", "case ids of { Cons f fs -> f ; Nil -> id }"),
    ("C5", "case Just id of { Just f -> f ; Nothing -> inc }"),
    ("C6", "\\m -> case m of { Just x -> inc x ; Nothing -> 0 }"),
    ("C7", "case Just 1 of { Just x -> x ; Nil -> 2 }"),
    ("C8", "case nil of { Cons x xs -> 1 ; Nil -> 0 }"),
    ("C9", "case Nothing of { Just x -> x ; Nothing -> True }"),
    ("C10", "\\(xs :: [forall a. a -> a]) -> case xs of { Cons f fs -> f ; Nil -> id }"),
    ("C11", "case nil of { Cons x xs -> x x ; Nil -> 0 }"),
    ("C12", "case (nil :: forall a. [a]) of { Cons x xs -> x x ; Nil -> 0 }"),
    ("L1", "let f = \\x -> x in pair (f 1) (f True)"),
    ("L2", "let f = id in let g = f in pair (g 1) (g True)"),
    ("L3", "\\y -> let f = \\x -> y in f 1"),
    ("L4", "\\y -> let z = y in pair (z 1) (z True)"),
    ("L5", "let xs = single id in head xs 1"),
    ("L6", "let f = \\x -> x x in f"),
    ("A1", "\\(f :: forall a. a -> a) -> pair (f 1) (f True)"),
    ("A2", "let p = \\(f :: forall a. a -> a) -> f 1 in p id"),
    ("A3", "\\x -> (x :: Int)"),
    ("A4", "\\f -> (f :: forall a. a -> a)"),
    ("A5", "\\x -> (single x :: [Int])"),
)


def _entry(outcome: SystemOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "type": None if outcome.type_ is None else str(outcome.type_),
        "error": outcome.error,
        "detail": outcome.detail,
    }


def _every_outcome(key: str, term: Term, env) -> dict[str, dict]:
    """Every baseline's outcome on ``term``, and every policy-axis
    baseline's under each policy, keyed ``<key>/<system>[/<policy>]``."""
    outcomes = {
        f"{key}/{name}": _entry(SYSTEMS[name].run(term, env)) for name in BASELINES
    }
    for policy in POLICIES:
        for name in POLICY_BASELINES:
            outcome = SYSTEMS[name].run(term, env, policy=policy)
            outcomes[f"{key}/{name}/{policy.name}"] = _entry(outcome)
    return outcomes


def collect() -> dict[str, dict]:
    """``{"<corpus>/<row>/<system>[/<policy>]": outcome entry}``."""
    env = figure2_env()
    outcomes: dict[str, dict] = {}
    for name in BASELINES:
        for example in FIGURE2:
            outcome = SYSTEMS[name].run(example.term, env)
            outcomes[f"figure2/{example.key}/{name}"] = _entry(outcome)
    for policy in POLICIES:
        for name in POLICY_BASELINES:
            for example in TC211:
                outcome = SYSTEMS[name].run(example.term, env, policy=policy)
                outcomes[f"tc211/{example.key}/{name}/{policy.name}"] = _entry(outcome)
    for key, source in WALK:
        outcomes.update(_every_outcome(f"walk/{key}", parse_term(source), env))
    return outcomes


def digest(seed: int, count: int) -> str:
    """One sha256 over every baseline outcome on the generated cases."""
    env = figure2_env()
    hasher = hashlib.sha256()
    for case in TermGenerator(env).cases(seed, count):
        outcomes = _every_outcome(str(case.index), case.term, env)
        hasher.update(json.dumps(outcomes, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


def test_backend_outcomes_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = collect()
    assert actual.keys() == expected.keys()
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, {key: (expected[key], actual[key]) for key in changed[:5]}


#: ``digest(42, 500)`` and ``digest(7, 500)`` as recorded in
#: EXPERIMENTS.md §22 (§19 before the Quick Look reuse renumbered fresh
#: variables in its messages).
DIGEST_42_500 = "7366cd7ec0add9a44a3e390a786d2536d6953717b379517cf080916b4eb5e58a"
DIGEST_7_500 = "c142a656d7c05cc3d6c704579ca31dc8059113013ec57acb968c141001a3d20b"


def test_digest_of_seed_42_matches_the_recorded_value():
    """Every baseline outcome on the first 500 cases of fuzz seed 42 is
    unchanged.  After an *intended* backend change, regenerate with::

        PYTHONPATH=src python tests/test_backend_golden.py --digest 42 500

    then update :data:`DIGEST_42_500` and EXPERIMENTS.md §19 together and
    name the change in CHANGES.md."""
    assert digest(42, 500) == DIGEST_42_500


def test_digest_of_seed_7_matches_the_recorded_value():
    """The same check on fuzz seed 7, for :data:`DIGEST_7_500`."""
    assert digest(7, 500) == DIGEST_7_500


def test_walk_rows_reach_every_shared_rule():
    kinds = {node.__class__ for _, source in WALK for node in walk_terms(parse_term(source))}
    assert {Case, Let, AnnLam} <= kinds


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        print(digest(int(sys.argv[2]), int(sys.argv[3])))
    else:
        GOLDEN.write_text(
            json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
