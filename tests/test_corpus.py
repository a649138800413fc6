"""The counterexample corpus is a permanent regression suite: every
``.gi`` file under ``tests/corpus/`` re-runs the full oracle battery on
every test run, so a divergence the fuzzer once found can never silently
come back.  Files are written by ``repro fuzz --corpus`` (or by hand
when a fix lands) in the ``repro batch``-compatible format."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import SYSTEMS
from repro.conformance import OracleContext, load_corpus, run_battery
from repro.conformance.oracles import PAIRWISE_IMPLICATIONS
from repro.core.terms import Ann, AnnLam, walk_terms
from repro.core.types import alpha_equal, rename_canonical
from repro.evalsuite.figure2 import figure2_env
from repro.robustness import read_batch_file

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = load_corpus(CORPUS_DIR)

ENV = figure2_env()


def expected_divergences(entry) -> set[str]:
    """Backend pairs a corpus file declares as legitimately divergent,
    from an ``-- expected-divergence: HM=>QuickLook, ...`` header."""
    raw = entry.metadata.get("expected-divergence", "")
    return {pair.strip() for pair in raw.split(",") if pair.strip()}


def test_corpus_exists_and_loads():
    assert CORPUS_DIR.is_dir()
    assert ENTRIES, "the checked-in corpus must not be empty"


def test_corpus_hygiene_every_file_parses():
    """``load_corpus`` silently skips comment-only files; the checked-in
    corpus must contain none — every ``.gi`` file carries a term."""
    on_disk = sorted(CORPUS_DIR.glob("*.gi"))
    assert [entry.path for entry in ENTRIES] == on_disk


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
def test_corpus_hygiene_digest_matches_content(entry):
    """Filenames end in the sha1 digest of the canonical term (the
    ``counterexample_name`` convention), so a file whose term was edited
    without a rename — or a stale duplicate — fails loudly."""
    import hashlib

    digest = hashlib.sha1(str(entry.term).encode("utf-8")).hexdigest()[:12]
    assert entry.path.stem.endswith(f"-{digest}"), (
        f"{entry.path.name}: expected digest suffix -{digest} "
        f"for term `{entry.term}`"
    )


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
def test_corpus_hygiene_divergence_waivers_name_real_pairs(entry):
    """Every ``-- expected-divergence:`` header must name a registered
    ``Premise=>Conclusion`` pair from the implication matrix — a typo'd
    waiver would silently stop waiving."""
    known = {
        f"{premise}=>{conclusion}"
        for premise, conclusion, _level in PAIRWISE_IMPLICATIONS
    }
    for pair in expected_divergences(entry):
        assert pair in known, (
            f"{entry.path.name}: `{pair}` is not a registered implication "
            f"(known: {', '.join(sorted(known))})"
        )
        premise, _, conclusion = pair.partition("=>")
        assert premise in SYSTEMS and conclusion in SYSTEMS


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
def test_corpus_case_passes_full_battery(entry):
    """The once-failing, now-fixed counterexample passes every oracle."""
    ctx = OracleContext(figure2_env())
    violation = run_battery(ctx, entry.term)
    assert violation is None, f"{entry.path.name}: {violation}"


def test_corpus_replays_through_batch_pipeline():
    """``repro batch tests/corpus`` sees exactly the corpus expressions."""
    sources = read_batch_file(str(CORPUS_DIR))
    assert sources == [entry.source for entry in ENTRIES]


def test_corpus_files_record_their_oracle():
    for entry in ENTRIES:
        assert "oracle" in entry.metadata, entry.path.name


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
@pytest.mark.parametrize("system_name", tuple(SYSTEMS))
def test_corpus_case_crashes_no_backend(system_name, entry):
    """Every backend must *decide* (or cleanly run out of budget on)
    every corpus term — no internal errors on past counterexamples."""
    outcome = SYSTEMS[system_name].run(entry.term, ENV)
    assert not outcome.crashed, (
        f"{entry.path.name}: {system_name} crashed: {outcome.detail}"
    )


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.path.stem for entry in ENTRIES]
)
def test_corpus_case_cross_backend_agreement(entry):
    """The pairwise implication matrix holds on every corpus term,
    except for pairs the file itself annotates as expected divergence.

    Deliberately stricter than ``oracle_differential``: the oracle skips
    type equality on annotated terms wholesale, while here each corpus
    file must name the diverging pair explicitly — a legitimate
    divergence is a recorded finding, not a silent pass."""
    waived = expected_divergences(entry)
    outcomes = {name: SYSTEMS[name].run(entry.term, ENV) for name in SYSTEMS}
    for premise, conclusion, level in PAIRWISE_IMPLICATIONS:
        label = f"{premise}=>{conclusion}"
        if label in waived:
            continue
        if premise in ("HM", "GI") and any(
            isinstance(node, (Ann, AnnLam)) for node in walk_terms(entry.term)
        ):
            continue
        first, second = outcomes[premise], outcomes[conclusion]
        if not first.accepted or not second.available:
            continue
        assert second.accepted, (
            f"{entry.path.name}: {label} violated — "
            f"{conclusion} rejected: {second.detail}"
        )
        if level == "type":
            assert alpha_equal(
                rename_canonical(first.type_), rename_canonical(second.type_)
            ), (
                f"{entry.path.name}: {label} types diverge — "
                f"{first.type_} vs {second.type_}"
            )
