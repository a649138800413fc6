"""The full Figure 2 matrix: measured columns vs the paper's.

* GI must match the paper's column on all 32 rows (also asserted
  per-row in test_figure2; this file checks the aggregate, and
  test_results_tables the rendered tables).
* Plain HMF must match the paper's HMF column everywhere except D2/D5 —
  the two rows that need the delayed-argument extension the paper's §6
  describes; HMF-N (with the extension) must accept those but flips
  C5/C6/E2, exactly the examples the extension is documented to add.
  Both deviations are *expected findings*, recorded in EXPERIMENTS.md.
"""

from repro.baselines import SYSTEMS
from repro.core.types import alpha_equal, rename_canonical
from repro.evalsuite.figure2 import FIGURE2, MEASURED_SYSTEMS, figure2_env, measured_matrix
from repro.evalsuite.report import mark_outcome

ENV = figure2_env()

# Rows where our executable HMF variants are expected to differ from the
# published column (see EXPERIMENTS.md for the analysis).
HMF_PLAIN_KNOWN_DEVIATIONS = {"D2", "D5"}
HMF_NARY_KNOWN_DEVIATIONS = {"C5", "C6", "E2"}

# FreezeML (no freeze markers in the shared syntax beyond annotations)
# accepts exactly the rows typeable with eager ML instantiation plus
# explicitly-annotated binders; Quick Look rejects only the three rows
# every system rejects modulo B2/E1-style eta-sensitivity.
FREEZEML_ACCEPTED = {
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "C1", "C2", "C3", "C4", "C7", "C10",
}
QUICKLOOK_REJECTED = {"B1", "B2", "E1"}


def measured(system_name: str) -> dict[str, bool]:
    system = SYSTEMS[system_name]
    return {ex.key: system.accepts(ex.term, ENV) for ex in FIGURE2}


def test_gi_matches_paper_everywhere():
    results = measured("GI")
    mismatches = [
        ex.key for ex in FIGURE2 if results[ex.key] != ex.expected["GI"]
    ]
    assert not mismatches, f"GI disagrees with the paper on {mismatches}"


def test_hmf_plain_deviations_are_exactly_the_known_ones():
    results = measured("HMF")
    deviations = {
        ex.key for ex in FIGURE2 if results[ex.key] != ex.expected["HMF"]
    }
    assert deviations == HMF_PLAIN_KNOWN_DEVIATIONS, (
        f"plain HMF deviations changed: {sorted(deviations)}"
    )


def test_hmf_nary_deviations_are_exactly_the_known_ones():
    results = measured("HMF-N")
    deviations = {
        ex.key for ex in FIGURE2 if results[ex.key] != ex.expected["HMF"]
    }
    assert deviations == HMF_NARY_KNOWN_DEVIATIONS, (
        f"n-ary HMF deviations changed: {sorted(deviations)}"
    )


def test_hmf_variants_union_covers_published_column():
    """Every row the published column accepts is accepted by at least one
    of the two HMF variants (the column mixes plain and extended
    behaviour — a reproduction finding)."""
    plain = measured("HMF")
    nary = measured("HMF-N")
    for ex in FIGURE2:
        if ex.expected["HMF"]:
            assert plain[ex.key] or nary[ex.key], ex.key


def test_hm_accepts_only_rank1_rows():
    results = measured("HM")
    accepted = {key for key, ok in results.items() if ok}
    # Exactly the classic Hindley-Milner rows of the corpus (C7 is HM
    # typeable at [Int → Int], instantiating id monomorphically).
    assert accepted == {"A1", "A2", "C4", "C7"}


def test_rankn_is_between_hm_and_gi():
    hm = measured("HM")
    rankn = measured("RankN")
    for ex in FIGURE2:
        if hm[ex.key]:
            assert rankn[ex.key], f"RankN rejects HM-typeable {ex.key}"


def test_freezeml_accepts_exactly_the_expected_rows():
    results = measured("FreezeML")
    accepted = {key for key, ok in results.items() if ok}
    assert accepted == FREEZEML_ACCEPTED, (
        f"FreezeML acceptance set changed: {sorted(accepted)}"
    )


def test_freezeml_accepts_subset_of_gi():
    """Without freeze markers, FreezeML's fragment of the shared syntax is
    conservative over GI on Figure 2."""
    freezeml = measured("FreezeML")
    gi = measured("GI")
    for ex in FIGURE2:
        if freezeml[ex.key]:
            assert gi[ex.key], f"FreezeML accepts GI-rejected {ex.key}"


def test_quicklook_rejects_exactly_the_expected_rows():
    results = measured("QuickLook")
    rejected = {key for key, ok in results.items() if not ok}
    assert rejected == QUICKLOOK_REJECTED, (
        f"QuickLook rejection set changed: {sorted(rejected)}"
    )


def test_gi_accepts_subset_of_quicklook():
    """The guardedness theorem's empirical face on Figure 2: every
    GI-accepted example is Quick-Look-accepted."""
    gi = measured("GI")
    quicklook = measured("QuickLook")
    for ex in FIGURE2:
        if gi[ex.key]:
            assert quicklook[ex.key], f"QuickLook rejects GI-typeable {ex.key}"


def test_rankn_accepts_subset_of_quicklook_with_equal_types():
    """Quick Look is conservative over its RankN base: same acceptances
    and α-equivalent types wherever RankN succeeds."""
    rankn = SYSTEMS["RankN"]
    quicklook = SYSTEMS["QuickLook"]
    for ex in FIGURE2:
        base = rankn.run(ex.term, ENV)
        if not base.accepted:
            continue
        extended = quicklook.run(ex.term, ENV)
        assert extended.accepted, f"QuickLook rejects RankN-typeable {ex.key}"
        assert alpha_equal(
            rename_canonical(base.type_), rename_canonical(extended.type_)
        ), f"{ex.key}: RankN {base.type_} vs QuickLook {extended.type_}"


def test_measured_matrix_covers_all_backends_without_crashes():
    matrix = measured_matrix(ENV)
    assert set(matrix) == set(MEASURED_SYSTEMS)
    for name, outcomes in matrix.items():
        assert set(outcomes) == {ex.key for ex in FIGURE2}
        crashed = [key for key, out in outcomes.items() if out.crashed]
        assert not crashed, f"{name} crashed on {crashed}"
        marks = {mark_outcome(out) for out in outcomes.values()}
        assert marks <= {"✓", "No"}, f"{name} has unavailable rows"
