"""The committed tables in ``results/`` match a fresh run, byte for byte.

Five tables: Figure 2 (measured columns next to the paper's), the
agreement of each measured column with its published one, the matrix of
all seven executable backends, the ablation of n-ary applications and
VarGen, and the Section 5 Stackage study.  Every cell is a verdict or a
count, so the tables are deterministic and a diff is a behaviour change.

After an intended change, regenerate all five from the repository root:

    PYTHONPATH=src python -m tests.test_results_tables
"""

from pathlib import Path

import pytest

from repro.evalsuite.figure2 import (
    FIGURE2,
    MEASURED_SYSTEMS,
    figure2_env,
    measured_matrix,
)
from repro.evalsuite.report import mark, mark_outcome, render_table

from tests.test_infer_basic import ABLATIONS, ablation_accepts

ENV = figure2_env()
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: The committed tables, by file name in ``results/``.
TABLES = (
    "figure2.txt",
    "figure2_agreement.txt",
    "backend_matrix.txt",
    "ablation.txt",
    "stackage.txt",
)

FIGURE2_MEASURED = ("GI", "HMF", "HMF-N", "HM", "RankN")
FIGURE2_REFERENCE = ("GI", "MLF", "HMF", "FPH", "HML")

STACKAGE_PAPER = {
    "packages in corpus": 2400,
    "packages using RankNTypes": 609,
    "packages needing manual changes (all η-expansions)": 75,
    "packages needing larger changes (TH-generated code)": 1,
    "packages failing for unrelated reasons": 2,
}


def figure2_table(matrix) -> str:
    headers = (
        ["id", "example"]
        + [f"{name}*" for name in FIGURE2_MEASURED]
        + [f"{name} (paper)" for name in FIGURE2_REFERENCE]
    )
    rows = [
        [ex.key, ex.source[:34]]
        + [mark(matrix[name][ex.key].accepted) for name in FIGURE2_MEASURED]
        + [mark(ex.expected[name]) for name in FIGURE2_REFERENCE]
        for ex in FIGURE2
    ]
    title = (
        "Figure 2 — measured columns (*, this implementation) vs the paper.\n"
        "MLF/FPH/HML are reference data from the paper; see EXPERIMENTS.md "
        "for the HMF variant analysis."
    )
    return render_table(headers, rows, title=title) + "\n"


def agreement_table(matrix) -> str:
    lines = []
    for name, published in (("GI", "GI"), ("HMF", "HMF"), ("HMF-N", "HMF")):
        agree = sum(
            1
            for ex in FIGURE2
            if matrix[name][ex.key].accepted == ex.expected[published]
        )
        lines.append(f"{name:6s} vs paper {published}: {agree}/{len(FIGURE2)}")
    return "\n".join(lines) + "\n"


def backend_matrix_table(matrix) -> str:
    headers = ["id", "example"] + [f"{name}*" for name in MEASURED_SYSTEMS]
    rows = [
        [ex.key, ex.source[:34]]
        + [mark_outcome(matrix[name][ex.key]) for name in MEASURED_SYSTEMS]
        for ex in FIGURE2
    ]
    title = "Backend matrix — all executable systems on Figure 2"
    return render_table(headers, rows, title=title) + "\n"


def ablation_table() -> str:
    accepts = ablation_accepts(ENV)
    headers = ["id", "example", "paper"] + list(ABLATIONS)
    rows = [
        [ex.key, ex.source[:30], mark(ex.expected["GI"])]
        + [mark(accepts[name][ex.key]) for name in ABLATIONS]
        for ex in FIGURE2
    ]
    title = "Ablation — Figure 2 GI column per configuration"
    footer = "accepted: " + "  ".join(
        f"{name}={sum(row.values())}" for name, row in accepts.items()
    )
    return render_table(headers, rows, title=title) + "\n" + footer + "\n"


def stackage_table(study) -> str:
    rows = [
        [label, measured, STACKAGE_PAPER.get(label, "—")]
        for label, measured in study.rows()
    ]
    title = (
        "Section 5 — GI compatibility study over the simulated Stackage "
        "corpus (seed 2018)"
    )
    headers = ["Section 5 quantity", "measured", "paper"]
    return render_table(headers, rows, title=title) + "\n"


def render_tables(study) -> dict[str, str]:
    """Every table of :data:`TABLES`, rendered from a fresh run."""
    matrix = measured_matrix(ENV)
    return {
        "figure2.txt": figure2_table(matrix),
        "figure2_agreement.txt": agreement_table(matrix),
        "backend_matrix.txt": backend_matrix_table(matrix),
        "ablation.txt": ablation_table(),
        "stackage.txt": stackage_table(study),
    }


@pytest.fixture(scope="module")
def tables(full_study):
    return render_tables(full_study)


def test_every_committed_table_is_checked(tables):
    assert sorted(path.name for path in RESULTS_DIR.glob("*.txt")) == sorted(TABLES)
    assert sorted(tables) == sorted(TABLES)


@pytest.mark.parametrize("name", TABLES)
def test_committed_table_matches_fresh_run(tables, name):
    committed = (RESULTS_DIR / name).read_text(encoding="utf-8")
    assert committed == tables[name]


if __name__ == "__main__":
    from repro.evalsuite.stackage import run_study

    for name, text in render_tables(run_study(seed=2018, size=2400)).items():
        (RESULTS_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote results/{name}")
