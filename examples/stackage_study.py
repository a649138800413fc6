#!/usr/bin/env python3
"""Rerun the Section 5 compatibility study (simulated Stackage corpus).

Run:  python examples/stackage_study.py [size]

``size`` defaults to 600 for a quick run; ``tests/test_stackage.py`` runs
the full 2,400-package corpus.  The analysis is real — every declaration
goes through the GI checker, failures are mechanically repaired and
re-checked — only the corpus itself is synthetic (see DESIGN.md).
"""

import sys

from repro.evalsuite.report import render_table
from repro.evalsuite.stackage import Verdict, run_study


def main(size: int = 600) -> None:
    print(f"checking {size} synthetic packages with the GI checker ...")
    study = run_study(seed=2018, size=size)

    print()
    print(render_table(
        ["quantity", "count"],
        study.rows(),
        title=f"Section 5 study at corpus size {size} "
        f"(paper: 2400 / 609 / 75 / 1 / 2)",
    ))

    eta_reports = [r for r in study.reports if r.verdict is Verdict.ETA]
    print("\nexample η-expansion repairs (declaration -> repaired):")
    shown = 0
    for report in eta_reports:
        for name in report.repaired:
            print(f"  {report.package.name}: {name}")
            shown += 1
            if shown >= 5:
                break
        if shown >= 5:
            break

    larger = [r for r in study.reports if r.verdict is Verdict.LARGER]
    for report in larger:
        generated = [d.name for d in report.package.declarations if d.generated]
        print(
            f"\nTemplate-Haskell-style package {report.package.name} needs "
            f"larger changes: generated declarations {generated} cannot be "
            f"η-expanded at source level."
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 600)
