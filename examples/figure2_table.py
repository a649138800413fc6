#!/usr/bin/env python3
"""Regenerate Figure 2 of the paper at the terminal.

Measured columns (marked *) come from the systems implemented in this
repository; MLF/FPH/HML columns are the paper's reference data.

Run:  python examples/figure2_table.py [--types] [--policies]

With ``--types`` the table also prints the type GI infers for each
accepted example, against the type the paper states where available.
With ``--policies`` it appends the instantiation-policy grid: the
ported GHC tc211 corpus under every eager/lazy × deep/shallow policy,
for each backend with a policy axis.
"""

import sys

from repro.evalsuite.report import render_figure2


def main(show_types: bool = False, show_policies: bool = False) -> None:
    print(render_figure2(show_types=show_types, show_policies=show_policies))


if __name__ == "__main__":
    main(
        show_types="--types" in sys.argv,
        show_policies="--policies" in sys.argv,
    )
