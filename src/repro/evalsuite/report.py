"""Plain-text table rendering for the evaluation harness."""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import GIError
from repro.core.infer import Inferencer
from repro.evalsuite.figure2 import FIGURE2, MEASURED_SYSTEMS, figure2_env, measured_matrix

CHECK = "✓"
CROSS = "No"
UNAVAIL = "?"


def mark(accepted: bool) -> str:
    return CHECK if accepted else CROSS


def mark_outcome(outcome) -> str:
    """Render a three-valued :class:`~repro.baselines.SystemOutcome`:
    accepted, rejected, or unavailable (budget/crash — not a verdict)."""
    if outcome.accepted:
        return CHECK
    return CROSS if outcome.rejected else UNAVAIL


def render_policy_matrix(matrix, examples, systems: Sequence[str]) -> str:
    """Render the instantiation-policy grid: one acceptance table per
    policy (rows = tc211 examples, columns = policy-axis systems), in
    the grid's own order.

    ``matrix`` is :func:`repro.evalsuite.policies.policy_matrix` output:
    ``{policy-name: {system: {row-key: SystemOutcome}}}``."""
    sections = []
    for policy_name, by_system in matrix.items():
        headers = ["id", "example"] + list(systems)
        rows = []
        for example in examples:
            rows.append(
                [example.key, example.source[:40]]
                + [mark_outcome(by_system[name][example.key]) for name in systems]
            )
        sections.append(
            render_table(headers, rows, title=f"policy {policy_name}")
        )
    return "\n\n".join(sections)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    columns = len(headers)
    widths = [len(str(header)) for header in headers]
    normalized = [[str(cell) for cell in row] for row in rows]
    for row in normalized:
        if len(row) != columns:
            raise ValueError("row width does not match header")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in normalized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_figure2(show_types: bool = False, show_policies: bool = False) -> str:
    """Figure 2 of the paper: the measured columns (marked *) from the
    systems implemented here beside the paper's reference data, then GI's
    agreement count.  ``show_types`` adds the type GI infers for each
    example against the type the paper states; ``show_policies`` appends
    the tc211 instantiation-policy grid for the policy-axis backends."""
    env = figure2_env()
    measured = measured_matrix(env)
    headers = (
        ["id", "example"]
        + [f"{name}*" for name in MEASURED_SYSTEMS]
        + ["| GI", "MLF", "HMF", "FPH", "HML"]
    )
    rows = [
        [ex.key, ex.source[:34]]
        + [mark_outcome(measured[name][ex.key]) for name in MEASURED_SYSTEMS]
        + ["| " + mark(ex.expected["GI"])]
        + [mark(ex.expected[name]) for name in ("MLF", "HMF", "FPH", "HML")]
        for ex in FIGURE2
    ]
    agreements = sum(
        1 for ex in FIGURE2 if measured["GI"][ex.key].accepted == ex.expected["GI"]
    )
    lines = [
        render_table(headers, rows, title="Figure 2 — measured (*) vs paper (right of |)"),
        f"\nGI agreement with the paper: {agreements}/{len(FIGURE2)}",
    ]
    if show_types:
        lines.append("\nInferred types (GI):")
        gi = Inferencer(env)
        for ex in FIGURE2:
            try:
                inferred = str(gi.infer(ex.term).type_)
            except GIError:
                inferred = "(rejected)"
            stated = ex.gi_type or ""
            suffix = f"   [paper: {stated}]" if stated else ""
            lines.append(f"  {ex.key:4s} {ex.source[:32]:34s} : {inferred}{suffix}")
    if show_policies:
        from repro.baselines.registry import POLICY_SYSTEMS
        from repro.evalsuite.policies import TC211, policy_matrix

        lines.append(
            "\nInstantiation-policy grid — GHC tc211 corpus "
            "(T6 flips under lazy, T7 under deep):\n"
        )
        lines.append(render_policy_matrix(policy_matrix(env), TC211, POLICY_SYSTEMS))
    return "\n".join(lines)
