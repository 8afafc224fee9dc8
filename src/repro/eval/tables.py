"""Renderers for the paper's Table III, Table IV and Figure 2 (ASCII),
plus the counterfactual sufficiency/necessity/edit-size table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.sweep import FamilySweep
from repro.eval.timing import ExplainerTiming
from repro.explain.metrics import edit_size, necessity, sufficiency
from repro.gnn.model import GCNClassifier

__all__ = [
    "Table3Row",
    "CounterfactualRow",
    "build_table3",
    "build_counterfactual_table",
    "format_table3",
    "format_table4",
    "format_figure2",
    "format_counterfactual_table",
]

#: Column order shared by Table III and the counterfactual table.
EXPLAINER_ORDER: tuple[str, ...] = (
    "CFGExplainer",
    "GNNExplainer",
    "SubgraphX",
    "PGExplainer",
    "CFExplainer",
)


@dataclass(frozen=True)
class Table3Row:
    """One family's row: accuracy@10%, accuracy@20% and AUC per explainer."""

    family: str
    cells: dict[str, tuple[float, float, float]]  # explainer -> (a10, a20, auc)


def build_table3(sweeps: dict[str, dict[str, FamilySweep]]) -> list[Table3Row]:
    """Summarize Figure 2 sweeps into Table III rows plus an Average row."""
    rows = []
    for family, by_explainer in sweeps.items():
        cells = {}
        for name in EXPLAINER_ORDER:
            if name not in by_explainer:
                continue
            sweep = by_explainer[name]
            cells[name] = (
                sweep.accuracy_at(0.1),
                sweep.accuracy_at(0.2),
                sweep.auc,
            )
        rows.append(Table3Row(family, cells))

    if rows:
        averages = {}
        for name in EXPLAINER_ORDER:
            values = [row.cells[name] for row in rows if name in row.cells]
            if values:
                stacked = np.array(values)
                averages[name] = tuple(stacked.mean(axis=0))
        rows.append(Table3Row("Average", averages))
    return rows


def format_table3(rows: list[Table3Row]) -> str:
    """Render Table III as fixed-width text."""
    if not rows:
        return "(empty)"
    explainers = [name for name in rows[0].cells]
    header_parts = [f"{'Family':10s}"]
    for name in explainers:
        header_parts.append(f"{name + ' 10%/20%/AUC':>28s}")
    lines = [" | ".join(header_parts), "-" * (12 + 31 * len(explainers))]
    for row in rows:
        parts = [f"{row.family:10s}"]
        for name in explainers:
            if name in row.cells:
                a10, a20, auc = row.cells[name]
                parts.append(f"{a10:8.4f} {a20:8.4f} {auc:8.4f} ")
            else:
                parts.append(" " * 28)
        lines.append(" | ".join(parts))
    return "\n".join(lines)


@dataclass(frozen=True)
class CounterfactualRow:
    """One explainer's counterfactual scores at a fixed kept fraction."""

    explainer: str
    sufficiency: float
    necessity: float
    edit_size: float


def build_counterfactual_table(
    model: GCNClassifier,
    sweeps: dict[str, dict[str, FamilySweep]],
    fraction: float = 0.2,
) -> list[CounterfactualRow]:
    """Sufficiency / necessity / edit-size per explainer, pooled over
    every family's explanations (the CFF-style dual of Table III)."""
    rows = []
    for name in EXPLAINER_ORDER:
        explanations = [
            explanation
            for family in sweeps
            if name in sweeps[family]
            for explanation in sweeps[family][name].explanations
        ]
        if not explanations:
            continue
        rows.append(
            CounterfactualRow(
                explainer=name,
                sufficiency=sufficiency(model, explanations, fraction),
                necessity=necessity(model, explanations, fraction),
                edit_size=edit_size(explanations, fraction),
            )
        )
    return rows


def format_counterfactual_table(
    rows: list[CounterfactualRow], fraction: float = 0.2
) -> str:
    """Render the counterfactual table as fixed-width text."""
    if not rows:
        return "(empty)"
    pct = int(round(100 * fraction))
    lines = [
        f"{'Explainer':14s} | {f'Sufficiency@{pct}%':>16s} | "
        f"{f'Necessity@{pct}%':>14s} | {'Edit size':>10s}",
        "-" * 66,
    ]
    for row in rows:
        lines.append(
            f"{row.explainer:14s} | {row.sufficiency:16.4f} | "
            f"{row.necessity:14.4f} | {row.edit_size:10.4f}"
        )
    return "\n".join(lines)


def format_table4(timings: list[ExplainerTiming]) -> str:
    """Render Table IV: offline training time + per-explanation time."""
    lines = [
        f"{'Explainer':14s} | {'Offline training':>18s} | {'Single explanation':>24s}",
        "-" * 64,
    ]
    for timing in timings:
        offline = (
            f"{timing.offline_seconds:.1f} s" if timing.offline_seconds else "-"
        )
        single = f"{timing.mean_seconds:.3f} ± {timing.std_seconds:.3f} s"
        lines.append(f"{timing.explainer_name:14s} | {offline:>18s} | {single:>24s}")
    return "\n".join(lines)


def format_figure2(sweeps: dict[str, dict[str, FamilySweep]]) -> str:
    """Render every family's accuracy-vs-size series (Figure 2 as text)."""
    lines = []
    for family, by_explainer in sweeps.items():
        lines.append(f"--- {family} ---")
        any_sweep = next(iter(by_explainer.values()))
        header = "size%:  " + "  ".join(
            f"{int(f * 100):4d}" for f in any_sweep.fractions
        )
        lines.append(header)
        for name, sweep in by_explainer.items():
            series = "  ".join(f"{a:4.2f}" for a in sweep.accuracies)
            lines.append(f"{name:14s} {series}  (AUC {sweep.auc:.3f})")
        lines.append("")
    return "\n".join(lines)
