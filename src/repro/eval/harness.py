"""Experiment-harness vocabulary: labelled method configurations and a
minimal markdown renderer (no external tabulate dependency).

The (dataset x method x seed) grids themselves live in ``eval.tables``.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd


@dataclass(frozen=True)
class MethodSpec:
    """One labelled method configuration (algorithm + features + training).

    ``n_train_per_class < 0`` selects the [21] rule: 5% of the positive
    class, balanced (the BCl2/CNP2 baselines).
    """

    label: str
    algorithm: str
    feature_set: tuple[str, ...]
    n_train_per_class: int


def to_markdown(df: pd.DataFrame, *, floatfmt: str = "%.4f") -> str:
    """Small GFM table renderer (tabulate is not installed offline)."""
    cols = list(df.columns)
    def fmt(v):
        if isinstance(v, float):
            return floatfmt % v
        return str(v)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    # Column-wise iteration: .iterrows() would upcast mixed-dtype rows and
    # render integers as floats.
    for vals in zip(*[df[c].tolist() for c in cols]):
        lines.append("| " + " | ".join(fmt(v) for v in vals) + " |")
    return "\n".join(lines)
