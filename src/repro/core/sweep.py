"""Brute-force feature-set sweep (paper Section 5.3, Tables 3 & 4).

Enumerates all 255 non-empty subsets of the 8 features. The paper's own ID
scheme is undocumented (and inconsistent between its Tables 3 and 4), so we
use a canonical enumeration — subsets ordered by (size, lexicographic over
[CF-IBF, RACCB, JS, LCP, EJS, WJS, RS, NRS]) with IDs 1..255 — and always
report feature names next to IDs (DESIGN.md §4.5).
"""
from __future__ import annotations

from itertools import combinations

import pandas as pd

from repro.core.fast_local import LocalContext
from repro.features.schemes import FEATURE_NAMES, columns_for


def enumerate_feature_sets() -> list[tuple[int, tuple[str, ...]]]:
    """All 255 non-empty feature subsets with canonical IDs."""
    out: list[tuple[int, tuple[str, ...]]] = []
    fid = 0
    for size in range(1, len(FEATURE_NAMES) + 1):
        for combo in combinations(FEATURE_NAMES, size):
            fid += 1
            out.append((fid, combo))
    return out


def feature_set_id(feature_set: tuple[str, ...]) -> int:
    """Canonical ID of one feature set."""
    canon = tuple(n for n in FEATURE_NAMES if n in feature_set)
    for fid, combo in enumerate_feature_sets():
        if combo == canon:
            return fid
    raise KeyError(feature_set)


def sweep_dataset(
    features: pd.DataFrame,
    gt: pd.DataFrame,
    algorithm: str,
    *,
    n_train_per_class: int,
    seeds: list[int],
    K: int = 0,
    k: int = 1,
    feature_sets: list[tuple[int, tuple[str, ...]]] | None = None,
    context: LocalContext | None = None,
) -> pd.DataFrame:
    """Run every feature set on one dataset; rows averaged over ``seeds``.

    Returns columns: ``fid, features, recall, precision, f1``. Runs on the
    vectorised ``LocalContext`` engine (equivalence-tested against the
    Spark pruners and the Spark pipeline): ``context`` (pass
    ``DatasetArtifacts.context``) or, without it, one built from the frames.
    """
    ctx = context if context is not None else LocalContext(features, gt)
    rows = []
    for fid, combo in feature_sets or enumerate_feature_sets():
        cols = columns_for(list(combo))
        effs = [
            ctx.run(
                algorithm, cols,
                n_train_per_class=n_train_per_class, seed=s, K=K, k=k,
            )
            for s in seeds
        ]
        rows.append(
            {
                "fid": fid,
                "features": ", ".join(combo),
                "recall": sum(e.recall for e in effs) / len(effs),
                "precision": sum(e.precision for e in effs) / len(effs),
                "f1": sum(e.f1 for e in effs) / len(effs),
            }
        )
    return pd.DataFrame(rows)


def top_feature_sets(per_dataset: list[pd.DataFrame], n: int = 10) -> pd.DataFrame:
    """Average the per-dataset sweeps and return the top-``n`` by F1."""
    merged = (
        pd.concat(per_dataset)
        .groupby(["fid", "features"], as_index=False)[["recall", "precision", "f1"]]
        .mean()
    )
    return merged.sort_values("f1", ascending=False).head(n).reset_index(drop=True)
