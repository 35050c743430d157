"""Balanced training-set sampling (undersampling, paper Sections 1.1/5.1).

Positives are candidate pairs present in the ground truth; negatives are the
rest. ``sample_balanced`` draws ``n_per_class`` of each, deterministically in
``seed``: candidates are ordered by ``(id1, id2)`` and shuffled by a seeded
NumPy permutation. The Spark pipeline (which collects the feature frame once
per dataset — at most a few hundred thousand rows here) calls
``sample_balanced``; the NumPy engine (``core.fast_local``) keeps the same
order and calls ``balanced_indices``, so the two engines train on
*identical* labelled sets.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def match_mask(pairs: pd.DataFrame, gt: pd.DataFrame) -> np.ndarray:
    """Boolean mask: is each (id1, id2) row of ``pairs`` in the truth?"""
    key = pd.MultiIndex.from_frame(gt[["id1", "id2"]])
    return pd.MultiIndex.from_frame(pairs[["id1", "id2"]]).isin(key)


def sort_pairs(features: pd.DataFrame) -> pd.DataFrame:
    """The sampler's canonical row order: stable sort by ``(id1, id2)``."""
    return features.sort_values(["id1", "id2"], kind="mergesort").reset_index(
        drop=True
    )


def balanced_indices(
    is_pos: np.ndarray, n_per_class: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices ``take`` (positives first) and labels ``y`` of the
    balanced sample over rows in canonical order.

    If a class has fewer than ``n_per_class`` members, all are taken (the
    paper's smallest datasets behave the same way under its 5% rule).
    """
    g = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(is_pos)
    neg_idx = np.flatnonzero(~is_pos)
    pos_take = pos_idx[g.permutation(len(pos_idx))[: int(n_per_class)]]
    neg_take = neg_idx[g.permutation(len(neg_idx))[: int(n_per_class)]]
    take = np.concatenate([pos_take, neg_take])
    y = np.concatenate(
        [np.ones(len(pos_take)), np.zeros(len(neg_take))]
    )
    return take, y


def sample_balanced(
    features: pd.DataFrame,
    gt: pd.DataFrame,
    cols: list[str],
    *,
    n_per_class: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labelled sample ``(X, y)`` over ``cols``."""
    ordered = sort_pairs(features)
    take, y = balanced_indices(match_mask(ordered, gt), n_per_class, seed)
    X = ordered.iloc[take][cols].to_numpy(dtype=np.float64)
    return X, y
