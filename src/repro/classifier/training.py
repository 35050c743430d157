"""Balanced training-set sampling (undersampling, paper Sections 1.1/5.1).

Positives are candidate pairs present in the ground truth; negatives are the
rest. ``match_mask`` labels the candidates, once per dataset, when
``core.fast_local.LocalContext`` builds the driver-side candidate table: the
pairs are held in ``(c1, c2)`` entity-code order, so their keys
``c1·|E| + c2`` are sorted and each ground-truth pair is found by one binary
search (no hash index over C).
``sample_balanced`` is the one sampler: it draws ``n_per_class`` of each
class from that table, deterministically in ``seed`` (rows in canonical
``(id1, id2)`` order, shuffled by a seeded NumPy permutation). The Spark
pipeline calls it as ``core.pipeline.sample_balanced`` and the NumPy engine
as ``LocalContext.sample``, so both engines train on the same labelled rows.

The draw — which rows, with which labels — depends only on
``(n_per_class, seed)``, not on the feature columns, so it is made once per
pair and memoised on the table (``LocalContext.draws``); each call only
gathers its columns. A 255-set sweep draws once per seed, not 255 times.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.fast_local import LocalContext


def match_mask(
    uniq: np.ndarray, c1: np.ndarray, c2: np.ndarray, gt
) -> np.ndarray:
    """Boolean mask: is each candidate pair in the truth ``gt``?

    The candidates are distinct pairs of entity codes ``(c1, c2)`` into
    ``uniq``, the sorted distinct entity ids, in ``(c1, c2)`` order, so the
    key ``c1·|E| + c2`` is sorted. ``gt`` is any table with ``id1`` and
    ``id2`` columns (pandas or pyarrow); a truth pair with an id outside
    ``uniq`` is not a candidate.
    """
    n_e = len(uniq)
    key = c1 * n_e + c2
    codes, known = [], np.ones(len(gt), dtype=bool)
    for c in ("id1", "id2"):
        ids = np.asarray(gt[c])
        lo = np.searchsorted(uniq, ids, side="left")
        known &= np.searchsorted(uniq, ids, side="right") > lo
        codes.append(lo)
    gkey = codes[0][known] * n_e + codes[1][known]
    at = np.searchsorted(key, gkey)
    hit = at < len(key)
    hit[hit] = key[at[hit]] == gkey[hit]
    mask = np.zeros(len(key), dtype=bool)
    mask[at[hit]] = True
    return mask


def _draw(
    table: LocalContext, n_per_class: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows and labels ``(take, y)`` of one balanced draw, made once per
    ``(n_per_class, seed)`` and kept read-only in ``table.draws``."""
    n = int(n_per_class)
    key = (n, seed)
    if key not in table.draws:
        g = np.random.default_rng(seed)
        pos_idx = np.flatnonzero(table.is_match)
        neg_idx = np.flatnonzero(~table.is_match)
        pos_take = pos_idx[g.permutation(len(pos_idx))[:n]]
        neg_take = neg_idx[g.permutation(len(neg_idx))[:n]]
        take = np.concatenate([pos_take, neg_take])
        y = np.concatenate(
            [np.ones(len(pos_take)), np.zeros(len(neg_take))]
        )
        take.flags.writeable = y.flags.writeable = False
        table.draws[key] = take, y
    return table.draws[key]


def sample_balanced(
    table: LocalContext, cols: list[str], n_per_class: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labelled sample ``(X, y)`` over ``cols``, positives first.

    If a class has fewer than ``n_per_class`` members, all are taken (the
    paper's smallest datasets behave the same way under its 5% rule). The
    row draw is memoised per ``(n_per_class, seed)`` (``_draw``); ``y`` is
    the memo's read-only array, ``X`` a fresh gather of ``cols``.
    """
    take, y = _draw(table, n_per_class, seed)
    ci = [table.columns.index(c) for c in cols]
    # Fortran order: fit_logistic's column sums round by memory layout, and
    # this is the layout the published Spark models (Table 6) trained on.
    return np.asfortranarray(table.X[np.ix_(take, ci)]), y
