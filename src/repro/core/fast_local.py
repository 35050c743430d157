"""Vectorised NumPy engine and the one driver-side copy of the candidates.

``LocalContext`` is the candidate set C as the driver holds it: the pairs in
canonical ``(id1, id2)`` order, their feature matrix, the factorised
endpoints and the ground-truth label of each pair. ``prepare_dataset``
builds it once per dataset from the Arrow table of the collected feature
frame (a pandas frame takes the same path): each column is gathered by the
canonical order straight into its column of a preallocated matrix, the
entity codes are binary searches into the sorted distinct ids, and the
labels binary searches of the sorted pair keys (``match_mask``). The Spark
pipeline draws its training set from it (``sample_balanced``), block
quality is the sum of its labels, and the sweeps run on it.

The 255-combination sweeps and the figure-section grids (Tables 3/4,
Sections 5.2/5.4) need thousands of train/score/prune runs on one dataset —
far too many tiny Spark jobs to launch profitably — so each run here does
only its own work: a gather of its training columns from the draw memoised
per ``(n_per_class, seed)`` (``classifier.training``), a fit, one matrix
multiply over C, and a prune whose sorts and scatter-adds run over the
valid pairs (p >= 0.5) alone, a few thousand of |C| on the paper's data.

The Spark pruners (``core.prune_weight``, ``core.prune_cardinality``) are the
reference: tests/test_pipeline.py, tests/test_pruning.py and
tests/test_fast_local.py assert the same classifier, pruning semantics and
tie-breaking on Clean-Clean and Dirty data. Both engines share the sampler.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.classifier.logistic import fit_logistic
from repro.classifier.training import match_mask, sample_balanced
from repro.eval.metrics import Effectiveness


def _group_cumcount(codes: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its group, preserving input
    order (NumPy twin of pandas ``groupby(...).cumcount()``)."""
    idx = np.argsort(codes, kind="stable")
    sorted_codes = codes[idx]
    n = len(codes)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_codes)) + 1]
    sizes = np.diff(np.r_[starts, n])
    within = np.arange(n) - np.repeat(starts, sizes)
    out = np.empty(n, dtype=np.int64)
    out[idx] = within
    return out


class LocalContext:
    """The candidate table, labelled, in canonical ``(id1, id2)`` order."""

    def __init__(self, features, gt):
        """``features``: ``(id1, id2, *columns)`` as a pyarrow ``Table`` (the
        Arrow collect of ``prepare_dataset``) or a pandas frame, in any row
        order; ``gt``: the ground-truth ``(id1, id2)`` pairs, either kind.
        Every column is read by name with ``np.asarray``, so both kinds take
        the same path."""
        # Order by (id1, id2) and gather each column once into its place: no
        # sorted copy of the whole table. X is Fortran-ordered, the layout
        # DataFrame.to_numpy gives, so scores are bit-identical to it.
        id1, id2 = np.asarray(features["id1"]), np.asarray(features["id2"])
        order = np.lexsort((id2, id1))
        self.ids = np.stack([id1[order], id2[order]])
        self.id1, self.id2 = self.ids
        del id1, id2  # copies when read from Arrow
        # Entity codes by binary search into the sorted distinct ids: the
        # inverse np.unique gives over all 2|C| endpoints, without sorting
        # them. id1 is sorted already, so only id2 needs a sort.
        n = len(order)
        first = np.ones(n, dtype=bool)
        first[1:] = self.id1[1:] != self.id1[:-1]
        uniq = np.union1d(self.id1[first], np.unique(self.id2))
        self.n_entities = len(uniq)
        self.c1 = np.searchsorted(uniq, self.id1)
        self.c2 = np.searchsorted(uniq, self.id2)
        names = (
            features.column_names if hasattr(features, "column_names")
            else features.columns
        )
        self.columns = [c for c in names if c not in ("id1", "id2")]
        self.X = np.empty((n, len(self.columns)), dtype=np.float64, order="F")
        for j, c in enumerate(self.columns):
            # mode="clip": order is a permutation, and "raise" would buffer
            # the gather in a temporary column.
            np.take(np.asarray(features[c], dtype=np.float64), order,
                    out=self.X[:, j], mode="clip")
        del order
        self.is_match = match_mask(uniq, self.c1, self.c2, gt)
        self.n_gt = len(gt)
        #: ``(n_per_class, seed) -> (take, y)``: the sampler's row draws.
        self.draws: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def frame(self) -> pd.DataFrame:
        """The table as ``(id1, id2, *columns)``, sharing its arrays."""
        return pd.concat(
            [
                pd.DataFrame(self.ids.T, columns=["id1", "id2"], copy=False),
                pd.DataFrame(self.X, columns=self.columns, copy=False),
            ],
            axis=1,
            copy=False,
        )

    # -- training ----------------------------------------------------------
    #: The one balanced sampler (``classifier.training``), as a method.
    sample = sample_balanced

    # -- scoring -----------------------------------------------------------
    def score(self, cols: list[str], n_per_class: int, seed: int) -> np.ndarray:
        X, y = self.sample(cols, n_per_class, seed)
        model = fit_logistic(X, y, cols)
        ci = [self.columns.index(c) for c in cols]
        return model.predict_proba(self.X[:, ci])

    # -- pruning -----------------------------------------------------------
    def prune(
        self, p: np.ndarray, algorithm: str, *, K: int = 0, k: int = 1,
        r: float = 0.35,
    ) -> np.ndarray:
        """Boolean retained-mask over the context's (sorted) pair order.

        Every rule selects among the valid pairs ``vi`` (p >= 0.5): ``sel``
        indexes into ``vi``, so no pass runs over the rest of C.
        """
        vi = np.flatnonzero(p >= 0.5)
        pv, c1, c2 = p[vi], self.c1[vi], self.c2[vi]
        if algorithm == "BCl":
            sel = slice(None)
        elif algorithm == "WEP":
            sel = pv >= min(pv.mean(), pv.max()) if len(vi) else slice(None)
        elif algorithm == "BLAST":
            mx = np.zeros(self.n_entities)
            np.maximum.at(mx, c1, pv)
            np.maximum.at(mx, c2, pv)
            sel = pv >= r * (mx[c1] + mx[c2])
        elif algorithm == "CEP":
            sel = np.lexsort((self.id2[vi], self.id1[vi], -pv))[: int(K)]
        elif algorithm in ("WNP", "RWNP", "CNP", "RCNP"):
            order = np.lexsort((self.id2[vi], self.id1[vi], -pv))  # quality order
            # Each entity's neighbourhood spans both endpoint roles: on Dirty
            # ER an entity is id1 of some pairs and id2 of others.
            # Interleaving keeps the global order per entity, so CNP ranks
            # and WNP sums each neighbourhood in (p desc, id1, id2) order, as
            # the Spark window does (DESIGN.md §3).
            ends = np.stack([c1[order], c2[order]], 1).ravel()
            if algorithm in ("CNP", "RCNP"):
                top = _group_cumcount(ends) < int(k)
            else:
                pe = np.repeat(pv[order], 2)
                sums = np.bincount(ends, weights=pe, minlength=self.n_entities)
                mean = sums[ends] / np.bincount(ends, minlength=self.n_entities)[ends]
                # A float mean of equal p can round above them all; the true
                # mean never exceeds the neighbourhood's maximum (DESIGN.md §3).
                mx = np.zeros(self.n_entities)
                np.maximum.at(mx, ends, pe)
                top = pe >= np.minimum(mean, mx[ends])
            in1, in2 = top.reshape(-1, 2).T
            sel = order[(in1 & in2) if algorithm in ("RWNP", "RCNP") else (in1 | in2)]
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        keep = np.zeros(len(p), dtype=bool)
        keep[vi[sel]] = True
        return keep

    # -- end to end --------------------------------------------------------
    def run(
        self,
        algorithm: str,
        cols: list[str],
        *,
        n_train_per_class: int,
        seed: int,
        K: int = 0,
        k: int = 1,
    ) -> Effectiveness:
        p = self.score(cols, n_train_per_class, seed)
        return self.evaluate(self.prune(p, algorithm, K=K, k=k))

    def evaluate(self, keep: np.ndarray) -> Effectiveness:
        """Effectiveness of a retained-mask (twin of ``eval.metrics``)."""
        return Effectiveness(
            n_pairs=int(keep.sum()),
            n_matches_found=int((keep & self.is_match).sum()),
            n_matches_total=self.n_gt,
        )
