"""Tests for balanced training-set sampling: the one sampler, drawing from
the driver-side candidate table ``LocalContext``."""
import numpy as np
import pandas as pd
import pytest

from repro.classifier.training import match_mask, sample_balanced
from repro.core.fast_local import LocalContext


@pytest.fixture()
def toy():
    feats = pd.DataFrame(
        {
            "id1": [1, 1, 2, 2, 3, 3, 4, 4],
            "id2": [11, 12, 11, 12, 11, 13, 12, 13],
            "f": [0.9, 0.1, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6],
        }
    )
    gt = pd.DataFrame({"id1": [1, 2, 3], "id2": [11, 12, 13]})
    return feats, gt


def _sample(feats, gt, cols, *, n_per_class, seed):
    return sample_balanced(LocalContext(feats, gt), cols, n_per_class, seed)


def _codes(feats):
    """``(uniq, c1, c2)`` of a frame already in ``(id1, id2)`` order."""
    uniq = np.unique(feats[["id1", "id2"]])
    return uniq, np.searchsorted(uniq, feats["id1"]), np.searchsorted(uniq, feats["id2"])


class TestMatchMask:
    def test_marks_exactly_the_truth(self, toy):
        """Truth pairs outside C, with an id outside C or reversed, mark
        nothing."""
        feats, gt = toy
        gt = pd.concat([gt, pd.DataFrame({"id1": [1, 99, 4, 11], "id2": [13, 11, 14, 1]})])
        mask = match_mask(*_codes(feats), gt)
        got = feats[mask][["id1", "id2"]].apply(tuple, axis=1).tolist()
        assert sorted(got) == [(1, 11), (2, 12), (3, 13)]

    def test_empty_truth(self, toy):
        feats, _ = toy
        assert match_mask(*_codes(feats), pd.DataFrame({"id1": [], "id2": []})).sum() == 0


class TestSampleBalanced:
    def test_is_the_context_sampler(self):
        assert LocalContext.sample is sample_balanced

    def test_balance(self, toy):
        feats, gt = toy
        X, y = _sample(feats, gt, ["f"], n_per_class=2, seed=0)
        assert X.shape == (4, 1)
        assert y.sum() == 2 and len(y) == 4

    def test_labels_are_correct(self, toy):
        """Sampled positives must carry feature values of true matches."""
        feats, gt = toy
        X, y = _sample(feats, gt, ["f"], n_per_class=3, seed=1)
        pos_fs = {0.9, 0.8, 0.7}  # f values of the three matches
        assert set(X[y == 1, 0]) <= pos_fs

    def test_takes_all_when_class_too_small(self, toy):
        feats, gt = toy
        X, y = _sample(feats, gt, ["f"], n_per_class=100, seed=0)
        assert y.sum() == 3 and (y == 0).sum() == 5

    def test_deterministic_in_seed(self, toy):
        feats, gt = toy
        a = _sample(feats, gt, ["f"], n_per_class=2, seed=7)
        b = _sample(feats, gt, ["f"], n_per_class=2, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_row_order_invariance(self, toy):
        """The sample depends on (id1,id2) and seed, not input row order."""
        feats, gt = toy
        shuffled = feats.sample(frac=1.0, random_state=3)
        a = _sample(feats, gt, ["f"], n_per_class=2, seed=5)
        b = _sample(shuffled, gt, ["f"], n_per_class=2, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_different_seeds_eventually_differ(self, toy):
        feats, gt = toy
        draws = {
            tuple(_sample(feats, gt, ["f"], n_per_class=2, seed=s)[0].ravel())
            for s in range(6)
        }
        assert len(draws) > 1

    def test_empty_positive_class(self, toy):
        """Ground truth disjoint from the candidates: negatives only."""
        feats, _ = toy
        gt = pd.DataFrame({"id1": [99], "id2": [999]})
        X, y = _sample(feats, gt, ["f"], n_per_class=3, seed=0)
        assert X.shape == (3, 1) and not y.any()

    def test_fortran_order(self, toy):
        """The logistic fit's column sums round by memory layout; published
        models were fitted on Fortran-ordered samples."""
        feats, gt = toy
        feats = feats.assign(g=feats["f"] * 2)
        X, _ = _sample(feats, gt, ["f", "g"], n_per_class=2, seed=0)
        assert X.flags.f_contiguous


class TestDrawMemo:
    """The row draw depends only on ``(n_per_class, seed)``: it is made once
    per pair on the table and reused by every column set."""

    def test_repeat_call_equals_fresh_table(self, toy):
        feats, gt = toy
        feats = feats.assign(g=feats["f"] * 2)
        ctx = LocalContext(feats, gt)
        ctx.sample(["f"], 2, 4)
        ctx.sample(["g", "f"], 2, 4)
        got = ctx.sample(["g"], 2, 4)
        want = LocalContext(feats, gt).sample(["g"], 2, 4)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[0].flags.f_contiguous

    def test_one_entry_per_size_and_seed(self, toy):
        feats, gt = toy
        ctx = LocalContext(feats, gt)
        for n, seed in [(2, 0), (2, 0), (3, 0), (2, 1), (2, 1)]:
            ctx.sample(["f"], n, seed)
        assert set(ctx.draws) == {(2, 0), (3, 0), (2, 1)}
        takes = {k: tuple(take) for k, (take, _) in ctx.draws.items()}
        assert takes[(2, 0)] != takes[(3, 0)]
        assert len(set(takes.values())) == 3

    def test_cached_arrays_are_read_only(self, toy):
        feats, gt = toy
        ctx = LocalContext(feats, gt)
        _, y = ctx.sample(["f"], 2, 0)
        (take, y_memo), = ctx.draws.values()
        assert y is y_memo
        for a in (take, y_memo):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
