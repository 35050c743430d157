"""Tests for the 255-combination feature-set enumeration and sweep."""
import pandas as pd
import pytest

from repro.core.sweep import (
    enumerate_feature_sets,
    feature_set_id,
    sweep_dataset,
    top_feature_sets,
)
from repro.features.schemes import FEATURE_NAMES


class TestEnumeration:
    def test_255_sets(self):
        sets = enumerate_feature_sets()
        assert len(sets) == 255
        assert len({fid for fid, _ in sets}) == 255

    def test_ordered_by_size_then_lex(self):
        sets = enumerate_feature_sets()
        sizes = [len(c) for _, c in sets]
        assert sizes == sorted(sizes)
        assert sets[0] == (1, ("CF-IBF",))
        assert sets[-1][1] == tuple(FEATURE_NAMES)

    def test_singletons_first_eight(self):
        sets = enumerate_feature_sets()
        assert [c for _, c in sets[:8]] == [(n,) for n in FEATURE_NAMES]

    def test_feature_set_id_roundtrip(self):
        for fid, combo in enumerate_feature_sets()[::37]:
            assert feature_set_id(combo) == fid

    def test_feature_set_id_is_order_insensitive(self):
        fid1 = feature_set_id(("RS", "CF-IBF"))
        fid2 = feature_set_id(("CF-IBF", "RS"))
        assert fid1 == fid2

    def test_unknown_set_raises(self):
        with pytest.raises(KeyError):
            feature_set_id(("NOT-A-FEATURE",))


def _toy_features(n=200, seed=0):
    """Tiny synthetic feature frame where cf_ibf separates the classes."""
    import numpy as np

    g = np.random.default_rng(seed)
    n_pos = 40
    pdf = pd.DataFrame(
        {
            "id1": np.arange(n),
            "id2": np.arange(n) + 1000,
            "cf_ibf": np.where(np.arange(n) < n_pos, 5.0, 1.0) + g.random(n),
            "raccb": g.random(n),
            "js": g.random(n),
            "lcp_1": g.integers(1, 5, n).astype(float),
            "lcp_2": g.integers(1, 5, n).astype(float),
            "ejs": g.random(n),
            "wjs": g.random(n),
            "rs": g.random(n),
            "nrs": g.random(n),
        }
    )
    gt = pd.DataFrame({"id1": np.arange(n_pos), "id2": np.arange(n_pos) + 1000})
    return pdf, gt


class TestSweep:
    def test_sweep_subset_of_sets(self):
        feats, gt = _toy_features()
        sets = enumerate_feature_sets()[:5]
        out = sweep_dataset(
            feats, gt, "BCl", n_train_per_class=10, seeds=[0, 1],
            feature_sets=sets,
        )
        assert len(out) == 5
        assert set(out.columns) == {"fid", "features", "recall", "precision", "f1"}
        assert out["f1"].between(0, 1).all()

    def test_draws_once_per_seed(self, monkeypatch):
        """Ten feature sets x two seeds: one training draw per seed."""
        import numpy as np

        from repro.core.fast_local import LocalContext

        feats, gt = _toy_features()
        seeds, rng = [], np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        ctx = LocalContext(feats, gt)
        sweep_dataset(
            feats, gt, "BCl", n_train_per_class=10, seeds=[5, 6],
            feature_sets=enumerate_feature_sets()[:10], context=ctx,
        )
        assert sorted(seeds) == [5, 6]
        assert set(ctx.draws) == {(10, 5), (10, 6)}

    def test_informative_feature_beats_noise(self):
        feats, gt = _toy_features()
        out = sweep_dataset(
            feats, gt, "BCl", n_train_per_class=15, seeds=[0],
            feature_sets=[(1, ("CF-IBF",)), (3, ("JS",))],
        )
        by = out.set_index("fid")["f1"]
        assert by[1] > by[3]

    def test_top_feature_sets_averages_across_datasets(self):
        a = pd.DataFrame(
            {"fid": [1, 2], "features": ["A", "B"], "recall": [1.0, 0.0],
             "precision": [1.0, 0.0], "f1": [1.0, 0.0]}
        )
        b = pd.DataFrame(
            {"fid": [1, 2], "features": ["A", "B"], "recall": [0.0, 1.0],
             "precision": [0.0, 1.0], "f1": [0.4, 1.0]}
        )
        top = top_feature_sets([a, b], n=1)
        assert top.loc[0, "fid"] == 1  # mean f1 .7 vs .5
        assert top.loc[0, "f1"] == pytest.approx(0.7)
