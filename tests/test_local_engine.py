"""Unit tests for the local engine (``core.fast_local.LocalContext``)."""
import numpy as np
import pandas as pd
import pytest

from repro.classifier.logistic import fit_logistic
from repro.core.fast_local import LocalContext
from repro.core.pipeline import PRUNERS


@pytest.fixture()
def feats():
    g = np.random.default_rng(0)
    n = 100
    pdf = pd.DataFrame(
        {
            "id1": np.arange(n),
            "id2": np.arange(n) + 500,
            "a": np.where(np.arange(n) < 20, 3.0, 0.5) + g.random(n) * 0.1,
            "b": g.random(n),
        }
    )
    gt = pd.DataFrame({"id1": np.arange(20), "id2": np.arange(20) + 500})
    return pdf, gt


def _n_retained(scored: pd.DataFrame, algorithm: str, **kw) -> int:
    """Pairs ``LocalContext.prune`` keeps from a scored ``(id1, id2, p)``."""
    ctx = LocalContext(scored, scored.iloc[:0])
    return int(ctx.prune(ctx.X[:, 0], algorithm, **kw).sum())


class TestScoreLocal:
    def test_matches_model_probabilities(self, feats):
        pdf, gt = feats
        ctx = LocalContext(pdf, gt)
        m = fit_logistic(*ctx.sample(["a", "b"], 10, 0), ["a", "b"])
        got = ctx.score(["a", "b"], 10, 0)
        want = m.predict_proba(pdf[["a", "b"]].to_numpy())  # already id-sorted
        np.testing.assert_allclose(got, want)


class TestPruneLocalEdgeCases:
    def test_empty_scored(self):
        empty = pd.DataFrame({"id1": [], "id2": [], "p": []})
        for algo in PRUNERS:
            assert _n_retained(empty, algo, K=5, k=2) == 0, algo

    def test_single_valid_pair_survives_everything(self):
        one = pd.DataFrame({"id1": [1], "id2": [2], "p": [0.9]})
        for algo in PRUNERS:
            assert _n_retained(one, algo, K=5, k=2) == 1, algo

    def test_cep_zero_K(self):
        one = pd.DataFrame({"id1": [1], "id2": [2], "p": [0.9]})
        assert _n_retained(one, "CEP", K=0) == 0


class TestRunMethodLocal:
    def test_deterministic(self, feats):
        pdf, gt = feats
        a = LocalContext(pdf, gt).run("BLAST", ["a", "b"], n_train_per_class=10,
                                      seed=4, K=50, k=2)
        b = LocalContext(pdf, gt).run("BLAST", ["a", "b"], n_train_per_class=10,
                                      seed=4, K=50, k=2)
        assert a == b

    def test_informative_feature_yields_high_f1(self, feats):
        pdf, gt = feats
        eff = LocalContext(pdf, gt).run("BCl", ["a"], n_train_per_class=10,
                                        seed=0, K=50, k=2)
        assert eff.f1 > 0.8

    def test_effectiveness_local_counts(self, feats):
        pdf, gt = feats
        eff = LocalContext(pdf, gt).evaluate(np.ones(len(pdf), dtype=bool))
        assert eff.n_pairs == 100
        assert eff.n_matches_found == 20
        assert eff.recall == 1.0
