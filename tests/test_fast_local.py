"""Equivalence tests for the vectorised sweep engine (core.fast_local).

``LocalContext`` must reproduce the Spark pruners exactly — same pruning
semantics and tie-breaking — for every algorithm and several seeds, on real
pipeline features, and must sample exactly like the shared sampler.
End-to-end runs against the Spark pipeline, on Clean-Clean and Dirty data,
are in tests/test_pipeline.py.
"""
import numpy as np
import pandas as pd
import pytest

import repro.core
from repro.blocking import build_blocks
from repro.core.fast_local import LocalContext, _group_cumcount
from repro.core.pipeline import PRUNERS
from repro.er_data.generator import ERConfig, clean_clean, to_spark
from repro.features import compute_features
from repro.features.schemes import columns_for


@pytest.fixture(scope="module")
def dataset(spark):
    ent, gt = clean_clean(
        ERConfig(n_matches=70, n_only1=20, n_only2=25, vocab_size=700, seed=55)
    )
    coll = build_blocks(to_spark(spark, ent), "clean")
    feats, gstats = compute_features(coll)
    pdf = feats.toPandas()
    return pdf, gt, gstats


class TestGroupCumcount:
    def test_matches_pandas(self):
        g = np.random.default_rng(1)
        codes = g.integers(0, 10, 500)
        want = pd.Series(codes).groupby(codes).cumcount().to_numpy()
        np.testing.assert_array_equal(_group_cumcount(codes), want)

    def test_empty(self):
        assert len(_group_cumcount(np.array([], dtype=int))) == 0


def _both_engines(spark, ctx, p, algo, K, k):
    """Pairs ``LocalContext.prune`` and the Spark pruner keep from ``p``."""
    keep = ctx.prune(p, algo, K=K, k=k)
    scored = spark.createDataFrame(
        pd.DataFrame({"id1": ctx.id1, "id2": ctx.id2, "p": p})
    )
    kw = {"CEP": {"K": K}, "CNP": {"k": k}, "RCNP": {"k": k}}.get(algo, {})
    ref = getattr(repro.core, algo.lower())(scored, **kw).collect()
    local = set(zip(ctx.id1[keep].tolist(), ctx.id2[keep].tolist()))
    return local, {(r["id1"], r["id2"]) for r in ref}


class TestContextEquivalence:
    @pytest.mark.parametrize("algo", PRUNERS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_spark_pruners(self, spark, dataset, algo, seed):
        """Reference: the Spark pruner run on the probabilities
        ``LocalContext.score`` computed; the retained pair sets must match."""
        pdf, gt, gstats = dataset
        ctx = LocalContext(pdf, gt)
        p = ctx.score(columns_for(("CF-IBF", "RACCB", "JS", "LCP")), 15, seed)
        local, ref = _both_engines(spark, ctx, p, algo, gstats.sum_block_sizes // 2, 3)
        assert local == ref

    def test_partition_count_invariant(self, spark, dataset, shuffle_partitions):
        """Every rule keeps the same set on both engines whatever the
        shuffle-partition count."""
        pdf, gt, gstats = dataset
        ctx = LocalContext(pdf, gt)
        p = ctx.score(columns_for(("CF-IBF", "RACCB", "RS", "NRS")), 15, 1)
        for algo in PRUNERS:
            local, ref = _both_engines(spark, ctx, p, algo, gstats.sum_block_sizes // 2, 3)
            assert local == ref, algo

    def test_sampler_identical_to_shared_sampler(self, dataset):
        from repro.classifier.training import sample_balanced

        pdf, gt, _ = dataset
        ctx = LocalContext(pdf, gt)
        cols = ["cf_ibf", "js"]
        Xa, ya = ctx.sample(cols, 12, 9)
        Xb, yb = sample_balanced(pdf, gt, cols, n_per_class=12, seed=9)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_unknown_algorithm(self, dataset):
        pdf, gt, _ = dataset
        ctx = LocalContext(pdf, gt)
        with pytest.raises(ValueError):
            ctx.prune(np.full(len(pdf), 0.7), "NOPE")

    def test_prune_masks_respect_validity(self, dataset):
        pdf, gt, _ = dataset
        ctx = LocalContext(pdf, gt)
        g = np.random.default_rng(2)
        p = g.random(len(pdf))
        for algo in PRUNERS:
            keep = ctx.prune(p, algo, K=100, k=2)
            assert not (keep & (p < 0.5)).any(), algo
