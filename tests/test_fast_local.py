"""Equivalence tests for the vectorised sweep engine (core.fast_local).

``LocalContext`` must reproduce the Spark pruners exactly — same pruning
semantics and tie-breaking — for every algorithm and several seeds, on real
pipeline features. It is also the table the Spark pipeline samples from, so
its constructor must give the same arrays whatever the input row order.
End-to-end runs against the Spark pipeline, on Clean-Clean and Dirty data,
are in tests/test_pipeline.py.
"""
import numpy as np
import pandas as pd
import pytest

import repro.core
from repro.classifier.logistic import fit_logistic
from repro.core.fast_local import LocalContext, _group_cumcount
from repro.core.pipeline import FEATURES_21, PRUNERS, prepare_dataset, run_method
from repro.er_data.generator import ERConfig, clean_clean, to_spark
from repro.features.schemes import columns_for


@pytest.fixture(scope="module")
def arts(spark):
    ent, gt = clean_clean(
        ERConfig(n_matches=70, n_only1=20, n_only2=25, vocab_size=700, seed=55)
    )
    return prepare_dataset(
        spark, "fl", to_spark(spark, ent), to_spark(spark, gt), "clean"
    )


@pytest.fixture(scope="module")
def dataset(arts):
    return arts.features_pdf, arts.gt_pdf, arts.gstats


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

    def test_sampler_identical_to_shared_sampler(self, arts):
        """A Spark run trains on the context's own sample: its model is the
        one fitted to ``arts.context.sample``, bit for bit."""
        cols = columns_for(FEATURES_21)
        res = run_method(arts, "BCl", feature_set=FEATURES_21,
                         n_train_per_class=12, seed=9)
        want = fit_logistic(*arts.context.sample(cols, 12, 9), cols)
        np.testing.assert_array_equal(res.model.coef, want.coef)
        assert res.model.intercept == want.intercept

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


class TestConstructor:
    @staticmethod
    def _arrays(ctx):
        return ctx.X, ctx.id1, ctx.id2, ctx.is_match

    @pytest.mark.parametrize("random_state", [0, 7])
    def test_row_order_invariant(self, dataset, random_state):
        """A shuffled input gives the same table, bit for bit, as the
        canonical one; X keeps ``DataFrame.to_numpy``'s Fortran layout."""
        pdf, gt, _ = dataset
        ref = LocalContext(pdf, gt)
        got = LocalContext(pdf.sample(frac=1.0, random_state=random_state), gt)
        for a, b in zip(self._arrays(ref), self._arrays(got)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.X.flags.f_contiguous

    def test_matrix_is_the_sorted_frame(self, dataset):
        """X equals the float64 matrix of the (id1, id2)-sorted frame."""
        pdf, gt, _ = dataset
        ctx = LocalContext(pdf.sample(frac=1.0, random_state=3), gt)
        ordered = pdf.sort_values(["id1", "id2"])
        want = ordered[ctx.columns].to_numpy(dtype=np.float64)
        assert want.tobytes() == ctx.X.tobytes()
        assert (ordered["id1"].to_numpy() == ctx.id1).all()

    def test_frame_shares_the_arrays(self, arts):
        f = arts.features_pdf
        assert list(f.columns) == ["id1", "id2", *arts.context.columns]
        assert np.shares_memory(f[arts.context.columns[0]].to_numpy(), arts.context.X)
        assert np.shares_memory(f["id1"].to_numpy(), arts.context.ids)
