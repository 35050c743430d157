"""Equivalence tests for the vectorised sweep engine (core.fast_local).

``LocalContext`` must reproduce the Spark pruners exactly — same pruning
semantics and tie-breaking — for every algorithm and several seeds, on real
pipeline features. It is also the table the Spark pipeline samples from, so
its constructor must give the same arrays whatever the input row order.
End-to-end runs against the Spark pipeline, on Clean-Clean and Dirty data,
are in tests/test_pipeline.py.
"""
import tracemalloc

import numpy as np
import pandas as pd
import pyarrow as pa
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


def _spark_kept(scored, algo, K, k) -> set:
    """Pairs the Spark pruner ``algo`` keeps from a scored Spark frame."""
    kw = {"CEP": {"K": K}, "CNP": {"k": k}, "RCNP": {"k": k}}.get(algo, {})
    ref = getattr(repro.core, algo.lower())(scored, **kw).collect()
    return {(r["id1"], r["id2"]) for r in ref}


def _both_engines(spark, ctx, p, algo, K, k):
    """Pairs ``LocalContext.prune`` and the Spark pruner keep from ``p``."""
    keep = ctx.prune(p, algo, K=K, k=k)
    scored = spark.createDataFrame(
        pd.DataFrame({"id1": ctx.id1, "id2": ctx.id2, "p": p})
    )
    local = set(zip(ctx.id1[keep].tolist(), ctx.id2[keep].tolist()))
    return local, _spark_kept(scored, algo, K, k)


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


def _pairs(shape: str, n_pairs: int, seed: int) -> pd.DataFrame:
    """Distinct ``(id1, id2)`` pairs with three float features, shuffled.
    Clean-Clean draws ``id2`` from its own id range; Dirty draws one id space
    with ``id1 < id2``, so most entities are ``id1`` of some pairs and
    ``id2`` of others."""
    g = np.random.default_rng(seed)
    a, b = g.integers(0, 60, n_pairs), g.integers(0, 60, n_pairs)
    if shape == "clean":
        a, b = a * 3, b * 5 + 1000
    else:
        a, b = np.minimum(a, b) * 7, np.maximum(a, b) * 7
    pdf = pd.DataFrame({"id1": a, "id2": b}).query("id1 != id2")
    pdf = pdf.drop_duplicates().sample(frac=1.0, random_state=seed)
    for c in ("f", "g", "h"):
        pdf[c] = g.random(len(pdf))
    return pdf.reset_index(drop=True)


def _truth(pdf: pd.DataFrame, seed: int) -> pd.DataFrame:
    """Some pairs of C, plus pairs over ids of C that are not in C (reversed
    pairs among them) and pairs with an id absent from C. Two of those put
    an absent id one below an id of C (ids of C are multiples of 3, 5 or 7)
    beside the partner it has in C, so a search that takes an absent id for
    its neighbour marks a pair outside the truth."""
    inside = pdf.sample(min(len(pdf), 15), random_state=seed)
    u, v = (pdf.drop(inside.index)[c].to_numpy() for c in ("id1", "id2"))
    outside = pd.DataFrame({
        "id1": [v[0], u.min(), -5, u[0], 10**9, u[1], u[2] - 1],
        "id2": [u[0], u.max(), v[0], 10**9, 10**9 + 1, v[1] - 1, v[2]],
    })
    return pd.concat([inside[["id1", "id2"]], outside], ignore_index=True)


def _reference(pdf: pd.DataFrame, gt: pd.DataFrame) -> dict:
    """The context's arrays as the pandas path computed them: a sorted copy,
    ``np.unique``'s inverse over both endpoint columns and MultiIndex labels."""
    s = pdf.sort_values(["id1", "id2"])
    ids = np.stack([s["id1"].to_numpy(), s["id2"].to_numpy()])
    uniq, codes = np.unique(ids, return_inverse=True)
    truth = pd.MultiIndex.from_frame(gt[["id1", "id2"]].astype("int64"))
    return {
        "X": np.asfortranarray(s[["f", "g", "h"]].to_numpy(dtype=np.float64)),
        "ids": ids,
        "c1": codes[: len(s)],
        "c2": codes[len(s):],
        "is_match": pd.MultiIndex.from_frame(s[["id1", "id2"]]).isin(truth),
        "n_entities": len(uniq),
    }


def _arrow(pdf: pd.DataFrame, chunk: int) -> pa.Table:
    """``pdf`` as an Arrow table of ``chunk``-row batches."""
    table = pa.Table.from_pandas(pdf, preserve_index=False)
    return pa.Table.from_batches(table.to_batches(max_chunksize=chunk), table.schema)


def _case(name: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Candidate frame and ground truth of one constructor case."""
    if name in ("clean", "dirty"):
        pdf = _pairs(name, 300, 1)
        return pdf, _truth(pdf, 1)
    if name == "empty-truth":
        return _pairs("dirty", 200, 3), pd.DataFrame({"id1": [], "id2": []}, dtype="int64")
    # |C| = 1, its pair in the truth and reversed.
    pdf = pd.DataFrame({"id1": [4], "id2": [9], "f": [0.5], "g": [0.25], "h": [1.0]})
    return pdf, pd.DataFrame({"id1": [4, 9], "id2": [9, 4]})


class TestArrowConstructor:
    """``prepare_dataset`` hands the context an Arrow table, perfbench and
    the tests a pandas frame: both must give the same table, bit for bit,
    as the sorted-copy / ``np.unique`` / MultiIndex construction."""

    @pytest.mark.parametrize("case", ["clean", "dirty", "empty-truth", "one-pair"])
    def test_arrow_pandas_and_reference_agree(self, case):
        pdf, gt = _case(case)
        want = _reference(pdf, gt)
        table = _arrow(pdf, chunk=37)
        assert len(pdf) <= 37 or table["f"].num_chunks > 1
        built = {
            "pandas": LocalContext(pdf, gt),
            "arrow": LocalContext(table, gt),
            "arrow+arrow-truth": LocalContext(table, _arrow(gt, chunk=4)),
        }
        for how, ctx in built.items():
            assert ctx.n_entities == want["n_entities"], how
            assert ctx.columns == ["f", "g", "h"], how
            assert ctx.X.flags.f_contiguous, how
            for name in ("X", "ids", "c1", "c2", "is_match"):
                got, ref = getattr(ctx, name), want[name]
                assert got.dtype == ref.dtype, (how, name)
                assert got.shape == ref.shape, (how, name)
                assert got.tobytes() == ref.tobytes(), (how, name)
        if case != "empty-truth":
            assert 0 < want["is_match"].sum() < len(gt)
        if case == "dirty":  # entities on both sides of their pairs
            assert len(np.intersect1d(pdf["id1"], pdf["id2"])) > 10

    @pytest.mark.parametrize("kind", ["pandas", "arrow"])
    def test_peak_memory_near_the_table(self, kind):
        """Building the context allocates little beyond its own arrays: no
        sorted copy of the frame, no 2|C|-endpoint sort, no pair index."""
        g = np.random.default_rng(5)
        n = 240_000
        a, b = g.integers(0, 40_000, n), g.integers(0, 40_000, n)
        pdf = pd.DataFrame({"id1": np.minimum(a, b), "id2": np.maximum(a, b)})
        pdf = pdf.query("id1 != id2").drop_duplicates().reset_index(drop=True)
        for j in range(9):
            pdf[f"x{j}"] = g.random(len(pdf))
        gt = pdf.sample(2000, random_state=1)[["id1", "id2"]]
        assert len(pdf) >= 200_000
        features = pdf if kind == "pandas" else _arrow(pdf, chunk=50_000)
        tracemalloc.start()
        try:
            ctx = LocalContext(features, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        own = sum(a.nbytes for a in (ctx.X, ctx.ids, ctx.c1, ctx.c2, ctx.is_match))
        assert peak <= 1.3 * own
