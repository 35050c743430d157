"""Integration tests: full GSM pipeline on a small synthetic Clean-Clean
task, Spark-vs-local-engine end-to-end equivalence on Clean-Clean and Dirty
tasks, degenerate inputs, the qualitative behaviours the paper's evaluation
rests on, and the layer functions the benchmark (perfbench/run.py) wraps."""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

import repro.core.fast_local as fast_local
from repro.core.fast_local import LocalContext
from repro.core.pipeline import (
    FEATURES_21,
    FEATURES_BLAST,
    PRUNERS,
    prepare_dataset,
    resolve_n_train,
    run_method,
)
from repro.er_data.generator import ERConfig, clean_clean, dirty, to_spark
from repro.features.schemes import columns_for


@pytest.fixture(scope="module")
def arts(spark):
    ent, gt = clean_clean(
        ERConfig(n_matches=60, n_only1=15, n_only2=15, vocab_size=700, seed=42)
    )
    return prepare_dataset(
        spark, "it", to_spark(spark, ent), to_spark(spark, gt), "clean"
    )


def _run_all(arts):
    return {
        algo: run_method(
            arts, algo, feature_set=FEATURES_21, n_train_per_class=20, seed=3
        )
        for algo in PRUNERS
    }


@pytest.fixture(scope="module")
def results(arts):
    return _run_all(arts)


@pytest.fixture(scope="module")
def dirty_arts(spark):
    ent, gt = dirty(ERConfig(n_matches=40, n_only1=40, vocab_size=600, seed=1))
    return prepare_dataset(
        spark, "it-dirty", to_spark(spark, ent), to_spark(spark, gt), "dirty"
    )


@pytest.fixture(scope="module")
def dirty_results(dirty_arts):
    return _run_all(dirty_arts)


class TestPrepare:
    def test_block_collection_regime(self, arts):
        """Token blocking must land in the paper's regime: near-perfect
        recall, very low precision (Table 2)."""
        assert arts.block_quality.recall > 0.9
        assert arts.block_quality.precision < 0.1

    def test_features_cached_and_collected_consistently(self, arts):
        assert len(arts.features_pdf) == arts.n_candidates
        assert arts.features.count() == arts.n_candidates

    def test_k_parameters_positive(self, arts):
        assert arts.cep_K > 0 and arts.cnp_k >= 1

    def test_resolve_n_train_5pct_rule(self, arts):
        n = resolve_n_train(arts, -1)
        assert n == max(1, round(0.05 * arts.block_quality.n_matches_found))
        assert resolve_n_train(arts, 25) == 25


class TestRunAllAlgorithms:
    @pytest.mark.parametrize("algo", PRUNERS)
    def test_improves_precision_over_blocks(self, results, arts, algo):
        """Definition 2: Pr(B') >> Pr(B) while Re(B') stays close."""
        r = results[algo]
        assert r.eff.precision > arts.block_quality.precision
        assert r.eff.recall > 0.5

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_prunes_candidates(self, results, arts, algo):
        assert results[algo].eff.n_pairs < arts.n_candidates

    def test_reciprocal_variants_prune_deeper(self, results):
        assert results["RWNP"].eff.n_pairs <= results["WNP"].eff.n_pairs
        assert results["RCNP"].eff.n_pairs <= results["CNP"].eff.n_pairs

    def test_weight_algorithms_subset_of_bcl(self, results):
        for algo in ["WEP", "WNP", "RWNP", "BLAST"]:
            assert results[algo].eff.n_pairs <= results["BCl"].eff.n_pairs

    def test_cep_respects_K(self, results, arts):
        assert results["CEP"].eff.n_pairs <= arts.cep_K

    def test_deterministic_given_seed(self, arts):
        a = run_method(arts, "BLAST", feature_set=FEATURES_BLAST,
                       n_train_per_class=20, seed=9)
        b = run_method(arts, "BLAST", feature_set=FEATURES_BLAST,
                       n_train_per_class=20, seed=9)
        assert a.eff == b.eff
        assert (a.model.coef == b.model.coef).all()

    def test_unknown_algorithm_raises(self, arts):
        with pytest.raises(ValueError):
            run_method(arts, "XXX", feature_set=FEATURES_21,
                       n_train_per_class=5, seed=0)


class TestEngineEquivalence:
    """The NumPy sweep engine must reproduce the Spark pipeline exactly on
    both ER tasks: same sampler, same classifier, same pruning semantics."""

    @staticmethod
    def _local(arts, algo):
        return LocalContext(arts.features_pdf, arts.gt_pdf).run(
            algo,
            columns_for(FEATURES_21),
            n_train_per_class=20,
            seed=3,
            K=arts.cep_K,
            k=arts.cnp_k,
        )

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_end_to_end_equal(self, arts, results, algo):
        assert self._local(arts, algo) == results[algo].eff

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_dirty_end_to_end_equal(self, dirty_arts, dirty_results, algo):
        assert self._local(dirty_arts, algo) == dirty_results[algo].eff


class TestDriverWork:
    def test_run_method_does_no_candidate_sized_driver_work(self, arts, monkeypatch):
        """A Spark run draws its training rows from the prepared candidate
        table: it neither re-sorts nor re-labels nor rebuilds the |C|-row
        driver copy."""

        def boom(*args, **kwargs):
            raise AssertionError("|C|-sized driver work inside run_method")

        monkeypatch.setattr(pd.DataFrame, "sort_values", boom)
        monkeypatch.setattr(fast_local, "match_mask", boom)
        monkeypatch.setattr(LocalContext, "__init__", boom)
        res = run_method(arts, "BLAST", feature_set=FEATURES_BLAST,
                         n_train_per_class=20, seed=3)
        assert res.eff.n_pairs > 0

    def test_prepare_collects_the_features_as_arrow(self, spark, monkeypatch):
        """The |C|-row feature frame reaches the driver as an Arrow table,
        never as a pandas frame: the one ``toPandas`` is the ground truth's."""
        cls = type(spark.range(1))
        real = cls.toPandas
        collected = []

        def spy(self, *args, **kwargs):
            collected.append(self.columns)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "toPandas", spy)
        ent, gt = clean_clean(
            ERConfig(n_matches=20, n_only1=5, n_only2=5, vocab_size=300, seed=8)
        )
        arts = prepare_dataset(
            spark, "arrow", to_spark(spark, ent), to_spark(spark, gt), "clean"
        )
        assert collected == [["id1", "id2"]]
        assert arts.n_candidates == arts.features.count() > 0


def _entities(texts, task):
    """Entity frame; Clean-Clean puts the first entity alone in source 1."""
    source = [1] + [2 if task == "clean" else 1] * (len(texts) - 1)
    return pd.DataFrame(
        {"entity_id": np.arange(len(texts)), "source": source, "text": texts}
    )


class TestDegenerateInputs:
    @pytest.mark.parametrize("task", ["clean", "dirty"])
    def test_no_shared_token(self, spark, task):
        """|C| = 0 is refused with its cause, not a TypeError downstream."""
        ent = to_spark(spark, _entities(["alpha", "beta", "gamma"], task))
        gt = spark.createDataFrame([(0, 1)], "id1 long, id2 long")
        with pytest.raises(ValueError, match="no comparison-bearing block"):
            prepare_dataset(spark, "no-token", ent, gt, task)

    @pytest.fixture(scope="class", params=["clean", "dirty"])
    def no_match_arts(self, spark, request):
        """The test datasets with a ground truth disjoint from C."""
        make = clean_clean if request.param == "clean" else dirty
        ent, _ = make(ERConfig(n_matches=40, n_only1=15, n_only2=15,
                               vocab_size=600, seed=4))
        gt = spark.createDataFrame([(10**6, 10**6 + 1)], "id1 long, id2 long")
        return prepare_dataset(spark, "no-match", to_spark(spark, ent), gt,
                               request.param)

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_empty_positive_class(self, no_match_arts, algo):
        """Negatives only: both engines agree and the model stays finite."""
        arts = no_match_arts
        assert arts.block_quality.n_matches_found == 0
        res = run_method(arts, algo, feature_set=FEATURES_21,
                         n_train_per_class=20, seed=3)
        assert np.isfinite(res.model.coef).all()
        assert np.isfinite(res.model.intercept)
        local = arts.context.run(
            algo, columns_for(FEATURES_21), n_train_per_class=20, seed=3,
            K=arts.cep_K, k=arts.cnp_k,
        )
        assert local == res.eff
        assert res.eff.n_matches_found == 0

    @pytest.fixture(scope="class", params=["clean", "dirty"])
    def all_match_arts(self, spark, request):
        """The test datasets with a ground truth equal to C."""
        make = clean_clean if request.param == "clean" else dirty
        ent, gt = make(ERConfig(n_matches=40, n_only1=15, n_only2=15,
                                vocab_size=600, seed=4))
        ent = to_spark(spark, ent)
        arts = prepare_dataset(spark, "pairs", ent, to_spark(spark, gt),
                               request.param)
        every_pair = spark.createDataFrame(arts.features_pdf[["id1", "id2"]])
        return prepare_dataset(spark, "all-match", ent, every_pair,
                               request.param)

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_empty_negative_class(self, all_match_arts, algo):
        """Positives only: both engines agree and the model stays finite."""
        arts = all_match_arts
        assert arts.block_quality.n_matches_found == arts.n_candidates
        res = run_method(arts, algo, feature_set=FEATURES_21,
                         n_train_per_class=20, seed=3)
        assert np.isfinite(res.model.coef).all()
        assert np.isfinite(res.model.intercept)
        local = arts.context.run(
            algo, columns_for(FEATURES_21), n_train_per_class=20, seed=3,
            K=arts.cep_K, k=arts.cnp_k,
        )
        assert local == res.eff
        assert res.eff.n_matches_found == res.eff.n_pairs


class TestBenchmarkSpans:
    """perfbench/run.py wraps layer functions where their callers look them
    up; every name must resolve, and a Spark run must pass through them."""

    @staticmethod
    def _bench(monkeypatch):
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))  # its `checks` and `tracer`
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    def test_wrapped_layers_record_a_run(self, arts, monkeypatch):
        bench = self._bench(monkeypatch)
        tr = bench.Tracer()
        try:
            bench.install_spans(tr)
            assert tr._patches
            for owner, attr, orig in tr._patches:
                assert getattr(owner, attr).__wrapped__ is orig, attr
            run_method(arts, "BCl", feature_set=FEATURES_21,
                       n_train_per_class=20, seed=3)
        finally:
            tr.unwrap_all()
        names = [s.name for s in tr.spans]
        for name in ("classifier.sample", "classifier.fit", "core.score",
                     "eval.effectiveness"):
            assert name in names, name
        assert sum(s.attrs.get("train_rows", 0) for s in tr.spans) == 40
