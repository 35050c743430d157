"""Integration tests: full GSM pipeline on a small synthetic Clean-Clean
task, Spark-vs-local-engine end-to-end equivalence on Clean-Clean and Dirty
tasks, and the qualitative behaviours the paper's evaluation rests on."""
import pytest

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
