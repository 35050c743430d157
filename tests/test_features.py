"""Weighting-scheme tests: exact hand-computed values on the Figure-1
fixture, plus structural properties of the statistics."""
import math
import re

import pytest
from pyspark.sql import functions as F

from repro.blocking import build_blocks
from repro.features import block_stats, compute_features, entity_stats, global_stats
from repro.features.schemes import FEATURE_COLUMNS, columns_for

from tests.fixture_er import (
    BLOCKS,
    CANDIDATES,
    CEP_K,
    CNP_K,
    EXPECTED_FEATURES,
    LCP,
    N_BLOCKS,
    N_BLOCKS_PER_ENTITY,
    SUM_BLOCK_SIZES,
    TOTAL_PAIR_CARD,
    entities_pdf,
)


@pytest.fixture(scope="module")
def fig1(spark):
    coll = build_blocks(spark.createDataFrame(entities_pdf()), "dirty")
    features, gstats = compute_features(coll)
    return coll, features.toPandas().set_index(["id1", "id2"]).sort_index(), gstats


class TestBlockStats:
    def test_fig1_block_sizes(self, fig1):
        coll, _, _ = fig1
        got = block_stats(coll.assignments, "dirty").toPandas().set_index("token")
        for tok, members in BLOCKS.items():
            n = len(members)
            assert got.loc[tok, "size"] == n
            assert got.loc[tok, "pair_card"] == n * (n - 1) / 2

    def test_clean_pair_cardinality(self, spark):
        import pandas as pd

        pdf = pd.DataFrame(
            {
                "entity_id": [1, 2, 3, 4, 5],
                "source": [1, 1, 1, 2, 2],
                "text": ["x"] * 5,
            }
        )
        from repro.blocking import token_blocking

        got = block_stats(token_blocking(spark.createDataFrame(pdf)), "clean")
        row = got.collect()[0]
        assert row["size"] == 5 and row["pair_card"] == 3 * 2


class TestEntityStats:
    def test_fig1_blocks_per_entity(self, fig1):
        coll, _, _ = fig1
        blocks = block_stats(coll.assignments, "dirty")
        got = (
            entity_stats(coll.assignments, blocks)
            .toPandas()
            .set_index("entity_id")
        )
        for e, nb in N_BLOCKS_PER_ENTITY.items():
            assert got.loc[e, "n_blocks"] == nb
        # e0: blocks iphone(1), 5(1), black(3) -> ||e0|| = 5.
        assert got.loc[0, "sum_pair_card"] == 5.0
        assert got.loc[0, "sum_inv_pair_card"] == pytest.approx(1 + 1 + 1 / 3)
        assert got.loc[0, "sum_inv_size"] == pytest.approx(0.5 + 0.5 + 1 / 3)


class TestGlobalStats:
    def test_fig1_globals(self, fig1):
        _, _, g = fig1
        assert g.n_blocks == N_BLOCKS
        assert g.total_pair_card == TOTAL_PAIR_CARD
        assert g.sum_block_sizes == SUM_BLOCK_SIZES

    def test_cep_cnp_parameters(self, spark, fig1):
        from repro.core.pipeline import prepare_dataset
        from tests.fixture_er import ground_truth_pdf

        arts = prepare_dataset(
            spark,
            "fig1",
            spark.createDataFrame(entities_pdf()),
            spark.createDataFrame(ground_truth_pdf()),
            "dirty",
        )
        assert arts.cep_K == CEP_K
        assert arts.cnp_k == CNP_K


class TestSchemesFigure1:
    def test_candidate_set(self, fig1):
        _, feats, _ = fig1
        assert sorted(feats.index) == sorted(CANDIDATES)

    @pytest.mark.parametrize("pair", CANDIDATES)
    @pytest.mark.parametrize(
        "column",
        ["cf_ibf", "raccb", "js", "lcp_1", "lcp_2", "ejs", "wjs", "rs", "nrs"],
    )
    def test_hand_computed_value(self, fig1, pair, column):
        _, feats, _ = fig1
        assert feats.loc[pair, column] == pytest.approx(
            EXPECTED_FEATURES[pair][column], rel=1e-9
        )

    def test_lcp_matches_candidate_degrees(self, fig1):
        _, feats, _ = fig1
        for (i, j), row in feats.iterrows():
            assert row["lcp_1"] == LCP[i]
            assert row["lcp_2"] == LCP[j]


class TestSchemeProperties:
    """Range/shape invariants on a synthetic clean-clean dataset."""

    @pytest.fixture(scope="class")
    def feats(self, spark):
        from repro.er_data.generator import ERConfig, clean_clean, to_spark

        ent, _ = clean_clean(
            ERConfig(n_matches=60, n_only1=15, n_only2=15, vocab_size=700, seed=8)
        )
        coll = build_blocks(to_spark(spark, ent), "clean")
        f, _ = compute_features(coll)
        return f.toPandas()

    def test_js_in_unit_interval(self, feats):
        assert ((feats["js"] > 0) & (feats["js"] <= 1)).all()

    def test_wjs_nrs_in_unit_interval(self, feats):
        for c in ["wjs", "nrs"]:
            assert ((feats[c] > 0) & (feats[c] <= 1 + 1e-12)).all()

    def test_nonnegative_schemes(self, feats):
        for c in ["cf_ibf", "raccb", "ejs", "rs"]:
            assert (feats[c] >= 0).all(), c

    def test_lcp_positive_integers(self, feats):
        for c in ["lcp_1", "lcp_2"]:
            assert (feats[c] >= 1).all()
            assert (feats[c] == feats[c].round()).all()

    def test_no_nulls(self, feats):
        assert not feats.isna().any().any()

    def test_rs_at_most_raccb_times_factor(self, feats):
        # In clean-clean blocks, ||b|| = n1*n2 >= |b| - 1 >= |b|/2, so
        # rs = sum 1/|b| and raccb = sum 1/||b|| satisfy rs <= 2*raccb
        # only when blocks are balanced; just check both positive and
        # correlated in rank.
        assert feats[["rs", "raccb"]].corr(method="spearman").iloc[0, 1] > 0.5


class TestFeaturePlan:
    """The candidate set is shuffled once, by the ``(id1, id2)``
    aggregation: the per-entity table (LCP included) is broadcast onto the
    pairs. The prepared frame is that aggregation's output, not
    repartitioned, behind a lineage cut: later plans start from one stored
    scan and never re-run blocking."""

    @pytest.fixture(scope="class", params=["clean", "dirty"])
    def prepared(self, spark, request):
        from repro.core.pipeline import prepare_dataset
        from repro.er_data.generator import ERConfig, clean_clean, to_spark

        ent, gt = clean_clean(ERConfig(n_matches=10, n_only1=3, n_only2=3, seed=5))
        return prepare_dataset(
            spark, "plan", to_spark(spark, ent), to_spark(spark, gt), request.param
        )

    def test_entity_table_is_broadcast(self, prepared):
        features, _ = compute_features(prepared.collection)
        plan = features._jdf.queryExecution().executedPlan().toString()
        assert not re.search(r"SortMergeJoin \[id[12]#", plan)
        for key in ("id1", "id2"):
            assert re.search(rf"BroadcastHashJoin \[{key}#\w+\], \[{key}#", plan)

    def test_prepared_frame_is_one_scan(self, spark, prepared):
        plan = prepared.features._jdf.queryExecution().analyzed()
        assert plan.nodeName() == "LogicalRDD"
        assert plan.collectLeaves().size() == 1
        tree = plan.toString()
        for node in ("Join", "Aggregate", "Generate", "InMemoryRelation"):
            assert node not in tree
        assert prepared.features.rdd.getNumPartitions() == int(
            spark.conf.get("spark.sql.shuffle.partitions")
        )
        # A count runs its scan and its merge stage only: the DAG holds no
        # blocking or feature stage, not even a skipped one.
        group = f"prepared-count-{prepared.collection.task}"
        sc = spark.sparkContext
        sc.setJobGroup(group, "count over the prepared frame")
        try:
            prepared.features.count()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        status = sc.statusTracker()
        stage_ids = [
            s
            for j in status.getJobIdsForGroup(group)
            for s in status.getJobInfo(j).stageIds
        ]
        assert len(stage_ids) == 2


class TestColumnsFor:
    def test_lcp_expands_to_two_columns(self):
        assert columns_for(["LCP"]) == ["lcp_1", "lcp_2"]

    def test_canonical_order_is_stable(self):
        assert columns_for(["NRS", "CF-IBF"]) == ["cf_ibf", "nrs"]
        assert columns_for(["RS", "JS", "RACCB"]) == ["raccb", "js", "rs"]

    def test_all_features_nine_columns(self):
        assert len(columns_for(list(FEATURE_COLUMNS))) == 9
