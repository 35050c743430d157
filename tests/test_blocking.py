"""Blocking substrate tests: tokenisation, purging, filtering, candidates.

Exact assertions on the hand-computed Figure-1 fixture plus DuckDB-oracle
checks of the candidate-pair join on synthetic data.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.blocking import (
    block_filtering,
    block_purging,
    build_blocks,
    candidate_pairs,
    token_blocking,
)
from repro.blocking.candidates import pair_block_relation
from repro.blocking.pipeline import _comparison_bearing
from repro.er_data.generator import ERConfig, clean_clean, to_spark
from repro.oracle import assert_equivalent

from tests.fixture_er import BLOCKS, CANDIDATES, entities_pdf


@pytest.fixture(scope="module")
def fig1_assignments(spark):
    ents = spark.createDataFrame(entities_pdf())
    return token_blocking(ents).cache()


class TestTokenBlocking:
    def test_fig1_blocks(self, fig1_assignments):
        got = {
            t: sorted(g["entity_id"])
            for t, g in fig1_assignments.toPandas().groupby("token")
        }
        # All 10 token blocks, incl. singletons (16gb, white, note).
        assert got["iphone"] == [0, 2]
        assert got["black"] == [0, 2, 5]
        assert got["galaxy"] == [1, 3, 4]
        assert got["16gb"] == [2]
        assert got["white"] == [1]
        assert got["note"] == [4]
        assert len(got) == 10

    def test_lowercases_and_splits_punctuation(self, spark):
        ents = spark.createDataFrame(
            pd.DataFrame(
                {"entity_id": [1], "source": [1], "text": ["Apple iPhone-5, BLACK!"]}
            )
        )
        toks = {r["token"] for r in token_blocking(ents).collect()}
        assert toks == {"apple", "iphone", "5", "black"}

    def test_deduplicates_repeated_tokens(self, spark):
        ents = spark.createDataFrame(
            pd.DataFrame({"entity_id": [1], "source": [1], "text": ["a a a b"]})
        )
        assert token_blocking(ents).count() == 2

    def test_empty_text_yields_nothing(self, spark):
        ents = spark.createDataFrame(
            pd.DataFrame({"entity_id": [1], "source": [1], "text": ["  ,,, "]})
        )
        assert token_blocking(ents).count() == 0

    def test_oracle_token_counts(self, spark):
        """Token blocking == DuckDB's split/unnest over the same text."""
        ent, _ = clean_clean(ERConfig(n_matches=30, n_only1=5, n_only2=5, seed=21))
        got = (
            token_blocking(to_spark(spark, ent))
            .groupBy("token")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            """
            SELECT token, COUNT(*) AS n FROM (
              SELECT DISTINCT entity_id, unnest(string_split(lower(text), ' ')) AS token
              FROM ent WHERE text <> ''
            ) WHERE token <> '' GROUP BY token
            """,
            ent=ent,
        )


class TestBlockPurging:
    def test_drops_majority_blocks(self, spark):
        # 'stop' appears in 5 of 6 entities (> half) -> purged; 'rare' kept.
        pdf = pd.DataFrame(
            {
                "entity_id": range(6),
                "source": [1] * 6,
                "text": ["stop rare"] + ["stop"] * 4 + ["rare"],
            }
        )
        a = token_blocking(spark.createDataFrame(pdf))
        kept = {r["token"] for r in block_purging(a, 6).collect()}
        assert kept == {"rare"}

    def test_keeps_exactly_half(self, spark):
        pdf = pd.DataFrame(
            {
                "entity_id": range(4),
                "source": [1] * 4,
                "text": ["x", "x", "y", "y"],
            }
        )
        a = token_blocking(spark.createDataFrame(pdf))
        assert block_purging(a, 4).count() == 4  # size 2 == 4/2 retained

    def test_fig1_untouched(self, spark, fig1_assignments):
        assert block_purging(fig1_assignments, 7).count() == fig1_assignments.count()


class TestBlockFiltering:
    def test_removes_largest_blocks_per_entity(self, spark):
        # Entity 0 sits in blocks of sizes 4 ('big'), 2 ('mid'), 1 ('own');
        # entity 1 in 'big' (4) and 'mid' (2).
        pdf = pd.DataFrame(
            {
                "entity_id": range(4),
                "source": [1] * 4,
                "text": ["big mid own", "big mid", "big", "big"],
            }
        )
        a = token_blocking(spark.createDataFrame(pdf))
        # ratio 0.5: entity 0 keeps ceil(1.5)=2 smallest ('own','mid');
        # entity 1 keeps ceil(1)=1 smallest ('mid').
        out = block_filtering(a, ratio=0.5)
        kept0 = {r["token"] for r in out.filter(F.col("entity_id") == 0).collect()}
        kept1 = {r["token"] for r in out.filter(F.col("entity_id") == 1).collect()}
        assert kept0 == {"own", "mid"}
        assert kept1 == {"mid"}

    def test_default_ratio_keeps_80pct(self, spark):
        # One entity in 5 blocks of strictly increasing size: keeps 4.
        rows = [{"entity_id": 0, "source": 1, "text": "b1 b2 b3 b4 b5"}]
        for size, tok in enumerate(["b2", "b3", "b4", "b5"], start=1):
            for j in range(size):
                rows.append(
                    {"entity_id": 100 * size + j, "source": 1, "text": tok}
                )
        a = token_blocking(spark.createDataFrame(pd.DataFrame(rows)))
        out = block_filtering(a)
        kept0 = {
            r["token"] for r in out.filter(F.col("entity_id") == 0).collect()
        }
        assert kept0 == {"b1", "b2", "b3", "b4"}

    def test_fig1_untouched_at_default_ratio(self, fig1_assignments):
        out = block_filtering(fig1_assignments)
        assert out.count() == fig1_assignments.count()


class TestCandidatePairs:
    def test_fig1_candidates(self, fig1_assignments):
        cb = _comparison_bearing(fig1_assignments, "dirty")
        got = sorted(
            (r["id1"], r["id2"]) for r in candidate_pairs(cb, "dirty").collect()
        )
        assert got == sorted(CANDIDATES)

    def test_fig1_pair_block_multiplicity(self, fig1_assignments):
        pb = pair_block_relation(fig1_assignments, "dirty").toPandas()
        cb = pb.groupby(["id1", "id2"]).size().to_dict()
        assert cb[(0, 2)] == 3 and cb[(1, 3)] == 2 and cb[(5, 6)] == 2

    def test_clean_requires_cross_source(self, spark):
        pdf = pd.DataFrame(
            {
                "entity_id": [1, 2, 3],
                "source": [1, 1, 2],
                "text": ["x", "x y", "y"],
            }
        )
        a = token_blocking(spark.createDataFrame(pdf))
        got = sorted(
            (r["id1"], r["id2"]) for r in candidate_pairs(a, "clean").collect()
        )
        assert got == [(2, 3)]  # (1,2) same-source is never a candidate

    def test_bad_task_raises(self, fig1_assignments):
        with pytest.raises(ValueError):
            candidate_pairs(fig1_assignments, "nope")

    def test_oracle_clean_candidates(self, spark):
        ent, _ = clean_clean(ERConfig(n_matches=40, n_only1=10, n_only2=10, seed=33))
        sdf = to_spark(spark, ent)
        got = candidate_pairs(token_blocking(sdf), "clean")
        assert_equivalent(
            got,
            """
            WITH assign AS (
              SELECT DISTINCT entity_id, source,
                     unnest(string_split(lower(text), ' ')) AS token
              FROM ent
            )
            SELECT DISTINCT a.entity_id AS id1, b.entity_id AS id2
            FROM assign a JOIN assign b ON a.token = b.token
            WHERE a.source = 1 AND b.source = 2
            """,
            ent=ent,
        )

    def test_oracle_dirty_candidates(self, spark):
        ent, _ = dirty_fixture()
        sdf = to_spark(spark, ent)
        got = candidate_pairs(token_blocking(sdf), "dirty")
        assert_equivalent(
            got,
            """
            WITH assign AS (
              SELECT DISTINCT entity_id,
                     unnest(string_split(lower(text), ' ')) AS token
              FROM ent
            )
            SELECT DISTINCT a.entity_id AS id1, b.entity_id AS id2
            FROM assign a JOIN assign b
              ON a.token = b.token AND a.entity_id < b.entity_id
            """,
            ent=ent,
        )


def dirty_fixture():
    from repro.er_data.generator import dirty

    return dirty(ERConfig(n_matches=30, n_only1=20, seed=44))


class TestBuildBlocks:
    def test_fig1_collection(self, spark):
        coll = build_blocks(spark.createDataFrame(entities_pdf()), "dirty")
        got = {
            t: sorted(g["entity_id"])
            for t, g in coll.assignments.toPandas().groupby("token")
        }
        assert got == BLOCKS
        assert coll.n_entities == 7

    def test_clean_collection_has_both_sources_per_block(self, spark):
        ent, _ = clean_clean(ERConfig(n_matches=30, n_only1=10, n_only2=10, seed=5))
        coll = build_blocks(to_spark(spark, ent), "clean")
        per_block = (
            coll.assignments.groupBy("token")
            .agg(F.countDistinct("source").alias("ns"))
            .toPandas()
        )
        assert (per_block["ns"] == 2).all()

    @pytest.mark.parametrize("task", ["clean", "dirty"])
    def test_plan_has_no_join(self, spark, task):
        """Every blocking statistic is a window over its key, tested in
        place: no stage aggregates and joins the result back."""
        ent, _ = clean_clean(ERConfig(n_matches=10, n_only1=3, n_only2=3, seed=5))
        coll = build_blocks(to_spark(spark, ent), task)
        plan = coll.assignments._jdf.queryExecution().executedPlan().toString()
        assert "Join" not in plan
