"""DuckDB-oracle equivalence for block statistics and all weighting schemes.

The Spark feature computation (joins + aggregations) is re-expressed as one
independent DuckDB SQL query over the *same* block-assignment relation; any
broken join key, wrong aggregation or operator-order bug surfaces as a row
diff. This is the strongest correctness check in the suite — the schemes'
formulas are written twice, independently.
"""
import pytest

from repro.blocking import build_blocks
from repro.features import compute_features
from repro.features.stats import block_stats, entity_stats
from repro.er_data.generator import ERConfig, clean_clean, dirty, to_spark
from repro.oracle import assert_equivalent

_CLEAN_SQL = """
WITH bstats AS (
  SELECT token, COUNT(*) AS sz,
         CAST(SUM(CASE WHEN source = 1 THEN 1 ELSE 0 END)
              * SUM(CASE WHEN source = 2 THEN 1 ELSE 0 END) AS DOUBLE) AS pc
  FROM assign GROUP BY token
),
g AS (SELECT COUNT(*) AS nb, SUM(pc) AS tpc FROM bstats),
estats AS (
  SELECT entity_id, COUNT(*) AS nbe, SUM(pc) AS spc,
         SUM(1.0 / pc) AS sipc, SUM(1.0 / sz) AS sis
  FROM assign JOIN bstats USING (token) GROUP BY entity_id
),
pagg AS (
  SELECT a.entity_id AS id1, b.entity_id AS id2, COUNT(*) AS cb,
         SUM(1.0 / s.pc) AS raccb, SUM(1.0 / s.sz) AS rs
  FROM assign a
  JOIN assign b ON a.token = b.token AND a.source = 1 AND b.source = 2
  JOIN bstats s ON s.token = a.token
  GROUP BY 1, 2
),
lcp AS (
  SELECT entity_id, COUNT(*) AS lcp FROM (
    SELECT id1 AS entity_id FROM pagg UNION ALL SELECT id2 FROM pagg
  ) GROUP BY entity_id
)
SELECT p.id1, p.id2,
       p.cb * ln(g.nb / e1.nbe) * ln(g.nb / e2.nbe) AS cf_ibf,
       p.raccb AS raccb,
       p.cb / (e1.nbe + e2.nbe - p.cb) AS js,
       CAST(l1.lcp AS DOUBLE) AS lcp_1,
       CAST(l2.lcp AS DOUBLE) AS lcp_2,
       (p.cb / (e1.nbe + e2.nbe - p.cb))
         * ln(g.tpc / e1.spc) * ln(g.tpc / e2.spc) AS ejs,
       p.raccb / (e1.sipc + e2.sipc - p.raccb) AS wjs,
       p.rs AS rs,
       p.rs / (e1.sis + e2.sis - p.rs) AS nrs
FROM pagg p
JOIN estats e1 ON e1.entity_id = p.id1
JOIN estats e2 ON e2.entity_id = p.id2
JOIN lcp l1 ON l1.entity_id = p.id1
JOIN lcp l2 ON l2.entity_id = p.id2
CROSS JOIN g
"""

_DIRTY_SQL = _CLEAN_SQL.replace(
    """CAST(SUM(CASE WHEN source = 1 THEN 1 ELSE 0 END)
              * SUM(CASE WHEN source = 2 THEN 1 ELSE 0 END) AS DOUBLE) AS pc""",
    "CAST(COUNT(*) * (COUNT(*) - 1) / 2 AS DOUBLE) AS pc",
).replace(
    "ON a.token = b.token AND a.source = 1 AND b.source = 2",
    "ON a.token = b.token AND a.entity_id < b.entity_id",
)


@pytest.fixture(scope="module")
def clean_coll(spark):
    ent, _ = clean_clean(
        ERConfig(n_matches=50, n_only1=10, n_only2=15, vocab_size=600, seed=77)
    )
    coll = build_blocks(to_spark(spark, ent), "clean")
    return coll, coll.assignments.toPandas()


@pytest.fixture(scope="module")
def dirty_coll(spark):
    ent, _ = dirty(ERConfig(n_matches=40, n_only1=30, vocab_size=600, seed=78))
    coll = build_blocks(to_spark(spark, ent), "dirty")
    return coll, coll.assignments.toPandas()


class TestOracleBlockStats:
    def test_clean_block_stats(self, clean_coll):
        coll, assign = clean_coll
        got = block_stats(coll.assignments, "clean")
        assert_equivalent(
            got,
            """
            SELECT token, COUNT(*) AS size,
                   CAST(SUM(CASE WHEN source=1 THEN 1 ELSE 0 END)
                        * SUM(CASE WHEN source=2 THEN 1 ELSE 0 END) AS DOUBLE)
                     AS pair_card
            FROM assign GROUP BY token
            """,
            assign=assign,
        )

    def test_dirty_block_stats(self, dirty_coll):
        coll, assign = dirty_coll
        got = block_stats(coll.assignments, "dirty")
        assert_equivalent(
            got,
            """
            SELECT token, COUNT(*) AS size,
                   CAST(COUNT(*) * (COUNT(*) - 1) / 2 AS DOUBLE) AS pair_card
            FROM assign GROUP BY token
            """,
            assign=assign,
        )

    def test_clean_entity_stats(self, clean_coll):
        coll, assign = clean_coll
        got = entity_stats(
            coll.assignments, block_stats(coll.assignments, "clean")
        )
        assert_equivalent(
            got,
            """
            WITH bstats AS (
              SELECT token,
                     COUNT(*) AS sz,
                     CAST(SUM(CASE WHEN source=1 THEN 1 ELSE 0 END)
                          * SUM(CASE WHEN source=2 THEN 1 ELSE 0 END) AS DOUBLE)
                       AS pc
              FROM assign GROUP BY token
            )
            SELECT entity_id, COUNT(*) AS n_blocks, SUM(pc) AS sum_pair_card,
                   SUM(1.0/pc) AS sum_inv_pair_card, SUM(1.0/sz) AS sum_inv_size
            FROM assign JOIN bstats USING (token) GROUP BY entity_id
            """,
            assign=assign,
        )


class TestOracleFeatures:
    def test_clean_features(self, clean_coll):
        coll, assign = clean_coll
        feats, _ = compute_features(coll)
        assert_equivalent(feats, _CLEAN_SQL, assign=assign)

    def test_dirty_features(self, dirty_coll):
        coll, assign = dirty_coll
        feats, _ = compute_features(coll)
        assert_equivalent(feats, _DIRTY_SQL, assign=assign)

    @pytest.mark.parametrize("task", ["clean", "dirty"])
    def test_features_any_partitioning(self, request, shuffle_partitions, task):
        """The frame keeps the session's partition count, and its values do
        not depend on it."""
        coll, assign = request.getfixturevalue(f"{task}_coll")
        feats, _ = compute_features(coll)
        assert feats.rdd.getNumPartitions() == shuffle_partitions
        assert_equivalent(
            feats, _CLEAN_SQL if task == "clean" else _DIRTY_SQL, assign=assign
        )
