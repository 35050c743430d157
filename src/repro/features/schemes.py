"""The eight weighting schemes as one DataFrame computation.

``compute_features`` produces, per distinct candidate pair, every scheme of
paper Section 4:

- CF-IBF(c_ij) = |B_i ∩ B_j| * log(|B|/|B_i|) * log(|B|/|B_j|)
- RACCB(c_ij)  = sum over common blocks of 1/||b||
- JS(c_ij)     = |B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|)
- LCP(e)       = number of distinct candidates of e (two columns)
- EJS(c_ij)    = JS * log(||B||/||e_i||) * log(||B||/||e_j||)
- WJS(c_ij)    = RACCB / (Σ_{B_i} 1/||b|| + Σ_{B_j} 1/||b|| - RACCB)
- RS(c_ij)     = sum over common blocks of 1/|b|
- NRS(c_ij)    = RS / (Σ_{B_i} 1/|b| + Σ_{B_j} 1/|b| - RS)

Everything is join/groupBy algebra on the pair-block relation — no UDFs.
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking.candidates import pair_block_relation
from repro.blocking.pipeline import BlockCollection
from repro.features.stats import GlobalStats, block_stats, entity_stats, global_stats

#: Feature name -> feature columns. LCP is one *feature* with two columns.
FEATURE_COLUMNS: dict[str, list[str]] = {
    "CF-IBF": ["cf_ibf"],
    "RACCB": ["raccb"],
    "JS": ["js"],
    "LCP": ["lcp_1", "lcp_2"],
    "EJS": ["ejs"],
    "WJS": ["wjs"],
    "RS": ["rs"],
    "NRS": ["nrs"],
}
FEATURE_NAMES: list[str] = list(FEATURE_COLUMNS)


def columns_for(feature_set: list[str] | tuple[str, ...]) -> list[str]:
    """Flatten feature names into their dataframe columns, in canonical order."""
    cols: list[str] = []
    for name in FEATURE_NAMES:
        if name in feature_set:
            cols.extend(FEATURE_COLUMNS[name])
    return cols


def compute_features(
    collection: BlockCollection,
) -> tuple[DataFrame, GlobalStats]:
    """All eight schemes per candidate pair of ``collection``.

    Returns ``(features, gstats)``: ``features`` has ``id1, id2`` plus the
    nine feature columns of :data:`FEATURE_COLUMNS`. The candidate set is
    shuffled once, by the ``(id1, id2)`` aggregation; the per-entity table
    (|E| rows, LCP included) is broadcast onto it as ``id1`` and as ``id2``,
    so ``features`` keeps that aggregation's partitioning. LCP counts the
    distinct pairs in a second run of the pair-block self-join.
    """
    assignments = collection.assignments
    blocks = block_stats(assignments, collection.task)
    gstats = global_stats(blocks)
    estats = entity_stats(assignments, blocks)

    pb = pair_block_relation(assignments, collection.task).join(blocks, "token")
    pair_agg = pb.groupBy("id1", "id2").agg(
        F.count("*").alias("cb"),  # |B_i ∩ B_j|
        F.sum(1.0 / F.col("pair_card")).alias("raccb"),
        F.sum(1.0 / F.col("size")).alias("rs"),
    )

    # LCP: distinct candidates per entity over both endpoint roles (a Dirty
    # entity can be id1 of one pair and id2 of another).
    lcp = (
        pair_agg.select(F.explode(F.array("id1", "id2")).alias("entity_id"))
        .groupBy("entity_id")
        .agg(F.count("*").alias("lcp"))
    )
    ent = estats.join(lcp, "entity_id")

    def endpoint(side: str) -> DataFrame:
        return F.broadcast(
            ent.select(
                F.col("entity_id").alias(f"id{side}"),
                F.col("n_blocks").alias(f"nb_{side}"),
                F.col("sum_pair_card").alias(f"spc_{side}"),
                F.col("sum_inv_pair_card").alias(f"sipc_{side}"),
                F.col("sum_inv_size").alias(f"sis_{side}"),
                F.col("lcp").alias(f"lcp_{side}"),
            )
        )

    n_b = F.lit(float(gstats.n_blocks))
    total_pc = F.lit(gstats.total_pair_card)
    js = F.col("cb") / (F.col("nb_1") + F.col("nb_2") - F.col("cb"))

    features = (
        pair_agg.join(endpoint("1"), "id1")
        .join(endpoint("2"), "id2")
        .select(
            "id1",
            "id2",
            (
                F.col("cb")
                * F.log(n_b / F.col("nb_1"))
                * F.log(n_b / F.col("nb_2"))
            ).alias("cf_ibf"),
            F.col("raccb").cast("double").alias("raccb"),
            js.cast("double").alias("js"),
            F.col("lcp_1").cast("double").alias("lcp_1"),
            F.col("lcp_2").cast("double").alias("lcp_2"),
            (
                js * F.log(total_pc / F.col("spc_1")) * F.log(total_pc / F.col("spc_2"))
            ).alias("ejs"),
            (
                F.col("raccb")
                / (F.col("sipc_1") + F.col("sipc_2") - F.col("raccb"))
            ).alias("wjs"),
            F.col("rs").cast("double").alias("rs"),
            (F.col("rs") / (F.col("sis_1") + F.col("sis_2") - F.col("rs"))).alias(
                "nrs"
            ),
        )
    )
    return features, gstats
