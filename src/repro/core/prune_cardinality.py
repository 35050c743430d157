"""Cardinality-based supervised pruning algorithms (paper Section 3.2).

- CEP  — retain the globally top-K valid pairs, K = floor(sum of |b| / 2)
  over the block collection (Algorithm 4).
- CNP  — per entity, retain its top-k valid pairs,
  k = max(1, floor(sum of |b| / (|E1|+|E2|))); a pair survives if it is in
  the top-k list of *either* endpoint (Algorithm 5).
- RCNP — same lists, but the pair must be in the top-k of *both* endpoints.

The paper's priority queues are tie-order dependent; we make results
deterministic by ranking on ``(p desc, id1, id2)`` (DESIGN.md §3).
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.prune_weight import _endpoints, _neighbourhood, _valid


def cep(scored: DataFrame, *, K: int) -> DataFrame:
    """Supervised Cardinality Edge Pruning: global top-K valid pairs."""
    return (
        _valid(scored)
        .orderBy(F.col("p").desc(), F.col("id1").asc(), F.col("id2").asc())
        .limit(int(K))
        .select("id1", "id2")
    )


def _topk_membership(scored: DataFrame, k: int) -> DataFrame:
    """``(id1, id2, in1, in2)``: membership of each valid pair in the per-
    entity top-k list of its two endpoints. Pairs in neither list are
    absent from the output (they can satisfy neither CNP nor RCNP)."""
    return (
        _endpoints(_valid(scored))
        .withColumn("_rn", F.row_number().over(_neighbourhood()))
        .filter(F.col("_rn") <= int(k))
        .groupBy("id1", "id2")
        .agg(
            F.max(F.col("side") == 0).alias("in1"),
            F.max(F.col("side") == 1).alias("in2"),
        )
    )


def cnp(scored: DataFrame, *, k: int) -> DataFrame:
    """Supervised Cardinality Node Pruning: in either endpoint's top-k."""
    m = _topk_membership(scored, k)
    return m.filter(F.col("in1") | F.col("in2")).select("id1", "id2")


def rcnp(scored: DataFrame, *, k: int) -> DataFrame:
    """Reciprocal CNP: in both endpoints' top-k (deeper pruning)."""
    m = _topk_membership(scored, k)
    return m.filter(F.col("in1") & F.col("in2")).select("id1", "id2")
