"""Weight-based supervised pruning algorithms (paper Section 3.1).

Every function maps a scored pair frame ``(id1, id2, p)`` to the retained
subset ``(id1, id2)``. A pair is *valid* iff p >= 0.5 (Definition 2); each
algorithm then applies its weight threshold over the valid pairs:

- BCl   — the [21] baseline: keep every valid pair (global 0.5 threshold).
- WEP   — keep pairs with p >= global mean of valid probabilities (Alg. 1).
- WNP   — keep pairs beating the mean of *either* endpoint entity (Alg. 2).
- RWNP  — keep pairs beating the mean of *both* endpoints.
- BLAST — keep pairs with p >= r * (max_i + max_j) using per-entity maxima
  (Alg. 3, r = 0.35 in the paper's experiments).

The node rules (WNP, RWNP, BLAST here; CNP, RCNP in ``prune_cardinality``)
share one shape: explode each valid pair to its two endpoints
(``_endpoints``), compute the entity's statistic over a window on its
neighbourhood, then regroup by ``(id1, id2)`` — pure DataFrame algebra, no
joins, no UDFs.
"""
from pyspark.sql import DataFrame, Window, WindowSpec
from pyspark.sql import functions as F

def _valid(scored: DataFrame) -> DataFrame:
    """The valid pairs of Definition 2: probability >= 0.5."""
    return scored.filter(F.col("p") >= 0.5)


def _endpoints(valid: DataFrame) -> DataFrame:
    """``(id1, id2, p, side, entity_id)``: one row per endpoint of each valid
    pair; ``side`` is 0 for the ``id1`` end and 1 for the ``id2`` end."""
    return valid.select(
        "id1", "id2", "p", F.posexplode(F.array("id1", "id2")).alias("side", "entity_id")
    )


def _neighbourhood() -> WindowSpec:
    """An entity's endpoint rows in the canonical ``(p desc, id1, id2)`` order:
    CNP ranks them in it, WNP sums them in it (DESIGN.md §3)."""
    return Window.partitionBy("entity_id").orderBy(
        F.col("p").desc(), F.col("id1").asc(), F.col("id2").asc()
    )


def bcl(scored: DataFrame) -> DataFrame:
    """Binary-classifier pruning of [21]: retain all valid pairs."""
    return _valid(scored).select("id1", "id2")


def wep(scored: DataFrame) -> DataFrame:
    """Supervised Weighted Edge Pruning (Algorithm 1)."""
    valid = _valid(scored)
    row = valid.agg(F.avg("p").alias("m"), F.max("p").alias("mx")).collect()[0]
    if row["m"] is None:  # no valid pairs at all
        return scored.select("id1", "id2").limit(0)
    # A float mean can round above every p when they are all equal; the
    # true mean never exceeds the maximum (DESIGN.md §3).
    mean = min(float(row["m"]), float(row["mx"]))
    return valid.filter(F.col("p") >= mean).select("id1", "id2")


def _node_pruning(scored: DataFrame, *, reciprocal: bool) -> DataFrame:
    whole = _neighbourhood().rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    either_or_both = F.min if reciprocal else F.max
    # The neighbourhood mean, capped at its maximum as WEP caps the global
    # one: n equal p can average to just above p (DESIGN.md §3).
    mean = F.least(F.avg("p").over(whole), F.max("p").over(whole))
    return (
        _endpoints(_valid(scored))
        .withColumn("_beats", F.col("p") >= mean)
        .groupBy("id1", "id2")
        .agg(either_or_both("_beats").alias("_keep"))
        .filter("_keep")
        .select("id1", "id2")
    )


def wnp(scored: DataFrame) -> DataFrame:
    """Supervised Weighted Node Pruning (Algorithm 2): beat either mean."""
    return _node_pruning(scored, reciprocal=False)


def rwnp(scored: DataFrame) -> DataFrame:
    """Reciprocal WNP: beat both endpoint means (deeper pruning)."""
    return _node_pruning(scored, reciprocal=True)


def blast(scored: DataFrame, *, r: float = 0.35) -> DataFrame:
    """Supervised BLAST (Algorithm 3): p >= r * (max_i + max_j)."""
    mx = F.max("p").over(Window.partitionBy("entity_id"))
    return (
        _endpoints(_valid(scored))
        .withColumn("_mx", mx)
        .groupBy("id1", "id2", "p")
        .agg(F.sum("_mx").alias("_mx12"))
        .filter(F.col("p") >= F.lit(float(r)) * F.col("_mx12"))
        .select("id1", "id2")
    )
