"""Block-, entity- and collection-level statistics for the weighting schemes.

Notation (paper Section 4): for a block b, ``|b|`` is its number of entities
and ``||b||`` its number of comparisons including redundant ones
(``n1*n2`` for Clean-Clean, ``|b|(|b|-1)/2`` for Dirty). For an entity e_i,
``B_i`` is the set of blocks containing it and ``||e_i|| = sum of ||b||`` over
``B_i``. For the collection, ``|B|`` is the number of blocks and
``||B|| = sum of ||b||``.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def block_stats(assignments: DataFrame, task: str) -> DataFrame:
    """Per-block statistics ``(token, size, pair_card)``.

    ``size`` is |b|; ``pair_card`` is ||b||. Comparison-free blocks (possible
    only if the caller skipped ``_comparison_bearing``) get pair_card = 0.
    """
    agg = assignments.groupBy("token").agg(
        F.count("*").alias("size"),
        F.sum(F.when(F.col("source") == 1, 1).otherwise(0)).alias("n1"),
        F.sum(F.when(F.col("source") == 2, 1).otherwise(0)).alias("n2"),
    )
    if task == "clean":
        pair_card = F.col("n1") * F.col("n2")
    else:
        pair_card = (F.col("size") * (F.col("size") - 1) / 2).cast("double")
    return agg.select(
        "token", "size", pair_card.cast("double").alias("pair_card")
    )


def entity_stats(assignments: DataFrame, blocks: DataFrame) -> DataFrame:
    """Per-entity statistics over the entity's blocks B_i.

    Columns: ``entity_id``, ``n_blocks`` (|B_i|), ``sum_pair_card``
    (||e_i||), ``sum_inv_pair_card`` (sum of 1/||b||), ``sum_inv_size``
    (sum of 1/|b|). The two reciprocal sums are the per-entity denominators
    of WJS and NRS.
    """
    return (
        assignments.join(blocks, "token")
        .groupBy("entity_id")
        .agg(
            F.count("*").alias("n_blocks"),
            F.sum("pair_card").alias("sum_pair_card"),
            F.sum(1.0 / F.col("pair_card")).alias("sum_inv_pair_card"),
            F.sum(1.0 / F.col("size")).alias("sum_inv_size"),
        )
    )


@dataclass(frozen=True)
class GlobalStats:
    """Collection-level scalars used by CF-IBF, EJS, CEP and CNP."""

    n_blocks: int  # |B|
    total_pair_card: float  # ||B||
    sum_block_sizes: int  # sum of |b| over B


def global_stats(blocks: DataFrame) -> GlobalStats:
    """|B|, ||B|| and the sum of |b| over the comparison-bearing blocks."""
    row = blocks.agg(
        F.count("*").alias("n_blocks"),
        F.sum("pair_card").alias("total_pair_card"),
        F.sum("size").alias("sum_block_sizes"),
    ).collect()[0]
    if row["n_blocks"] == 0:
        raise ValueError(
            "no comparison-bearing block, so no candidate pair: no token is "
            "shared by two entities that may be compared"
        )
    return GlobalStats(
        n_blocks=int(row["n_blocks"]),
        total_pair_card=float(row["total_pair_card"]),
        sum_block_sizes=int(row["sum_block_sizes"]),
    )
