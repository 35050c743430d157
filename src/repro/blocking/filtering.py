"""Block Filtering: drop each entity from its largest 20% of blocks.

Following [22] (paper Section 5.1): for every entity, rank its blocks by
block size ascending and keep the smallest ``ceil(ratio * |B_i|)`` of them,
with ratio = 0.8 by default. Ranking ties are broken by token so the result
is deterministic. Block sizes come from a window on the token, ranks and
|B_i| from a window on the entity.
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def block_filtering(assignments: DataFrame, *, ratio: float = 0.8) -> DataFrame:
    """Per-entity retention of the smallest ``ratio`` fraction of blocks."""
    w = Window.partitionBy("entity_id").orderBy(
        F.col("_block_size").asc(), F.col("token").asc()
    )
    return (
        assignments.withColumn("_block_size", F.count("*").over(Window.partitionBy("token")))
        .withColumn("_rank", F.row_number().over(w))
        .withColumn(
            "_limit",
            F.ceil(F.lit(ratio) * F.count("*").over(Window.partitionBy("entity_id"))),
        )
        .filter(F.col("_rank") <= F.col("_limit"))
        .select("token", "entity_id", "source")
    )
