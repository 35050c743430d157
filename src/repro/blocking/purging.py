"""Block Purging: drop blocks covering more than half of all profiles.

Parameter-free (paper Section 5.1): a block whose size exceeds
``n_entities / 2`` corresponds to a stop-word-like signature with no
distinguishing power and is removed wholesale. The block size is a count
over a window on the token, so each assignment is tested in place.
"""
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F


def block_purging(assignments: DataFrame, n_entities: int) -> DataFrame:
    """Remove oversized blocks from the assignment relation.

    ``n_entities`` is the total number of input profiles (|E1|+|E2| for
    Clean-Clean, |E| for Dirty).
    """
    return (
        assignments.withColumn("_block_size", F.count("*").over(Window.partitionBy("token")))
        .filter(F.col("_block_size") <= n_entities / 2)
        .select("token", "entity_id", "source")
    )
