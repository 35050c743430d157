"""End-to-end blocking: entities -> filtered, comparison-bearing blocks.

``build_blocks`` chains Token Blocking -> Block Purging -> Block Filtering
and finally restricts the collection to *comparison-bearing* blocks (>= 1
candidate pair; for Clean-Clean that needs both sources present). All block
statistics downstream (|B|, ||B||, sum of |b|) are over this collection
(DESIGN.md §3). Every per-token or per-entity statistic of these stages is a
window over the key, tested in place: no stage aggregates and joins back.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.blocking.token_blocking import token_blocking
from repro.blocking.purging import block_purging
from repro.blocking.filtering import block_filtering


@dataclass(frozen=True)
class BlockCollection:
    """A finished block collection plus the inputs it was derived from."""

    assignments: DataFrame  # (token, entity_id, source), comparison-bearing
    task: str  # "clean" | "dirty"
    n_entities: int  # |E1| + |E2| (clean) or |E| (dirty)


def _comparison_bearing(assignments: DataFrame, task: str) -> DataFrame:
    """Keep only blocks that generate at least one comparison."""
    block = Window.partitionBy("token")
    if task == "clean":
        n1 = F.sum(F.when(F.col("source") == 1, 1).otherwise(0)).over(block)
        n2 = F.sum(F.when(F.col("source") == 2, 1).otherwise(0)).over(block)
        ok = (n1 > 0) & (n2 > 0)
    else:
        ok = F.count("*").over(block) >= 2
    return assignments.withColumn("_ok", ok).filter("_ok").select(
        "token", "entity_id", "source"
    )


def build_blocks(
    entities: DataFrame, task: str, *, filtering_ratio: float = 0.8
) -> BlockCollection:
    """Run the full blocking pipeline of the paper's Section 5.1."""
    n_entities = entities.count()
    assignments = token_blocking(entities)
    assignments = block_purging(assignments, n_entities)
    assignments = block_filtering(assignments, ratio=filtering_ratio)
    assignments = _comparison_bearing(assignments, task)
    return BlockCollection(
        assignments=assignments.cache(), task=task, n_entities=n_entities
    )
