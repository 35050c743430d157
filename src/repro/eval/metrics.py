"""Effectiveness measures of a (pruned) candidate-pair set (Section 2.1).

Recall (Pairs Completeness) = |retained ∩ D| / |D|;
Precision (Pairs Quality)   = |retained ∩ D| / |retained|;
F1 = harmonic mean. All against the known ground truth D.

``effectiveness`` is a single Spark aggregation: the ground truth (at most a
few thousand rows) is broadcast-joined onto the pair set and both counts come
out of one job. Broadcast policy: automatic broadcast joins stay off, and
explicit hints go only on O(|E|) or O(|D|) tables, such as this ground truth
and the per-entity feature table of ``features.schemes``.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class Effectiveness:
    """Recall / precision / F1 of one candidate-pair set vs the truth."""

    n_pairs: int
    n_matches_found: int
    n_matches_total: int

    @property
    def recall(self) -> float:
        return self.n_matches_found / self.n_matches_total if self.n_matches_total else 0.0

    @property
    def precision(self) -> float:
        return self.n_matches_found / self.n_pairs if self.n_pairs else 0.0

    @property
    def f1(self) -> float:
        r, p = self.recall, self.precision
        return 2 * r * p / (r + p) if (r + p) > 0 else 0.0


def effectiveness(
    pairs: DataFrame, ground_truth: DataFrame, *, n_total: int | None = None
) -> Effectiveness:
    """Evaluate ``pairs(id1, id2)`` against ``ground_truth(id1, id2)``.

    ``n_total`` (|D|) skips re-counting a ground truth the caller already
    knows the size of.
    """
    if n_total is None:
        n_total = ground_truth.count()
    gt = F.broadcast(
        ground_truth.select("id1", "id2").withColumn("_m", F.lit(1))
    )
    row = (
        pairs.select("id1", "id2")
        .join(gt, ["id1", "id2"], "left")
        .agg(F.count("*").alias("n"), F.count("_m").alias("m"))
        .collect()[0]
    )
    return Effectiveness(
        n_pairs=int(row["n"]),
        n_matches_found=int(row["m"]),
        n_matches_total=int(n_total),
    )
