"""End-to-end Generalized Supervised Meta-blocking pipeline.

``prepare_dataset`` runs blocking + feature generation once per dataset,
local-checkpoints the Spark feature frame (every later plan starts from one
stored RDD scan, not the blocking + features DAG) *and* collects it to the
driver (8.6M rows at the largest analog, D300K) as an Arrow table
(``DataFrame.toArrow``, no pandas copy) into the one driver-side candidate
table, ``core.fast_local.LocalContext``: canonical ``(id1, id2)`` order,
every pair labelled against the ground truth. Block quality is the
sum of its labels, the training sampler draws from it, and the sweeps run on
it, while scoring and pruning — the paper's contribution — run in Spark.
``run_method`` trains the probabilistic classifier, scores every candidate
pair with a Catalyst sigmoid expression, applies one pruning algorithm and
measures effectiveness and run-time. RT covers training + scoring + pruning
+ evaluation (the paper's Section 2.1 definition), not the one-off blocking
or the table.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.blocking.pipeline import BlockCollection, build_blocks
from repro.classifier.logistic import LogisticModel, fit_logistic
from repro.classifier.training import sample_balanced
from repro.eval.metrics import Effectiveness, effectiveness
from repro.features.schemes import compute_features, columns_for
from repro.features.stats import GlobalStats
from repro.core import prune_weight, prune_cardinality
from repro.core.fast_local import LocalContext

#: Default feature sets (paper Formulas 1 & 2 and the [21] baseline set).
FEATURES_21 = ("CF-IBF", "RACCB", "JS", "LCP")
FEATURES_BLAST = ("CF-IBF", "RACCB", "RS", "NRS")  # Formula 1 (paper set 78)
FEATURES_RCNP = ("CF-IBF", "RACCB", "JS", "LCP", "WJS")  # Formula 2 (set 187)


@dataclass
class DatasetArtifacts:
    """Blocking + feature artifacts shared by every method on a dataset."""

    name: str
    collection: BlockCollection
    features: DataFrame  # checkpointed: (id1, id2, 9 feature columns)
    context: LocalContext  # the one driver copy: sampler, labels, sweeps
    gstats: GlobalStats
    ground_truth: DataFrame
    gt_pdf: pd.DataFrame
    n_candidates: int
    block_quality: Effectiveness

    @property
    def features_pdf(self) -> pd.DataFrame:
        """The collected features in canonical order (a view of ``context``)."""
        return self.context.frame()

    @property
    def cep_K(self) -> int:
        """CEP's K = floor(sum of |b| / 2) (Section 3.2)."""
        return self.gstats.sum_block_sizes // 2

    @property
    def cnp_k(self) -> int:
        """CNP's k = max(1, floor(sum of |b| / #entities)) (Section 3.2)."""
        return max(1, self.gstats.sum_block_sizes // self.collection.n_entities)


@dataclass(frozen=True)
class MethodResult:
    """One (dataset, algorithm, feature set, training size, seed) run."""

    dataset: str
    algorithm: str
    feature_set: tuple[str, ...]
    n_train_per_class: int
    seed: int
    eff: Effectiveness
    runtime_s: float
    model: LogisticModel


def prepare_dataset(
    spark: SparkSession,
    name: str,
    entities: DataFrame,
    ground_truth: DataFrame,
    task: str,
) -> DatasetArtifacts:
    """Block the dataset, compute all 8 features once, checkpoint them,
    collect them into the candidate table ``LocalContext`` and measure the
    input block collection's quality from its labels (paper Table 2)."""
    collection = build_blocks(entities, task)
    features, gstats = compute_features(collection)
    # Lineage cut: every frame built on the features later (scoring,
    # pruning, evaluation) plans and schedules against one stored RDD scan,
    # not the blocking + features DAG. Lazy, so the collect below computes
    # and stores the rows in one job. The frame keeps the (id1, id2)
    # aggregation's spark.sql.shuffle.partitions partitions; a repartition
    # would shuffle |C| rows again.
    features = features.localCheckpoint(eager=False)
    gt = ground_truth.select("id1", "id2").cache()
    gt_pdf = gt.toPandas()
    # One job, which also stores the checkpoint. The context gathers each
    # column of the collected Arrow table straight into its own arrays (no
    # pandas frame of C); the table lives only for that call.
    context = LocalContext(features.toArrow(), gt_pdf)
    return DatasetArtifacts(
        name=name,
        collection=collection,
        features=features,
        context=context,
        gstats=gstats,
        ground_truth=gt,
        gt_pdf=gt_pdf,
        n_candidates=len(context.is_match),
        block_quality=context.evaluate(np.ones_like(context.is_match)),
    )


def _pruner(algorithm: str, arts: DatasetArtifacts) -> Callable[[DataFrame], DataFrame]:
    if algorithm == "BCl":
        return prune_weight.bcl
    if algorithm == "WEP":
        return prune_weight.wep
    if algorithm == "WNP":
        return prune_weight.wnp
    if algorithm == "RWNP":
        return prune_weight.rwnp
    if algorithm == "BLAST":
        return prune_weight.blast
    if algorithm == "CEP":
        return lambda s: prune_cardinality.cep(s, K=arts.cep_K)
    if algorithm == "CNP":
        return lambda s: prune_cardinality.cnp(s, k=arts.cnp_k)
    if algorithm == "RCNP":
        return lambda s: prune_cardinality.rcnp(s, k=arts.cnp_k)
    raise ValueError(f"unknown algorithm {algorithm!r}")


PRUNERS = ("BCl", "WEP", "WNP", "RWNP", "BLAST", "CEP", "CNP", "RCNP")


def score_pairs(features: DataFrame, model: LogisticModel) -> DataFrame:
    """Attach the matching probability ``p`` as a Catalyst expression."""
    return features.select("id1", "id2", model.as_spark_probability().alias("p"))


def resolve_n_train(arts: DatasetArtifacts, n_train_per_class: int) -> int:
    """Negative value selects the [21] rule: 5% of the positive class."""
    if n_train_per_class >= 0:
        return n_train_per_class
    return max(1, round(0.05 * arts.block_quality.n_matches_found))


def run_method(
    arts: DatasetArtifacts,
    algorithm: str,
    *,
    feature_set: tuple[str, ...],
    n_train_per_class: int,
    seed: int,
) -> MethodResult:
    """Train, score, prune, evaluate one configuration on one dataset."""
    cols = columns_for(feature_set)
    n_train_per_class = resolve_n_train(arts, n_train_per_class)
    t0 = time.perf_counter()
    X, y = sample_balanced(
        arts.context, cols, n_per_class=n_train_per_class, seed=seed
    )
    model = fit_logistic(X, y, cols)
    scored = score_pairs(arts.features, model)
    retained = _pruner(algorithm, arts)(scored)
    eff = effectiveness(  # single Spark job; forces execution
        retained, arts.ground_truth, n_total=arts.block_quality.n_matches_total
    )
    runtime = time.perf_counter() - t0
    return MethodResult(
        dataset=arts.name,
        algorithm=algorithm,
        feature_set=tuple(feature_set),
        n_train_per_class=n_train_per_class,
        seed=seed,
        eff=eff,
        runtime_s=runtime,
        model=model,
    )
