"""One function per paper table/section — the reproduction harnesses.

Each ``table*``/``section*`` function takes the SparkSession (plus knobs),
runs the experiment on the synthetic analogs and returns a tidy pandas frame
whose rows mirror the paper's table. ``RESULTS`` maps each committed
``results/<name>.md`` to the calls that produce it; ``python jobs/run.py
<name>`` regenerates it.

Engine choice per experiment (DESIGN.md §5): tables that report run-times
(5, 6, 7, scalability) execute the Spark pipeline; pure-effectiveness sweeps
(Tables 3/4, Sections 5.2/5.4) use the NumPy engine ``core.fast_local`` —
equivalence-tested against Spark on Clean-Clean and Dirty data — because
they need thousands of tiny runs, not dataflow timing. They run on
``arts.context``, the candidate table ``prepare_dataset`` built with the
artifacts, so each dataset has one driver-side copy of its candidates.

Paper-reported numbers are bundled as ``PAPER_*`` constants so harnesses and
EXPERIMENTS.md can print paper-vs-measured side by side.
"""
from __future__ import annotations

from typing import Callable, Iterable

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pipeline import (
    FEATURES_21,
    FEATURES_BLAST,
    FEATURES_RCNP,
    DatasetArtifacts,
    prepare_dataset,
    run_method,
)
from repro.core.sweep import sweep_dataset, top_feature_sets
from repro.er_data.datasets import (
    CLEAN_CLEAN_ANALOGS,
    PAPER_TABLE1,
    SCALABILITY_ANALOGS,
    load_analog,
)
from repro.eval.harness import MethodSpec
from repro.features.schemes import columns_for

#: In-process artifact cache: every table shares one blocking+features pass
#: per dataset (exactly like the paper, which builds blocks once), and with
#: it the dataset's one driver-side candidate table, ``arts.context``.
_ARTIFACTS: dict[str, DatasetArtifacts] = {}


def get_artifacts(spark: SparkSession, name: str) -> DatasetArtifacts:
    """Blocking + feature artifacts for an analog, memoised per process."""
    if name not in _ARTIFACTS:
        entities, gt, task = load_analog(spark, name)
        _ARTIFACTS[name] = prepare_dataset(spark, name, entities, gt, task)
    return _ARTIFACTS[name]


def _clean_names(names: Iterable[str] | None) -> list[str]:
    return list(names) if names is not None else list(CLEAN_CLEAN_ANALOGS)


def _dirty_names(names: Iterable[str] | None) -> list[str]:
    return list(names) if names is not None else list(SCALABILITY_ANALOGS)


# --------------------------------------------------------------------------
# Table 1 — dataset characteristics
# --------------------------------------------------------------------------
def table1(spark: SparkSession, names: Iterable[str] | None = None) -> pd.DataFrame:
    """|E1|, |E2|, |D|, |C| per Clean-Clean analog, next to the paper's."""
    rows = []
    for name in _clean_names(names):
        arts = get_artifacts(spark, name)
        cfg = CLEAN_CLEAN_ANALOGS[name]
        paper = PAPER_TABLE1[name]
        rows.append(
            {
                "dataset": name,
                "E1": cfg.n_matches + cfg.n_only1,
                "E2": cfg.n_matches + cfg.n_only2,
                "D": cfg.n_matches,
                "C": arts.n_candidates,
                "paper_E1": paper["E1"],
                "paper_E2": paper["E2"],
                "paper_D": paper["D"],
                "paper_C": paper["C"],
            }
        )
    return pd.DataFrame(rows)


def table1b(spark: SparkSession, names: Iterable[str] | None = None) -> pd.DataFrame:
    """Characteristics of the Dirty-ER scalability analogs (paper Table 1b)."""
    rows = []
    for name in _dirty_names(names):
        arts = get_artifacts(spark, name)
        cfg = SCALABILITY_ANALOGS[name]
        rows.append(
            {
                "dataset": name,
                "E": 2 * cfg.n_matches + cfg.n_only1,
                "D": cfg.n_matches,
                "C": arts.n_candidates,
                "paper_E": cfg.metadata["paper_entities"],
            }
        )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Table 2 — input block-collection quality
# --------------------------------------------------------------------------
PAPER_TABLE2 = {
    "AbtBuy": (0.948, 2.78e-2, 5.40e-2),
    "DblpAcm": (0.999, 4.81e-2, 9.18e-2),
    "ScholarDblp": (0.998, 2.80e-3, 5.58e-3),
    "AmazonGP": (0.840, 1.29e-2, 2.54e-2),
    "ImdbTmdb": (0.988, 1.78e-2, 3.50e-2),
    "ImdbTvdb": (0.985, 8.90e-3, 1.76e-2),
    "TmdbTvdb": (0.989, 5.50e-3, 1.09e-2),
    "Movies": (0.976, 8.59e-4, 1.72e-3),
    "WalmartAmazon": (1.000, 4.22e-5, 8.44e-5),
}


def table2(spark: SparkSession, names: Iterable[str] | None = None) -> pd.DataFrame:
    """Recall/precision/F1 of the blocks fed to (G)SM, vs paper Table 2."""
    rows = []
    for name in _clean_names(names):
        q = get_artifacts(spark, name).block_quality
        p = PAPER_TABLE2[name]
        rows.append(
            {
                "dataset": name,
                "recall": q.recall,
                "precision": q.precision,
                "f1": q.f1,
                "paper_recall": p[0],
                "paper_precision": p[1],
                "paper_f1": p[2],
            }
        )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Tables 3 & 4 — brute-force feature-set sweeps (local engine)
# --------------------------------------------------------------------------
def _sweep(
    spark: SparkSession,
    algorithm: str,
    names: Iterable[str] | None,
    n_train_per_class: int,
    seeds: list[int],
    top: int,
) -> pd.DataFrame:
    per_dataset = []
    for name in _clean_names(names):
        arts = get_artifacts(spark, name)
        per_dataset.append(
            sweep_dataset(
                arts.features_pdf,
                arts.gt_pdf,
                algorithm,
                n_train_per_class=n_train_per_class,
                seeds=seeds,
                K=arts.cep_K,
                k=arts.cnp_k,
                context=arts.context,
            )
        )
    return top_feature_sets(per_dataset, n=top)


def table3(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    n_train_per_class: int = 250,
    seeds: list[int] | None = None,
    top: int = 10,
) -> pd.DataFrame:
    """Top-``top`` feature sets for BLAST over all 255 combinations."""
    return _sweep(spark, "BLAST", names, n_train_per_class, seeds or [1], top)


def table4(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    n_train_per_class: int = 250,
    seeds: list[int] | None = None,
    top: int = 10,
) -> pd.DataFrame:
    """Top-``top`` feature sets for RCNP over all 255 combinations."""
    return _sweep(spark, "RCNP", names, n_train_per_class, seeds or [1], top)


# --------------------------------------------------------------------------
# Tables 5 & 7 — final weight-/cardinality-based comparison (Spark engine)
# --------------------------------------------------------------------------
PAPER_TABLE5 = {
    # dataset: (BLAST re/pr/f1, BCl1 re/pr/f1, BCl2 re/pr/f1)
    "AbtBuy": ((0.8345, 0.2037, 0.3265), (0.8345, 0.1821, 0.2981), (0.8183, 0.2039, 0.3261)),
    "DblpAcm": ((0.9511, 0.6509, 0.7690), (0.9521, 0.5971, 0.7303), (0.9513, 0.6130, 0.7425)),
    "ScholarDblp": ((0.9638, 0.3418, 0.4988), (0.9588, 0.3595, 0.5195), (0.9303, 0.3921, 0.5401)),
    "AmazonGP": ((0.7001, 0.1441, 0.2385), (0.6265, 0.1607, 0.2572), (0.7316, 0.1131, 0.1908)),
    "ImdbTmdb": ((0.8223, 0.5756, 0.6726), (0.7889, 0.6445, 0.7086), (0.7872, 0.5969, 0.6604)),
    "ImdbTvdb": ((0.7483, 0.2304, 0.3456), (0.6966, 0.2616, 0.3785), (0.7074, 0.2323, 0.3395)),
    "TmdbTvdb": ((0.8466, 0.2477, 0.3770), (0.6972, 0.3737, 0.4613), (0.8172, 0.2312, 0.2991)),
    "Movies": ((0.9151, 0.1300, 0.2221), (0.9039, 0.0972, 0.1735), (0.9100, 0.0239, 0.0465)),
    "WalmartAmazon": ((0.9587, 0.0025, 0.0050), (0.9500, 0.0020, 0.0041), (0.5757, 0.0001, 0.0001)),
}

PAPER_TABLE7 = {
    # dataset: (RCNP re/pr/f1, CNP1 re/pr/f1, CNP2 re/pr/f1)
    "AbtBuy": ((0.8405, 0.1764, 0.2914), (0.8294, 0.1797, 0.2939), (0.8347, 0.1895, 0.3081)),
    "DblpAcm": ((0.9759, 0.6463, 0.7747), (0.9613, 0.5984, 0.7355), (0.9539, 0.6158, 0.7457)),
    "ScholarDblp": ((0.9623, 0.3591, 0.5190), (0.9218, 0.3745, 0.5095), (0.9581, 0.2184, 0.3453)),
    "AmazonGP": ((0.7358, 0.1264, 0.2148), (0.7462, 0.1031, 0.1748), (0.7742, 0.0848, 0.1514)),
    "ImdbTmdb": ((0.8395, 0.3540, 0.4971), (0.8045, 0.5471, 0.6394), (0.8345, 0.4132, 0.5247)),
    "ImdbTvdb": ((0.7465, 0.2325, 0.3498), (0.7615, 0.1867, 0.2847), (0.7641, 0.1764, 0.2754)),
    "TmdbTvdb": ((0.8696, 0.1848, 0.2954), (0.8641, 0.1720, 0.2487), (0.8677, 0.1484, 0.2363)),
    "Movies": ((0.9275, 0.0992, 0.1758), (0.8200, 0.0090, 0.0177), (0.9347, 0.0291, 0.0564)),
    "WalmartAmazon": ((0.9122, 0.0050, 0.0100), (0.7087, 0.0002, 0.0004), (0.2332, 0.0001, 0.0002)),
}


def _spark_grid(
    spark: SparkSession,
    names: list[str],
    specs: list[MethodSpec],
    seeds: list[int],
) -> pd.DataFrame:
    """One row per (dataset, method): effectiveness and RT of the Spark
    pipeline, averaged over ``seeds`` (the paper averages 10 runs; the
    tables here default to 2–3, see EXPERIMENTS.md)."""
    rows = []
    for name in names:
        arts = get_artifacts(spark, name)
        for spec in specs:
            effs, rts = [], []
            for seed in seeds:
                res = run_method(
                    arts,
                    spec.algorithm,
                    feature_set=spec.feature_set,
                    n_train_per_class=spec.n_train_per_class,
                    seed=seed,
                )
                effs.append(res.eff)
                rts.append(res.runtime_s)
            rows.append(
                {
                    "dataset": name,
                    "method": spec.label,
                    "n_candidates": arts.n_candidates,
                    "recall": sum(e.recall for e in effs) / len(effs),
                    "precision": sum(e.precision for e in effs) / len(effs),
                    "f1": sum(e.f1 for e in effs) / len(effs),
                    "rt_s": sum(rts) / len(rts),
                }
            )
    return pd.DataFrame(rows)


def _final_comparison(
    spark: SparkSession,
    specs: list[MethodSpec],
    paper: dict[str, tuple],
    names: Iterable[str] | None,
    seeds: list[int],
) -> pd.DataFrame:
    df = _spark_grid(spark, _clean_names(names), specs, seeds)
    spec_index = {spec.label: si for si, spec in enumerate(specs)}
    cells = [
        paper[d][spec_index[m]] if d in paper else (None, None, None)
        for d, m in zip(df["dataset"], df["method"])
    ]
    df[["paper_recall", "paper_precision", "paper_f1"]] = cells
    return df.drop(columns="n_candidates")


def table5(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    seeds: list[int] | None = None,
) -> pd.DataFrame:
    """BLAST vs BCl1 vs BCl2 per dataset (weight-based finals)."""
    specs = [
        MethodSpec("BLAST", "BLAST", FEATURES_BLAST, 25),
        MethodSpec("BCl1", "BCl", FEATURES_BLAST, 25),
        MethodSpec("BCl2", "BCl", FEATURES_21, -1),
    ]
    return _final_comparison(spark, specs, PAPER_TABLE5, names, seeds or [1, 2, 3])


def table7(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    seeds: list[int] | None = None,
) -> pd.DataFrame:
    """RCNP vs CNP1 vs CNP2 per dataset (cardinality-based finals)."""
    specs = [
        MethodSpec("RCNP", "RCNP", FEATURES_RCNP, 25),
        MethodSpec("CNP1", "CNP", FEATURES_RCNP, 25),
        MethodSpec("CNP2", "CNP", FEATURES_21, -1),
    ]
    return _final_comparison(spark, specs, PAPER_TABLE7, names, seeds or [1, 2, 3])


# --------------------------------------------------------------------------
# Table 6 — the trained models across iterations (Spark engine)
# --------------------------------------------------------------------------
PAPER_TABLE6 = pd.DataFrame(
    {
        "term": ["CF-IBF", "RACCB", "NRS", "RS", "Intercept",
                 "Candidate pairs", "Detected duplicates"],
        "iter1": [-0.1814, 10.8719, -1.3549, -45.1, 41.7934, 8_195_251, 83_031],
        "iter2": [-0.1173, -24.9254, -15.7979, -56.5986, 45.4136, 172_824, 76_868],
        "iter3": [-0.1522, -7.3026, -1.7269, -130.687, 56.702, 185_034, 79_263],
    }
)


def table6(
    spark: SparkSession,
    dataset: str = "D100K",
    *,
    seeds: list[int] | None = None,
) -> pd.DataFrame:
    """BLAST's logistic-regression models over the D100K analog: raw-space
    coefficients, retained candidates and detected duplicates per iteration."""
    seeds = seeds or [1, 2, 3]
    arts = get_artifacts(spark, dataset)
    cols = columns_for(FEATURES_BLAST)
    data: dict[str, list] = {"term": [*FEATURES_BLAST, "Intercept",
                                      "Candidate pairs", "Detected duplicates"]}
    for i, seed in enumerate(seeds, start=1):
        res = run_method(
            arts, "BLAST", feature_set=FEATURES_BLAST,
            n_train_per_class=25, seed=seed,
        )
        coef = dict(zip(res.model.columns, res.model.coef))
        data[f"iter{i}"] = [
            *[coef[c] for c in cols],
            res.model.intercept,
            res.eff.n_pairs,
            res.eff.n_matches_found,
        ]
    return pd.DataFrame(data)


# --------------------------------------------------------------------------
# Section 5.2 — pruning-algorithm selection (local engine; Figs 5 & 6)
# --------------------------------------------------------------------------
WEIGHT_ALGOS = ("BCl", "WEP", "WNP", "RWNP", "BLAST")
CARD_ALGOS = ("CEP", "CNP", "RCNP")

#: Average effectiveness read off the paper's Figures 5 and 6 prose:
#: RWNP F1 0.374, WEP 0.366; BLAST beats WEP on all measures; RCNP best
#: cardinality algorithm. Exact bar values are not printed in the paper.
PAPER_SECTION52 = {
    "RWNP_f1": 0.374,
    "WEP_f1": 0.366,
}


def section52(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    n_train_per_class: int = 250,
    seeds: list[int] | None = None,
) -> pd.DataFrame:
    """All 8 supervised pruning algorithms with the [21] feature set,
    averaged over the analogs (the paper's Figures 5/6 as a table)."""
    seeds = seeds or [1, 2, 3]
    rows = []
    for name in _clean_names(names):
        arts = get_artifacts(spark, name)
        for algo in (*WEIGHT_ALGOS, *CARD_ALGOS):
            for seed in seeds:
                eff = arts.context.run(
                    algo,
                    columns_for(FEATURES_21),
                    n_train_per_class=n_train_per_class,
                    seed=seed,
                    K=arts.cep_K,
                    k=arts.cnp_k,
                )
                rows.append(
                    {
                        "algorithm": algo,
                        "dataset": name,
                        "recall": eff.recall,
                        "precision": eff.precision,
                        "f1": eff.f1,
                    }
                )
    df = pd.DataFrame(rows)
    return (
        df.groupby("algorithm", sort=False, as_index=False)[
            ["recall", "precision", "f1"]
        ].mean()
    )


# --------------------------------------------------------------------------
# Section 5.4 — training-set size effect (local engine; Figs 11/13/14)
# --------------------------------------------------------------------------
def section54(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    sizes: list[int] | None = None,
    seeds: list[int] | None = None,
) -> pd.DataFrame:
    """Recall/precision/F1 of BLAST, RCNP and BCl as the number of labelled
    instances grows (total instances, balanced; the paper's 20..500 grid)."""
    sizes = sizes or [20, 50, 100, 200, 300, 400, 500]
    seeds = seeds or [1, 2, 3]
    grid = [
        ("BLAST", FEATURES_BLAST),
        ("RCNP", FEATURES_RCNP),
        ("BCl", FEATURES_BLAST),
    ]
    rows = []
    for name in _clean_names(names):
        arts = get_artifacts(spark, name)
        for algo, feats in grid:
            for size in sizes:
                for seed in seeds:
                    eff = arts.context.run(
                        algo,
                        columns_for(feats),
                        n_train_per_class=max(1, size // 2),
                        seed=seed,
                        K=arts.cep_K,
                        k=arts.cnp_k,
                    )
                    rows.append(
                        {
                            "algorithm": algo,
                            "size": size,
                            "dataset": name,
                            "recall": eff.recall,
                            "precision": eff.precision,
                            "f1": eff.f1,
                        }
                    )
    df = pd.DataFrame(rows)
    return (
        df.groupby(["algorithm", "size"], sort=False, as_index=False)[
            ["recall", "precision", "f1"]
        ].mean()
    )


# --------------------------------------------------------------------------
# Section 5.5 — scalability over the Dirty analogs (Spark engine; Figs 17/18)
# --------------------------------------------------------------------------
def section55(
    spark: SparkSession,
    names: Iterable[str] | None = None,
    *,
    seeds: list[int] | None = None,
) -> pd.DataFrame:
    """Effectiveness + run-time + speedup of BCl/BLAST/CNP/RCNP over the
    growing Dirty-ER analogs. speedup = (|C|/|C_base|) * (RT_base/RT),
    base = the smallest dataset, values near 1 = linear scaling."""
    seeds = seeds or [1, 2]
    names = _dirty_names(names)
    specs = [
        MethodSpec("BCl", "BCl", FEATURES_21, -1),
        MethodSpec("BLAST", "BLAST", FEATURES_BLAST, 25),
        MethodSpec("CNP", "CNP", FEATURES_21, -1),
        MethodSpec("RCNP", "RCNP", FEATURES_RCNP, 25),
    ]
    df = _spark_grid(spark, names, specs, seeds)
    base = df[df["dataset"] == names[0]].set_index("method")
    df["speedup"] = [
        (r["n_candidates"] / base.loc[r["method"], "n_candidates"])
        * (base.loc[r["method"], "rt_s"] / r["rt_s"])
        for _, r in df.iterrows()
    ]
    return df


# --------------------------------------------------------------------------
# Registry — the one producer of each committed results/<name>.md
# --------------------------------------------------------------------------
#: Keyed by the stem of the results file; each entry runs its harnesses with
#: their defaults and returns the frames in the order the file shows them.
RESULTS: dict[str, Callable[[SparkSession], list[pd.DataFrame]]] = {
    "table1": lambda spark: [table1(spark), table1b(spark)],
    "table2": lambda spark: [table2(spark)],
    "table3": lambda spark: [table3(spark)],
    "table4": lambda spark: [table4(spark)],
    "table5": lambda spark: [table5(spark)],
    "table6": lambda spark: [table6(spark)],
    "table7": lambda spark: [table7(spark)],
    "section52": lambda spark: [section52(spark)],
    "section54": lambda spark: [section54(spark)],
    "section55": lambda spark: [section55(spark)],
}
