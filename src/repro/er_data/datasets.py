"""Named synthetic analogs of the paper's evaluation datasets.

One ``ERConfig`` per paper dataset, scaled ~10x down (DESIGN.md §4.1-4.2) and
tuned so each analog sits in the same blocking regime as its counterpart:
near-perfect block recall everywhere except the noisy AmazonGP analog, very
low precision everywhere, and Movies/WalmartAmazon analogs dominating the
candidate-pair counts. ``metadata`` carries the paper's published numbers so
harnesses can print paper-vs-measured side by side.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.er_data.generator import ERConfig, clean_clean, dirty, to_spark

#: Paper Table 1 (real-world Clean-Clean datasets), for EXPERIMENTS.md diffs.
PAPER_TABLE1 = {
    "AbtBuy": dict(E1=1100, E2=1100, D=1100, C=36_700),
    "DblpAcm": dict(E1=2600, E2=2300, D=2200, C=46_200),
    "ScholarDblp": dict(E1=2500, E2=61_300, D=2300, C=83_300),
    "AmazonGP": dict(E1=1400, E2=3300, D=1300, C=84_400),
    "ImdbTmdb": dict(E1=5100, E2=6000, D=1900, C=109_400),
    "ImdbTvdb": dict(E1=5100, E2=7800, D=1100, C=119_100),
    "TmdbTvdb": dict(E1=6000, E2=7800, D=1100, C=198_600),
    "Movies": dict(E1=27_600, E2=23_100, D=22_800, C=26_000_000),
    "WalmartAmazon": dict(E1=2500, E2=22_100, D=1100, C=27_400_000),
}

#: Clean-Clean analogs, ordered as in paper Table 1 (increasing |C|).
CLEAN_CLEAN_ANALOGS: dict[str, ERConfig] = {
    "AbtBuy": ERConfig(
        n_matches=350, n_only1=30, n_only2=30, vocab_size=2500,
        p_drop=0.25, p_noise=0.08, seed=101,
        metadata={"paper": PAPER_TABLE1["AbtBuy"]},
    ),
    "DblpAcm": ERConfig(
        n_matches=500, n_only1=100, n_only2=30, vocab_size=4000,
        p_drop=0.05, p_noise=0.02, seed=102,
        metadata={"paper": PAPER_TABLE1["DblpAcm"]},
    ),
    "ScholarDblp": ERConfig(
        n_matches=450, n_only1=50, n_only2=2500, vocab_size=6000,
        p_drop=0.08, p_noise=0.03, seed=103,
        metadata={"paper": PAPER_TABLE1["ScholarDblp"]},
    ),
    "AmazonGP": ERConfig(
        n_matches=300, n_only1=50, n_only2=600, vocab_size=2500,
        p_drop=0.38, p_noise=0.14, seed=104,
        metadata={"paper": PAPER_TABLE1["AmazonGP"]},
    ),
    "ImdbTmdb": ERConfig(
        n_matches=380, n_only1=640, n_only2=820, vocab_size=3500,
        p_drop=0.12, p_noise=0.05, seed=105,
        metadata={"paper": PAPER_TABLE1["ImdbTmdb"]},
    ),
    "ImdbTvdb": ERConfig(
        n_matches=220, n_only1=800, n_only2=1340, vocab_size=3500,
        p_drop=0.15, p_noise=0.06, seed=106,
        metadata={"paper": PAPER_TABLE1["ImdbTvdb"]},
    ),
    "TmdbTvdb": ERConfig(
        n_matches=220, n_only1=980, n_only2=1340, vocab_size=3000,
        p_drop=0.15, p_noise=0.06, seed=107,
        metadata={"paper": PAPER_TABLE1["TmdbTvdb"]},
    ),
    "Movies": ERConfig(
        n_matches=2200, n_only1=560, n_only2=100, vocab_size=1400,
        tokens_per_entity=8, p_drop=0.12, p_noise=0.05, seed=108,
        metadata={"paper": PAPER_TABLE1["Movies"]},
    ),
    "WalmartAmazon": ERConfig(
        n_matches=250, n_only1=0, n_only2=1950, vocab_size=600,
        extra_tokens_2=8, p_drop=0.18, p_noise=0.07, seed=109,
        metadata={"paper": PAPER_TABLE1["WalmartAmazon"]},
    ),
}

#: Dirty-ER scalability analogs (paper: 10K..300K entities; ours: 10x down).
#: Names keep the paper's labels; "scale" records the down-scaling factor.
SCALABILITY_ANALOGS: dict[str, ERConfig] = {
    # common_pool scales with |E| so the stop-word-like blocks stay ~50
    # entities: a fixed pool would make them quadratic in |E| and blow up
    # |C| (and driver memory) at the larger scales.
    name: ERConfig(
        n_matches=int(total * 0.3),
        n_only1=int(total * 0.4),
        vocab_size=max(1500, total * 2),
        tokens_per_entity=7,
        p_drop=0.10,
        p_noise=0.04,
        common_pool=max(15, total // 25),
        seed=200 + i,
        metadata={"paper_entities": total * 10, "scale": 0.1},
    )
    for i, (name, total) in enumerate(
        [("D10K", 1000), ("D50K", 5000), ("D100K", 10_000),
         ("D200K", 20_000), ("D300K", 30_000)]
    )
}


def analog_pandas(name: str, *, seed: int | None = None) -> tuple[pd.DataFrame, pd.DataFrame, str]:
    """Generate a named analog as pandas frames.

    Returns ``(entities, ground_truth, task)`` where ``task`` is
    ``"clean"`` or ``"dirty"``. ``seed`` overrides the config's seed (used by
    the scalability iterations).
    """
    if name in CLEAN_CLEAN_ANALOGS:
        cfg, task, gen = CLEAN_CLEAN_ANALOGS[name], "clean", clean_clean
    elif name in SCALABILITY_ANALOGS:
        cfg, task, gen = SCALABILITY_ANALOGS[name], "dirty", dirty
    else:
        raise KeyError(f"unknown analog dataset {name!r}")
    if seed is not None:
        cfg = ERConfig(**{**cfg.__dict__, "seed": seed})
    ent, gt = gen(cfg)
    return ent, gt, task


def load_analog(
    spark: SparkSession, name: str, *, seed: int | None = None
) -> tuple[DataFrame, DataFrame, str]:
    """:func:`analog_pandas`, materialised as Spark frames."""
    ent, gt, task = analog_pandas(name, seed=seed)
    return to_spark(spark, ent), to_spark(spark, gt), task
