"""The gate and the traced run against a real Spark session (AbtBuy analog)."""
import dataclasses

import pytest

import checks
import run
from repro.eval.metrics import Effectiveness
from tracer import SparkStages, Tracer

WL = run.Workload(
    "AbtBuy",
    methods=(run.Method("BCl", "BCl", run.F_BLAST, 25), run.Method("CNP", "CNP", run.F21, -1)),
)


@pytest.fixture(scope="module")
def session(spark):
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    return spark


def test_gate_counts_a_doctored_result_as_failed(session):
    m = run.measure(WL, session, seed=3, seconds=0)
    findings = run.gate(WL, m, seed=3)
    assert checks.summarize(findings) == (0, True), findings

    res = m.ops[0].result
    eff = res.eff
    m.ops[0].result = dataclasses.replace(
        res, eff=Effectiveness(eff.n_pairs + 1, eff.n_matches_found, eff.n_matches_total))
    findings = run.gate(WL, m, seed=3)
    assert [(f.op, f.kind) for f in findings] == [("BCl", "engines")]
    assert checks.summarize(findings) == (1, True)


def test_traced_run_reports_every_layer_metric(session):
    import repro.core.pipeline as pl

    orig = pl.run_method
    tr = Tracer(SparkStages(session.sparkContext))
    run.install_spans(tr)
    try:
        with tr.span("workload") as ws:
            m = run.measure(WL, session, seed=3, seconds=0)
        with tr.span("gate"):
            run.gate(WL, m, seed=3)
    finally:
        tr.unwrap_all()
    assert pl.run_method is orig
    metrics = run.per_layer(tr, m, ws, run.memory_peaks())
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["features.candidates"] == m.arts.n_candidates
    assert metrics["blocking.assignments"] > 0 and metrics["blocking.stages"] > 0
    assert metrics["core.rt.BCl.stages"] > 0 and metrics["core.rt.BLAST.stages"] == 0
    assert metrics["classifier.train_rows"] > 0 and metrics["fast_local.prune_s"] > 0
    assert 0 < metrics["spark.busy_ratio"] <= 1
    for name, unit in run.PER_LAYER.items():
        if unit == "count":
            assert isinstance(metrics[name], int), name
