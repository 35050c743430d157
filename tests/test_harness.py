"""Tests for the experiment harness (grid evaluation + markdown)."""
import pandas as pd
import pytest

from repro.core.fast_local import LocalContext
from repro.core.pipeline import FEATURES_21, FEATURES_BLAST
from repro.eval import tables
from repro.eval.harness import MethodSpec, to_markdown
from repro.eval.tables import _spark_grid

BCL = MethodSpec("BCl", "BCl", FEATURES_21, 10)


class TestEvaluateGrid:
    """``tables._spark_grid``, the one Spark grid runner of Tables 5/7 and
    Section 5.5 (AbtBuy artifacts are shared with tests/test_jobs.py)."""

    def test_grid_shape_and_columns(self, spark):
        specs = [MethodSpec("BLAST", "BLAST", FEATURES_BLAST, 10), BCL]
        grid = _spark_grid(spark, ["AbtBuy"], specs, [1, 2])
        assert list(grid.columns) == [
            "dataset", "method", "n_candidates", "recall", "precision", "f1", "rt_s"
        ]
        assert list(grid["method"]) == ["BLAST", "BCl"]
        assert grid["recall"].between(0, 1).all()
        assert (grid["rt_s"] > 0).all()

    def test_summarize_means_over_seeds(self, spark):
        grid = _spark_grid(spark, ["AbtBuy"], [BCL], [1, 2])
        single = [_spark_grid(spark, ["AbtBuy"], [BCL], [s]) for s in (1, 2)]
        assert len(grid) == 1
        for col in ("recall", "precision", "f1"):
            want = (single[0].loc[0, col] + single[1].loc[0, col]) / 2
            assert grid.loc[0, col] == pytest.approx(want)


class TestOneContextPerDataset:
    def test_sweep_and_grid_share_the_prepared_context(self, spark, monkeypatch):
        """The NumPy-engine tables read ``arts.context``: preparing AbtBuy,
        sweeping it and running Section 5.2 builds one ``LocalContext``."""
        built = []
        init = LocalContext.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LocalContext, "__init__", counting)
        monkeypatch.setattr(tables, "_ARTIFACTS", {})
        tables.table3(spark, ["AbtBuy"], top=3)
        tables.section52(spark, ["AbtBuy"], seeds=[1])
        assert len(built) == 1


class TestToMarkdown:
    def test_renders_gfm(self):
        df = pd.DataFrame({"a": [1, 2], "b": [0.5, 0.25]})
        md = to_markdown(df)
        lines = md.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 0.5000 |"

    def test_custom_float_format(self):
        df = pd.DataFrame({"x": [0.123456]})
        assert "0.12" in to_markdown(df, floatfmt="%.2f")
