"""Smoke tests: every job entrypoint is importable and wired to a real
harness function; the cheap harnesses run end-to-end on one analog."""
import importlib.util
import pathlib

import pytest

JOBS_DIR = pathlib.Path(__file__).resolve().parent.parent / "jobs"
JOB_NAMES = [
    "table1_datasets",
    "table2_blocks",
    "table3_sweep_blast",
    "table4_sweep_rcnp",
    "table5_weight_final",
    "table6_models",
    "table7_cardinality_final",
    "section52_algorithms",
    "section54_training_size",
    "section55_scalability",
]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, JOBS_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestJobModules:
    @pytest.mark.parametrize("name", JOB_NAMES)
    def test_importable_with_main(self, name):
        mod = _load(name)
        assert callable(mod.main)


class TestHarnessSmoke:
    """Run the cheaper harnesses on a single small analog."""

    def test_table2_single_dataset(self, spark):
        from repro.eval.tables import table2

        df = table2(spark, names=["AbtBuy"])
        assert len(df) == 1
        row = df.iloc[0]
        assert row["recall"] > 0.8 and row["precision"] < 0.2

    def test_table5_single_dataset_single_seed(self, spark):
        from repro.eval.tables import table5

        df = table5(spark, names=["AbtBuy"], seeds=[1])
        assert list(df["method"]) == ["BLAST", "BCl1", "BCl2"]
        assert df["f1"].between(0, 1).all()

    def test_section54_small_grid(self, spark):
        from repro.eval.tables import section54

        df = section54(spark, names=["AbtBuy"], sizes=[20, 100], seeds=[1])
        assert set(df["size"]) == {20, 100}
        assert set(df["algorithm"]) == {"BLAST", "RCNP", "BCl"}

    def test_artifact_cache_is_shared(self, spark):
        from repro.eval.tables import get_artifacts

        a = get_artifacts(spark, "AbtBuy")
        b = get_artifacts(spark, "AbtBuy")
        assert a is b


class TestSandboxSession:
    def test_spark_fixture_has_the_sandbox_config(self, spark):
        """The one sandbox config (``jobs._common.get_session``) is what the
        test session runs with."""
        conf = spark.sparkContext.getConf()
        assert spark.conf.get("spark.sql.shuffle.partitions") == "8"
        assert spark.conf.get("spark.sql.adaptive.enabled") == "false"
        assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
        assert spark.conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
        assert conf.get("spark.driver.maxResultSize") == "4g"
        assert conf.get("spark.ui.enabled") == "false"
        log4j = spark.sparkContext._jvm.org.apache.logging.log4j.LogManager
        assert str(log4j.getRootLogger().getLevel()) == "ERROR"
