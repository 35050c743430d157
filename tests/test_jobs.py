"""Smoke tests: the results entrypoint ``jobs/run.py`` covers every committed
table through the ``RESULTS`` registry and writes what it prints; the cheap
harnesses run end-to-end on one analog."""
import io
import pathlib

import pandas as pd
import pytest

from jobs import _common, run
from repro.eval.harness import to_markdown
from repro.eval.tables import RESULTS

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


class TestJobModules:
    @pytest.mark.parametrize("name", list(RESULTS))
    def test_importable_with_main(self, name):
        assert callable(run.main)
        assert callable(RESULTS[name])

    def test_registry_covers_committed_results(self):
        assert set(RESULTS) == {p.stem for p in RESULTS_DIR.glob("*.md")}

    def test_main_prints_and_writes_markdown(self, monkeypatch, tmp_path, capsys):
        df = pd.DataFrame({"dataset": ["X"], "f1": [0.5]})
        monkeypatch.setattr(run, "RESULTS", {"stub": lambda spark: [df]})
        monkeypatch.setattr(run, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(run, "get_session", lambda app: None)
        run.main(["stub"])
        assert (tmp_path / "stub.md").read_text() == to_markdown(df) + "\n"
        assert capsys.readouterr().out.startswith(to_markdown(df) + "\n")

    def test_unknown_name_exits_before_session(self, monkeypatch):
        def no_session(app):
            raise AssertionError("a session was built for an unknown name")

        monkeypatch.setattr(run, "get_session", no_session)
        with pytest.raises(SystemExit) as exc:
            run.main(["table1", "no_such_table"])
        assert exc.value.code not in (0, None)


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


class TestDriverMemory:
    """Without ``SPARK_DRIVER_MEM`` and without a readable cgroup limit,
    the driver heap is half of MemTotal in whole GiB, clamped to [2, 8]."""

    @pytest.mark.parametrize(
        "meminfo, expected",
        [
            ("MemTotal:       16479424 kB\n", "7g"),
            ("MemFree: 1 kB\nMemTotal: 67108864 kB\n", "8g"),
            ("MemTotal: 2097152 kB\n", "2g"),
            (None, "2g"),
        ],
        ids=["16GB", "64GB", "2GB", "unreadable"],
    )
    def test_meminfo_rule_without_cgroup(self, monkeypatch, meminfo, expected):
        def only_meminfo(path, *a, **k):
            if path == "/proc/meminfo" and meminfo is not None:
                return io.StringIO(meminfo)
            raise FileNotFoundError(path)

        monkeypatch.setattr(_common, "open", only_meminfo, raising=False)
        monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
        monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
        assert _common._driver_mem() == expected
