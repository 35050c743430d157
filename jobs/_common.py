"""Shared plumbing for the spark-submit job entrypoints.

Each ``jobs/<name>.py`` wraps one function from ``repro.eval.tables``:
``run_job`` builds a local session with ``get_session``, runs the experiment,
prints the table as markdown and writes it under ``results/``.
``get_session`` is the one definition of the sandbox Spark config: the root
conftest's ``spark`` fixture builds its session here too, and under pytest
jobs never create a second session because ``getOrCreate`` returns the
active one.
"""
import os
import pathlib
from typing import Callable

from pyspark.sql import SparkSession

from repro.eval.harness import to_markdown  # noqa: F401  (re-exported)


def get_session(app: str) -> SparkSession:
    """Local session with the sandbox config; none of it changes a result.

    - 8 shuffle partitions (``SPARK_SHUFFLE_PARTITIONS`` overrides): the
      datasets here are small, and per-stage scheduling overhead dominates.
    - Adaptive Query Execution off: AQE's per-stage driver-side replanning is
      pathologically slow under this sandbox's virtualisation (a cached
      2.4k-row scan takes ~20s with AQE vs ~0.3s without — measured, not
      guessed).
    - Broadcast joins off, so the joins exercise the shuffle path; Arrow on
      for the driver-side collects.
    - ``spark.driver.maxResultSize`` 4g: preparing the biggest analogs
      collects a multi-million-row feature frame once per dataset.

    Master and driver memory must be fixed before the JVM launches, so they
    come from ``PYSPARK_SUBMIT_ARGS``; it is filled in here only when unset
    (the root conftest and the benchmark set their own).
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS", "--master local[*] --driver-memory 16g pyspark-shell"
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.maxResultSize", "4g")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def run_job(name: str, render: Callable[[SparkSession], str]) -> None:
    """Print the markdown ``render`` builds and write it to ``results/<name>.md``."""
    md = render(get_session(name))
    print(md)
    out = pathlib.Path(__file__).resolve().parent.parent / "results" / f"{name}.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(md + "\n")
    print(f"wrote {out}")
