import os
import sys

import pytest
from pyspark.sql import SparkSession


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Every setting, master and driver memory included, is the sandbox config
    of ``jobs._common.get_session``, shared with ``jobs/run.py`` and the
    benchmark.
    """
    from jobs._common import get_session

    s = get_session("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()


@pytest.fixture(params=[1, 7, 64])
def shuffle_partitions(spark, request):
    """Run a test at several ``spark.sql.shuffle.partitions``; the session's
    own value is restored afterwards."""
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", request.param)
    yield request.param
    spark.conf.set("spark.sql.shuffle.partitions", old)
