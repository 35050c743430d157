"""The one definition of the sandbox Spark config.

``get_session`` builds the local session for ``jobs/run.py`` (which
regenerates ``results/``); the root conftest's ``spark`` fixture and the
benchmark build theirs here too, and under pytest a second call returns the
active session because ``getOrCreate`` does.
"""
import os

from pyspark.sql import SparkSession


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > half of MemTotal in whole GiB, clamped to [2, 8] (the rule of
    the ROADMAP.md test command and ``perfbench/run.py::driver_memory``).
    spark.driver.memory is read at JVM launch, not from SparkConf, so it
    must be in PYSPARK_SUBMIT_ARGS before the first session starts the JVM
    — ``get_session`` puts it there before ``getOrCreate``.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    half_gib = int(line.split()[1]) // 2097152  # kB
                    return f"{min(8, max(2, half_gib))}g"
    except (OSError, ValueError):
        pass
    return "2g"


def get_session(app: str) -> SparkSession:
    """Local session with the sandbox config; none of it changes a result.

    - 8 shuffle partitions (``SPARK_SHUFFLE_PARTITIONS`` overrides): the
      datasets here are small, and per-stage scheduling overhead dominates.
    - Adaptive Query Execution off: AQE's per-stage driver-side replanning is
      pathologically slow under this sandbox's virtualisation (a cached
      2.4k-row scan takes ~20s with AQE vs ~0.3s without — measured, not
      guessed).
    - Automatic broadcast joins off, and explicit ``F.broadcast`` hints go
      only on O(|E|) or O(|D|) tables (the per-entity feature table, the
      ground truth), never on one sized by the candidate set; Arrow on for
      the driver-side collects.
    - ``spark.driver.maxResultSize`` 4g: preparing the biggest analogs
      collects a multi-million-row feature frame once per dataset.

    Master and driver memory must be fixed before the JVM launches, so they
    come from ``PYSPARK_SUBMIT_ARGS``; it is filled in here only when unset
    (the benchmark sets its own), from ``SPARK_MASTER`` (default
    ``local[*]``) and ``SPARK_DRIVER_MEM`` (default ``_driver_mem()``).
    """
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "pyspark-shell",
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
