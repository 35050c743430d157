"""Benchmark of the Generalized Supervised Meta-blocking (GSM) pipeline.

    python3 perfbench/run.py --workload dirty-d50k --seed 1 --seconds 10 --trace 0

Run from the repository root. One invocation is one fresh driver process
running one workload: Spark session set-up, then the measured region (input
generation, ``prepare_dataset`` and the workload's method runs), then an
untimed correctness gate (``checks.py``). Every workload run starts in a new
process because cached frames left by earlier work inflate later timings.

``--seed`` sets the analog generator's seed (``load_analog(..., seed=)``) and
the training seeds. ``--seconds`` is the shortest measured region: the
method runs repeat on the prepared dataset, with the same training seeds,
until it has passed (at least once). With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` the layer functions run
inside spans (``tracer.py``) and it holds the per-layer metrics. Both write
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` with the full config,
every operation, every gate finding and, when traced, every span.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import checks  # noqa: E402
from tracer import SparkStages, Tracer, self_times, stage_totals, subtree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs").is_dir():
    sys.exit(f"perfbench: no src/repro or jobs/ under {ROOT}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.pipeline import FEATURES_21 as F21  # noqa: E402
from repro.core.pipeline import FEATURES_BLAST as F_BLAST  # noqa: E402
from repro.core.pipeline import FEATURES_RCNP as F_RCNP  # noqa: E402

CORES = 4
SHUFFLE_PARTITIONS = 8
SWEEP_N_PER_CLASS = 250
SWEEP_SEEDS = 2  # a second seed narrowed the sweep's RT spread from ~0.20 to ~0.15


@dataclass(frozen=True)
class Method:
    label: str
    algorithm: str
    feature_set: tuple[str, ...]
    n_train_per_class: int  # negative: 5 % of the positives (the [21] rule)


@dataclass(frozen=True)
class Workload:
    dataset: str
    #: Spark method runs, timed (paper RT = ``MethodResult.runtime_s``).
    methods: tuple[Method, ...] = ()
    #: Algorithms swept over all 255 feature sets on the NumPy engine, at
    #: SWEEP_N_PER_CLASS training pairs per class (Tables 3 and 4), once per
    #: training seed in SWEEP_SEEDS.
    sweep: tuple[str, ...] = ()
    #: Sweep runs re-run in Spark by the gate (untimed), as the reference.
    cross_checks: tuple[Method, ...] = ()


# Why each workload (README.md has the full rationale and measurements):
# dirty-d50k is bound by data volume (the Dirty self-join, a 706k-row collect
# and sort); clean-small by the fixed cost per Spark job and stage; and
# clean-sweep by the classifier and NumPy pruning with Spark idle after
# prepare, so a Spark-side change should leave its sweep untouched.
WORKLOADS = {
    "dirty-d50k": Workload(
        "D50K",
        methods=(
            Method("BCl", "BCl", F21, -1),
            Method("CNP", "CNP", F21, -1),
            Method("RCNP", "RCNP", F_RCNP, 25),
        ),
    ),
    "clean-small": Workload(
        "AbtBuy",
        methods=(  # the Table 5 and Table 7 grid
            Method("BLAST", "BLAST", F_BLAST, 25),
            Method("BCl1", "BCl", F_BLAST, 25),
            Method("BCl2", "BCl", F21, -1),
            Method("RCNP", "RCNP", F_RCNP, 25),
            Method("CNP1", "CNP", F_RCNP, 25),
            Method("CNP2", "CNP", F21, -1),
        ),
    ),
    "clean-sweep": Workload(
        "ImdbTmdb",
        sweep=("BLAST", "RCNP"),
        cross_checks=(Method("RCNP", "RCNP", F_RCNP, SWEEP_N_PER_CLASS),),
    ),
}

#: name -> (unit, better); must match BENCHMARK.json's ``end_to_end``.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "prepare_s": ("s", "lower"),
    "rt_sum_s": ("s", "lower"),
    "rt_p50_s": ("s", "lower"),
    "pairs_per_s": ("1/s", "higher"),
    "driver_rss_peak_mb": ("MB", "lower"),
}

STAGE_COUNT_ALGOS = ("BCl", "BLAST", "CNP", "RCNP")

#: name -> unit; must match BENCHMARK.json's ``per_layer``.
PER_LAYER = {
    "er_data.generate_s": "s",
    "blocking.build_s": "s",
    "blocking.assignments": "count",
    "blocking.blocks": "count",
    "blocking.stages": "count",
    "blocking.shuffle_mb": "MB",
    "blocking.task_cpu_s": "s",
    "features.compute_s": "s",
    "features.pair_block_rows": "count",
    "features.candidates": "count",
    "features.redundancy": "ratio",
    "prepare.self_s": "s",
    "prepare.collect_rows": "count",
    "prepare.collect_mb": "MB",
    "prepare.shuffle_mb": "MB",
    "prepare.task_cpu_s": "s",
    "prepare.spill_mb": "MB",
    "classifier.sample_s": "s",
    "classifier.train_rows": "count",
    "classifier.fit_s": "s",
    "core.score_s": "s",
    "core.prune_s": "s",
    "core.rt.stages": "count",
    "core.rt.tasks": "count",
    "core.rt.shuffle_mb": "MB",
    "core.rt.task_cpu_s": "s",
    **{f"core.rt.{a}.stages": "count" for a in STAGE_COUNT_ALGOS},
    "eval.effectiveness_s": "s",
    "eval.f1_mean": "ratio",
    "fast_local.context_s": "s",
    "fast_local.score_s": "s",
    "fast_local.prune_s": "s",
    "sweep.runs": "count",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.failed_tasks": "count",
    "spark.task_run_s": "s",
    "spark.busy_ratio": "ratio",
    "spark.jvm_rss_peak_mb": "MB",
    "trace.wall_s": "s",
}


def driver_memory() -> str:
    """Driver heap sized like the repository's test command (ROADMAP.md):
    half of MemTotal in whole GiB, clamped to [2, 8]."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    gib = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, gib))}g"
    except OSError:
        pass
    return "2g"


def configure(tmp: Path) -> None:
    """Pin the Spark launch config and keep every scratch file under ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # hsperfdata would otherwise land in /tmp whatever java.io.tmpdir says.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(SHUFFLE_PARTITIONS)
    # jobs/_common.get_session only fills this in when it is unset.
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        "--conf spark.driver.maxResultSize=4g pyspark-shell"
    )


def spark_config(spark) -> dict[str, Any]:
    conf = spark.sparkContext.getConf()
    keys = (
        "spark.master", "spark.driver.memory", "spark.driver.maxResultSize",
        "spark.ui.enabled",
    )
    sql_keys = (
        "spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.sql.execution.arrow.pyspark.enabled",
    )
    out = {k: conf.get(k) for k in keys}
    out.update({k: spark.conf.get(k) for k in sql_keys})
    return out


@dataclass
class Op:
    """One timed operation group: a Spark method run or one sweep call."""

    label: str
    algorithm: str
    runs: int  # method runs it holds (1, or 255 for a sweep call)
    rt_s: float
    f1: float  # mean F1 over its runs
    result: Any = None  # MethodResult of a Spark run
    rows: Any = None  # sweep_dataset frame of a sweep call


@dataclass
class Measured:
    arts: Any
    ops: list[Op]
    passes: int
    wall_s: float
    prepare_s: float
    ctx: Any = None


def measure(wl: Workload, spark, seed: int, seconds: float) -> Measured:
    """The timed region: generate, prepare, then the method runs."""
    from repro.core import fast_local, pipeline, sweep
    from repro.er_data import datasets

    t_start = time.perf_counter()
    entities, gt, task = datasets.load_analog(spark, wl.dataset, seed=seed)
    t = time.perf_counter()
    arts = pipeline.prepare_dataset(spark, wl.dataset, entities, gt, task)
    prepare_s = time.perf_counter() - t
    ctx = fast_local.LocalContext(arts.features_pdf, arts.gt_pdf) if wl.sweep else None
    ops: list[Op] = []
    passes, wall_s = 0, 0.0
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for m in wl.methods:
            res = pipeline.run_method(
                arts, m.algorithm, feature_set=m.feature_set,
                n_train_per_class=m.n_train_per_class, seed=seed,
            )
            ops.append(Op(m.label, m.algorithm, 1, res.runtime_s, res.eff.f1, result=res))
        for alg in wl.sweep:
            for s in range(seed, seed + SWEEP_SEEDS):
                t = time.perf_counter()
                rows = sweep.sweep_dataset(
                    arts.features_pdf, arts.gt_pdf, alg,
                    n_train_per_class=SWEEP_N_PER_CLASS, seeds=[s],
                    K=arts.cep_K, k=arts.cnp_k, context=ctx,
                )
                rt = time.perf_counter() - t
                ops.append(Op(f"sweep-{alg}-s{s}", alg, len(rows), rt,
                              float(rows["f1"].mean()), rows=rows))
        passes += 1
        if passes == 1:
            wall_s = time.perf_counter() - t_start
    return Measured(arts, ops, passes, wall_s, prepare_s, ctx)


def memory_peaks() -> dict[str, float]:
    """Peak resident set of this process and of the Spark JVM, in MB."""
    from pyspark import SparkContext

    pid = SparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        hwm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return {
        "driver": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "jvm": hwm_kb * 1024 / 1e6,
    }


def gate(wl: Workload, m: Measured, seed: int) -> list[checks.Finding]:
    """Untimed correctness checks of everything the measured region produced."""
    from repro.core import fast_local, pipeline
    from repro.core.sweep import feature_set_id
    from repro.features.schemes import columns_for

    arts = m.arts
    asg = arts.collection.assignments.select("token", "entity_id", "source").toPandas()
    findings = checks.check_candidates(
        arts.name, arts.n_candidates,
        checks.distinct_candidates(asg, arts.collection.task),
    )
    ctx = m.ctx or fast_local.LocalContext(arts.features_pdf, arts.gt_pdf)

    def method(op_label: str, res) -> list[checks.Finding]:
        local = ctx.run(
            res.algorithm, columns_for(res.feature_set),
            n_train_per_class=res.n_train_per_class, seed=res.seed,
            K=arts.cep_K, k=arts.cnp_k,
        )
        return checks.check_method(
            op_label, res.algorithm,
            n_pairs=res.eff.n_pairs, n_found=res.eff.n_matches_found,
            n_candidates=arts.n_candidates,
            block_found=arts.block_quality.n_matches_found,
            cep_K=arts.cep_K, local=(local.n_pairs, local.n_matches_found),
        )

    for op in m.ops:
        if op.result is not None:
            findings += method(op.label, op.result)
        else:
            findings += checks.check_sweep_rows(op.label, op.rows, arts.block_quality.recall)
    for c in wl.cross_checks:
        res = pipeline.run_method(
            arts, c.algorithm, feature_set=c.feature_set,
            n_train_per_class=c.n_train_per_class, seed=seed,
        )
        fid = feature_set_id(c.feature_set)
        op_label = f"sweep-{c.algorithm}-s{seed}:fid{fid}"
        findings += method(op_label, res)
        # The swept row for this feature set must report the same run.
        rows = next(op.rows for op in m.ops if op.label == f"sweep-{c.algorithm}-s{seed}")
        row = rows[rows["fid"] == fid].iloc[0]
        if (row["recall"], row["precision"]) != (res.eff.recall, res.eff.precision):
            findings.append(checks.Finding(
                op_label, "engines",
                f"sweep row (recall, precision) = {(row['recall'], row['precision'])}, "
                f"spark = {(res.eff.recall, res.eff.precision)}",
            ))
    return findings


def end_to_end(m: Measured, setup_s: float, memory: dict[str, float]) -> dict[str, float]:
    runs = sum(op.runs for op in m.ops)
    rt_total = sum(op.rt_s for op in m.ops)
    per_run = [op.rt_s / op.runs for op in m.ops for _ in range(op.runs)]
    return {
        "setup_s": setup_s,
        "wall_s": m.wall_s,
        "prepare_s": m.prepare_s,
        "rt_sum_s": rt_total / m.passes,
        "rt_p50_s": statistics.median(per_run),
        "pairs_per_s": m.arts.n_candidates * runs / rt_total,
        "driver_rss_peak_mb": memory["driver"],
    }


def install_spans(tr: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import repro.core.fast_local as fl
    import repro.core.pipeline as pl
    import repro.core.prune_cardinality as pc
    import repro.core.prune_weight as pw
    import repro.core.sweep as sw
    import repro.er_data.datasets as ds

    def blocks(sp, out, *a, **k):
        # Spark is lazy: count here so blocking runs in its own span.
        sp.attrs["assignments"] = out.assignments.count()

    def prepared(sp, arts, *a, **k):
        pdfs = (arts.features_pdf, arts.gt_pdf)
        sp.attrs.update(
            candidates=arts.n_candidates,
            pair_block_rows=round(arts.gstats.total_pair_card),
            blocks=arts.gstats.n_blocks,
            collect_rows=sum(len(p) for p in pdfs),
            collect_mb=sum(int(p.memory_usage(deep=True).sum()) for p in pdfs) / 1e6,
        )

    tr.wrap(ds, "load_analog", "er_data.generate")
    tr.wrap(pl, "build_blocks", "blocking.build", after=blocks)
    tr.wrap(pl, "compute_features", "features.compute")
    tr.wrap(pl, "prepare_dataset", "prepare", after=prepared)
    tr.wrap(pl, "run_method", "core.rt",
            after=lambda sp, out, *a, **k: sp.attrs.update(algorithm=out.algorithm))
    tr.wrap(pl, "score_pairs", "core.score")
    for mod, names in ((pw, ("BCl", "WEP", "WNP", "RWNP", "BLAST")), (pc, ("CEP", "CNP", "RCNP"))):
        for algo in names:
            tr.wrap(mod, algo.lower(), f"core.prune.{algo}")
    tr.wrap(pl, "effectiveness", "eval.effectiveness")
    # pandas / NumPy layers: no job group, so thousands of sweep spans stay cheap
    tr.wrap(pl, "sample_balanced", "classifier.sample", spark=False,
            after=lambda sp, out, *a, **k: sp.attrs.update(train_rows=len(out[1])))
    tr.wrap(pl, "fit_logistic", "classifier.fit", spark=False)
    tr.wrap(fl, "fit_logistic", "classifier.fit", spark=False)
    tr.wrap(fl.LocalContext, "__init__", "fast_local.context", spark=False)
    tr.wrap(fl.LocalContext, "score", "fast_local.score", spark=False)
    tr.wrap(fl.LocalContext, "prune", "fast_local.prune", spark=False)
    tr.wrap(sw, "sweep_dataset", "sweep.dataset", spark=False,
            after=lambda sp, out, *a, **k: sp.attrs.update(runs=len(out) * len(k["seeds"])))


def per_layer(
    tr: Tracer, m: Measured, workload_span, memory: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics over every span of the run: the measured region and
    the gate. The ``spark.*`` totals cover the measured region only."""
    spans = tr.spans
    st = self_times(spans)

    def named(prefix: str) -> list:
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def self_s(prefix: str) -> float:
        return sum(st[s.id] for s in named(prefix))

    def attr(name: str, key: str):
        return sum(s.attrs[key] for s in named(name))

    blocking = stage_totals(named("blocking.build"))
    prepare = stage_totals(named("prepare"))
    rt_spans = [s for s in spans if s.name == "core.rt"]
    rt = stage_totals(subtree(spans, [s.id for s in rt_spans]))
    spark = stage_totals(subtree(spans, [workload_span.id]))
    candidates = attr("prepare", "candidates")
    out = {
        "er_data.generate_s": self_s("er_data.generate"),
        "blocking.build_s": self_s("blocking.build"),
        "blocking.assignments": attr("blocking.build", "assignments"),
        "blocking.blocks": attr("prepare", "blocks"),
        "blocking.stages": blocking["stages"],
        "blocking.shuffle_mb": blocking["shuffle_mb"],
        "blocking.task_cpu_s": blocking["task_cpu_s"],
        "features.compute_s": self_s("features.compute"),
        "features.pair_block_rows": attr("prepare", "pair_block_rows"),
        "features.candidates": candidates,
        "features.redundancy": attr("prepare", "pair_block_rows") / candidates,
        "prepare.self_s": self_s("prepare"),
        "prepare.collect_rows": attr("prepare", "collect_rows"),
        "prepare.collect_mb": attr("prepare", "collect_mb"),
        "prepare.shuffle_mb": prepare["shuffle_mb"],
        "prepare.task_cpu_s": prepare["task_cpu_s"],
        "prepare.spill_mb": prepare["spill_mb"],
        "classifier.sample_s": self_s("classifier.sample"),
        "classifier.train_rows": attr("classifier.sample", "train_rows"),
        "classifier.fit_s": self_s("classifier.fit"),
        "core.score_s": self_s("core.score"),
        "core.prune_s": self_s("core.prune"),
        "core.rt.stages": rt["stages"],
        "core.rt.tasks": rt["tasks"],
        "core.rt.shuffle_mb": rt["shuffle_mb"],
        "core.rt.task_cpu_s": rt["task_cpu_s"],
    }
    for algo in STAGE_COUNT_ALGOS:
        first = next((s for s in rt_spans if s.attrs["algorithm"] == algo), None)
        out[f"core.rt.{algo}.stages"] = (
            0 if first is None else stage_totals(subtree(spans, [first.id]))["stages"]
        )
    out.update({
        "eval.effectiveness_s": self_s("eval.effectiveness"),
        "eval.f1_mean": sum(op.f1 * op.runs for op in m.ops) / sum(op.runs for op in m.ops),
        "fast_local.context_s": self_s("fast_local.context"),
        "fast_local.score_s": self_s("fast_local.score"),
        "fast_local.prune_s": self_s("fast_local.prune"),
        "sweep.runs": attr("sweep.dataset", "runs"),
        "spark.jobs": spark["jobs"],
        "spark.stages": spark["stages"],
        "spark.tasks": spark["tasks"],
        "spark.failed_tasks": spark["failed_tasks"],
        "spark.task_run_s": spark["task_run_s"],
        "spark.busy_ratio": spark["task_run_s"] / (workload_span.duration * CORES),
        "spark.jvm_rss_peak_mb": memory["jvm"],
        "trace.wall_s": m.wall_s,
    })
    return out


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the gateway server exits on EOF
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    configure(tmp)
    spark = None
    try:
        from jobs._common import get_session

        spark = get_session(f"perfbench-{args.workload}")
        spark.range(1).count()
        setup_s = time.perf_counter() - T0

        tr = Tracer(SparkStages(spark.sparkContext) if args.trace else None)
        if args.trace:
            install_spans(tr)
        try:
            with tr.span("workload", workload=args.workload, seed=args.seed) as wspan:
                m = measure(wl, spark, args.seed, args.seconds)
            memory = memory_peaks()
            with tr.span("gate"):
                findings = gate(wl, m, args.seed)
        finally:
            tr.unwrap_all()
        config = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "composition": repr(wl), "cores": os.cpu_count(),
            "spark": spark_config(spark), "python": sys.version.split()[0],
        }
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    failed, correct = checks.summarize(findings)
    attempted = sum(op.runs for op in m.ops)
    if args.trace:
        metrics = per_layer(tr, m, wspan, memory)
        units = PER_LAYER
    else:
        metrics = end_to_end(m, setup_s, memory)
        units = {k: u for k, (u, _) in END_TO_END.items()}
    record = {
        "config": config,
        "passes": m.passes,
        "ops": [
            {"label": op.label, "algorithm": op.algorithm, "runs": op.runs,
             "rt_s": op.rt_s, "f1": op.f1,
             **({"n_pairs": op.result.eff.n_pairs,
                 "n_found": op.result.eff.n_matches_found} if op.result else {})}
            for op in m.ops
        ],
        "candidates": m.arts.n_candidates,
        "findings": [vars(f) for f in findings],
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = tr.to_json(T0)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))

    print(f"config {json.dumps(config)}")
    for f in findings:
        print(f"finding [{f.kind}] {f.op}: {f.detail}")
    if args.trace:
        print(f"{'span':<24}{'calls':>7}{'total_s':>10}{'self_s':>10}")
        for name, calls, total, own in tr.self_time_table():
            print(f"{name:<24}{calls:>7}{total:>10.3f}{own:>10.3f}")
    for k, v in metrics.items():
        print(f"{k:<28}{v:>16.6g} {units[k]}")
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
