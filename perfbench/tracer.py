"""In-memory span tracer for the benchmark's traced run.

A span records its name, start, end, parent and free-form attributes. While a
span is the innermost open one, every Spark job it triggers runs under the
span's own job group (a span opened with ``spark=False`` keeps its parent's
group); when the span closes, the tracer reads that group's stages from
Spark's status store. Spark keeps only the most recent ~1,000
stages, so the read has to happen right after each span, not at the end of
the run. Stages that Spark skipped (their shuffle output was reused) are kept
in the record with their status but never counted.

Spans are kept in memory and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict[str, Any] = field(default_factory=dict)
    #: False for layers that run no Spark job: the span gets no job group,
    #: and a job it did trigger would count for the nearest tracking parent.
    spark: bool = True
    jobs: list[int] = field(default_factory=list)
    #: One dict per stage of the span's own jobs (see ``SparkStages.read``).
    stages: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` after clipping them to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans
    }


def subtree(spans: list[Span], root_ids: Iterable[int]) -> list[Span]:
    """The spans with ids in ``root_ids`` plus all their descendants."""
    keep = set(root_ids)
    out = []
    for s in spans:  # parents are always created before their children
        if s.id in keep or s.parent in keep:
            keep.add(s.id)
            out.append(s)
    return out


def executed(stages: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Stages that ran: a SKIPPED stage is listed by its job but did no work."""
    return [st for st in stages if st["status"] != "SKIPPED"]


def stage_totals(spans: Iterable[Span]) -> dict[str, float]:
    """Executed-stage counters summed over the own stages of ``spans``."""
    stages = [st for s in spans for st in executed(s.stages)]
    return {
        "jobs": len({j for s in spans for j in s.jobs}),
        "stages": len(stages),
        "tasks": sum(st["tasks"] for st in stages),
        "failed_tasks": sum(st["failed_tasks"] for st in stages),
        "task_run_s": sum(st["run_ms"] for st in stages) / 1e3,
        "task_cpu_s": sum(st["cpu_ns"] for st in stages) / 1e9,
        "shuffle_mb": sum(st["shuffle_write_bytes"] for st in stages) / 1e6,
        "spill_mb": sum(st["spill_bytes"] for st in stages) / 1e6,
    }


class SparkStages:
    """Job-group bookkeeping and stage reads against one SparkContext."""

    def __init__(self, sc):
        self._sc = sc
        self._jsc = sc._jsc.sc()

    def set_group(self, group: str | None) -> None:
        self._sc.setLocalProperty("spark.jobGroup.id", group)

    def read(self, group: str) -> tuple[list[int], list[dict[str, Any]]]:
        """Job ids and per-stage counters of every job run under ``group``."""
        # Stage counters are filled in by an asynchronous listener; drain it.
        self._jsc.listenerBus().waitUntilEmpty()
        tracker = self._sc.statusTracker()
        store = self._jsc.statusStore()
        jobs = sorted(tracker.getJobIdsForGroup(group))
        stages = []
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            if info is None:
                raise RuntimeError(f"job {jid} of {group} left Spark's status store")
            for sid in info.stageIds:
                sd = store.lastStageAttempt(sid)
                stages.append(
                    {
                        "job": jid,
                        "stage": sid,
                        "status": sd.status().toString(),
                        "tasks": sd.numTasks(),
                        "failed_tasks": sd.numFailedTasks(),
                        "run_ms": sd.executorRunTime(),
                        "cpu_ns": sd.executorCpuTime(),
                        "shuffle_read_bytes": sd.shuffleReadBytes(),
                        "shuffle_write_bytes": sd.shuffleWriteBytes(),
                        "spill_bytes": sd.memoryBytesSpilled() + sd.diskBytesSpilled(),
                    }
                )
        return jobs, stages


class Tracer:
    """Collects spans; with ``stages`` set, also the Spark stages of each."""

    def __init__(
        self,
        stages: SparkStages | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._stages = stages
        self._clock = clock
        self._patches: list[tuple[Any, str, Any]] = []

    def group(self, span: Span | None) -> str | None:
        """Job group of the innermost span at or above ``span`` that tracks
        Spark stages."""
        while span is not None and not span.spark:
            span = None if span.parent is None else self.spans[span.parent]
        return None if span is None else f"perfbench-span-{span.id}"

    @contextmanager
    def span(self, name: str, spark: bool = True, **attrs: Any):
        """Open a span; ``spark=False`` spares a span that runs no Spark
        job the JVM calls for its job group and stages."""
        parent = self._open[-1] if self._open else None
        track = spark and self._stages is not None
        sp = Span(
            len(self.spans), name, None if parent is None else parent.id,
            self._clock(), attrs=dict(attrs), spark=spark,
        )
        self.spans.append(sp)
        self._open.append(sp)
        if track:
            self._stages.set_group(self.group(sp))
        try:
            yield sp
        finally:
            sp.end = self._clock()
            self._open.pop()
            if track:
                sp.jobs, sp.stages = self._stages.read(self.group(sp))
                self._stages.set_group(self.group(parent))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Callable[..., None] | None = None,
        spark: bool = True,
    ) -> None:
        """Replace ``owner.attr`` by a version that runs inside a span.

        ``after(span, result, *args, **kwargs)`` runs inside the span once the
        original returns, to record counts as span attributes.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name, spark=spark) as sp:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(sp, out, *args, **kwargs)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def self_time_table(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_s, self_s)`` per span name, by self time."""
        st = self_times(self.spans)
        rows: dict[str, list] = {}
        for s in self.spans:
            r = rows.setdefault(s.name, [s.name, 0, 0.0, 0.0])
            r[1] += 1
            r[2] += s.duration
            r[3] += st[s.id]
        return sorted((tuple(r) for r in rows.values()), key=lambda r: -r[3])

    def to_json(self, t0: float) -> list[dict[str, Any]]:
        """Spans as plain dicts, with times in seconds from ``t0``."""
        st = self_times(self.spans)
        return [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "self_s": st[s.id],
                "attrs": s.attrs,
                "jobs": s.jobs,
                "stages": s.stages,
            }
            for s in self.spans
        ]
