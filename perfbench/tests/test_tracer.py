import pytest

from tracer import Span, Tracer, covered, self_times, stage_totals, subtree


def _span(i, parent, start, end, name="x"):
    return Span(i, name, parent, start, end)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(4, 4), (6, 5)], 0, 10) == 0


def test_self_time_subtracts_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: counts against span 1, not 0
        _span(3, 0, 3.5, 6.0),  # overlaps span 1 by 0.5
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10 - 5)
    assert st[1] == pytest.approx(3 - 1)
    assert st[2] == pytest.approx(1)
    assert st[3] == pytest.approx(2.5)


def test_subtree_follows_parent_links():
    spans = [_span(0, None, 0, 9), _span(1, 0, 1, 2), _span(2, 1, 1, 2),
             _span(3, None, 9, 10), _span(4, 3, 9, 10)]
    assert [s.id for s in subtree(spans, [1])] == [1, 2]
    assert [s.id for s in subtree(spans, [0, 3])] == [0, 1, 2, 3, 4]


def _stage(status, **kw):
    base = dict(job=0, stage=0, status=status, tasks=4, failed_tasks=0,
                run_ms=1000, cpu_ns=5e8, shuffle_read_bytes=0,
                shuffle_write_bytes=2e6, spill_bytes=0)
    return {**base, **kw}


def test_skipped_stages_are_not_counted():
    s = _span(0, None, 0, 1)
    s.jobs = [7, 8]
    s.stages = [_stage("COMPLETE"), _stage("SKIPPED", tasks=100, run_ms=9e9),
                _stage("COMPLETE", failed_tasks=1, spill_bytes=3e6)]
    t = stage_totals([s])
    assert t["jobs"] == 2
    assert t["stages"] == 2
    assert t["tasks"] == 8
    assert t["failed_tasks"] == 1
    assert t["task_run_s"] == pytest.approx(2.0)
    assert t["task_cpu_s"] == pytest.approx(1.0)
    assert t["shuffle_mb"] == pytest.approx(4.0)
    assert t["spill_mb"] == pytest.approx(3.0)


class FakeStages:
    """Stands in for SparkStages: one job per group, groups logged."""

    def __init__(self):
        self.groups = []

    def set_group(self, group):
        self.groups.append(group)

    def read(self, group):
        return [len(self.groups)], [_stage("COMPLETE", job=len(self.groups))]


def test_tracer_sets_and_restores_job_groups():
    ticks = iter(range(100))
    fake = FakeStages()
    tr = Tracer(fake, clock=lambda: float(next(ticks)))
    with tr.span("outer", k=1) as outer:
        with tr.span("inner") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.attrs == {"k": 1}
    # enter outer, enter inner, back to outer, back to no group
    assert fake.groups == [tr.group(outer), tr.group(inner), tr.group(outer), None]
    assert inner.stages and outer.stages
    table = {row[0]: row for row in tr.self_time_table()}
    assert table["outer"][2] == 3 and table["outer"][3] == 2
    assert [d["name"] for d in tr.to_json(0.0)] == ["outer", "inner"]


class Box:
    @staticmethod
    def double(x):
        return 2 * x


def test_wrap_records_span_and_unwrap_restores():
    tr = Tracer()
    orig = Box.double
    tr.wrap(Box, "double", "box.double",
            after=lambda sp, out, x: sp.attrs.update(out=out, x=x))
    assert Box.double(3) == 6
    assert [(s.name, s.attrs) for s in tr.spans] == [("box.double", {"out": 6, "x": 3})]
    tr.unwrap_all()
    assert Box.double is orig


def test_untracked_span_keeps_the_parent_group():
    fake = FakeStages()
    tr = Tracer(fake)
    with tr.span("outer") as outer:
        with tr.span("numpy", spark=False) as quiet:
            with tr.span("spark-inside") as inner:
                pass
    assert tr.group(quiet) == tr.group(outer)
    assert quiet.stages == [] and inner.stages
    # enter outer, enter inner, back to outer (through the quiet span), clear
    assert fake.groups == [tr.group(outer), tr.group(inner), tr.group(outer), None]
