"""Random scored graphs with forced probability ties, on both pruning engines.

Probabilities come from a coarse grid that holds exactly 0.5 (the validity
threshold of Definition 2), values whose float means round away from them
(0.7, 0.9999999999987732), and one invalid value, so equal probabilities,
equal neighbourhood means and boundary pairs are common. Each graph also has
pendant entities with a single valid pair, and stars whose pairs share one
probability, so the hub's float mean rounds above it (the cap of DESIGN.md
§3 decides whether RWNP keeps them). Two shapes are drawn: Clean-Clean
(bipartite: ``id1`` and ``id2`` from disjoint id ranges) and Dirty (one id
space, ``id1 < id2``, so an entity is ``id1`` of some pairs and ``id2`` of
others).

- ``TestSparkMatchesLocal``: the Spark pruners keep exactly the pairs
  ``LocalContext.prune`` keeps, for all 8 rules, at several shuffle-partition
  counts, including on a graph with no valid pair.
- ``TestSetAlgebra``: a Hypothesis property test of the relations between
  the rules on ``LocalContext`` alone.
- ``TestConstantFeature``: a model trained with a constant feature column
  (alone, it scores every pair exactly 0.5) keeps the same pairs on both
  engines, Catalyst scoring included.
- ``TestBlastBoundary``: BLAST pairs exactly on, one float step below and
  one above ``r·(max_i + max_j)``.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifier.logistic import fit_logistic
from repro.core.fast_local import LocalContext
from repro.core.pipeline import PRUNERS, score_pairs
from tests.test_fast_local import _both_engines, _spark_kept

GRID = [0.25, 0.5, 0.6, 0.7, 0.8, 0.9999999999987732]


def _graph(pairs, ps) -> pd.DataFrame:
    """Scored ``(id1, id2, p)`` frame, one row per distinct pair."""
    df = pd.DataFrame(pairs, columns=["id1", "id2"]).assign(p=ps)
    return df.drop_duplicates(["id1", "id2"]).reset_index(drop=True)


def random_graph(shape: str, seed: int, n_pairs: int = 120) -> pd.DataFrame:
    """A seeded random graph of ``shape`` (``clean`` or ``dirty``) over 24
    entities per side, plus 6 pendant entities with one valid pair each and
    two 7-pair stars of equal probability (hubs 30 and 31)."""
    g = np.random.default_rng(seed)
    a, b = g.integers(0, 24, n_pairs), g.integers(0, 24, n_pairs)
    if shape == "clean":
        pairs = list(zip(a, b + 1000))
    else:
        pairs = [(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y]
    ps = list(g.choice(GRID, len(pairs)))
    for leaf in range(500, 506):  # pendants: a single valid pair each
        pairs.append((int(g.integers(0, 24)), leaf))
        ps.append(float(g.choice(GRID[1:])))
    for hub, p in ((30, 0.7), (31, 0.9999999999987732)):
        pairs += [(hub, 600 + 10 * hub + i) for i in range(7)]
        ps += [p] * 7
    return _graph(pairs, ps)


def both_engines(spark, graph: pd.DataFrame, K: int, k: int) -> None:
    """Assert Spark ≡ ``LocalContext`` on every rule for ``graph``."""
    ctx = LocalContext(graph, graph.iloc[:0])
    for algo in PRUNERS:
        local, ref = _both_engines(spark, ctx, ctx.X[:, 0], algo, K, k)
        assert local == ref, algo


class TestSparkMatchesLocal:
    @pytest.mark.parametrize("shape, seed", [("clean", 3), ("dirty", 4)])
    def test_random_graph(self, spark, shuffle_partitions, shape, seed):
        graph = random_graph(shape, seed)
        n_valid = int((graph["p"] >= 0.5).sum())
        assert (graph["p"] == 0.5).any() and n_valid > 0
        both_engines(spark, graph, K=n_valid // 2, k=2)

    def test_no_valid_pair(self, spark, shuffle_partitions):
        graph = _graph([(1, 2), (1, 3), (2, 3)], [0.25, 0.4999999999999999, 0.25])
        both_engines(spark, graph, K=2, k=1)


@st.composite
def graphs(draw):
    """A small scored graph of either shape with probabilities on GRID."""
    dirty = draw(st.booleans())
    n = draw(st.integers(1, 40))
    ids = st.integers(0, 8)
    a = draw(st.lists(ids, min_size=n, max_size=n))
    b = draw(st.lists(ids, min_size=n, max_size=n))
    ps = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
    if dirty:
        rows = [(min(x, y), max(x, y), p) for x, y, p in zip(a, b, ps) if x != y]
    else:
        rows = [(x, y + 100, p) for x, y, p in zip(a, b, ps)]
    # A star of equal probability from entity 0 to fresh leaves.
    star_p = draw(st.sampled_from(GRID))
    rows += [(0, 200 + i, star_p) for i in range(draw(st.integers(0, 9)))]
    rows = rows or [(0, 1, ps[0])]
    return _graph([r[:2] for r in rows], [r[2] for r in rows])


class TestSetAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(graph=graphs(), K=st.integers(0, 20), k=st.integers(1, 3))
    def test_relations(self, graph, K, k):
        ctx = LocalContext(graph, graph.iloc[:0])
        p = ctx.X[:, 0]
        kept = {
            algo: ctx.prune(p, algo, K=K, k=k) for algo in PRUNERS
        }
        bcl = kept["BCl"]
        assert (bcl == (p >= 0.5)).all()
        for algo, keep in kept.items():
            assert not (keep & ~bcl).any(), algo
        assert not (kept["RWNP"] & ~kept["WNP"]).any()
        assert not (kept["RCNP"] & ~kept["CNP"]).any()
        assert kept["CEP"].sum() == min(K, bcl.sum())
        # A valid pair holding the maximum at both endpoints reaches both
        # (capped) means, so RWNP keeps it; hence WNP keeps a pair at every
        # entity that has a valid one.
        mx = np.zeros(ctx.n_entities)
        np.maximum.at(mx, np.r_[ctx.c1, ctx.c2], np.r_[p, p])
        top = bcl & (p == mx[ctx.c1]) & (p == mx[ctx.c2])
        assert not (top & ~kept["RWNP"]).any()
        ends = np.r_[ctx.c1, ctx.c2]
        wnp = np.r_[kept["WNP"], kept["WNP"]]
        valid = np.r_[bcl, bcl]
        assert set(ends[wnp]) == set(ends[valid])


class TestConstantFeature:
    """A feature constant over C has zero spread: the fit gives it no
    weight, and Spark (Catalyst scoring, Spark pruners) keeps what
    ``LocalContext`` (NumPy scoring and pruning) keeps. With the constant
    column alone, every pair scores exactly 0.5 and every rule is a tie."""

    @pytest.mark.parametrize("cols", [["a", "c", "z"], ["c"]])
    def test_engines_agree(self, spark, shuffle_partitions, cols):
        graph = random_graph("dirty", 6).drop(columns="p")
        g = np.random.default_rng(6)
        truth = graph.sample(20, random_state=6)[["id1", "id2"]]
        hit = graph.merge(truth.assign(m=1.0), how="left")["m"].fillna(0.0)
        graph = graph.assign(a=hit + g.random(len(graph)), c=1.0, z=0.0)
        ctx = LocalContext(graph, truth)
        model = fit_logistic(*ctx.sample(cols, 10, 1), cols)
        assert np.isfinite(model.coef).all() and model.coef[cols.index("c")] == 0.0
        p = ctx.score(cols, 10, 1)
        if cols == ["c"]:
            assert (p == 0.5).all()
        scored = score_pairs(spark.createDataFrame(graph), model).cache()
        n_valid = int((p >= 0.5).sum())
        for algo in PRUNERS:
            keep = ctx.prune(p, algo, K=n_valid // 2, k=2)
            local = set(zip(ctx.id1[keep].tolist(), ctx.id2[keep].tolist()))
            assert local == _spark_kept(scored, algo, n_valid // 2, 2), algo
        scored.unpersist()


class TestBlastBoundary:
    """BLAST keeps a pair whose p equals r·(max_i + max_j) exactly, and
    drops the one a float step below, on both engines."""

    def test_pair_on_the_threshold(self, spark, shuffle_partitions):
        r = 0.35
        pairs, ps, expect = [], [], {}
        for h, (m1, m2) in enumerate([(0.9, 0.95), (0.8, 0.9999999999987732), (0.7, 0.75)]):
            thr = r * (m1 + m2)  # the engines' own arithmetic
            for s, (p, kept) in enumerate(
                [(thr, True), (np.nextafter(thr, 0.0), False), (np.nextafter(thr, 1.0), True)]
            ):
                i, j = 100 * h + 10 * s, 100 * h + 10 * s + 1  # two hubs
                pairs += [(i, j), (i, 5000 + i), (j, 5000 + j)]
                ps += [p, m1, m2]
                expect[(i, j)] = kept
        graph = _graph(pairs, ps)
        assert (graph["p"] >= 0.5).all()
        ctx = LocalContext(graph, graph.iloc[:0])
        keep = ctx.prune(ctx.X[:, 0], "BLAST", r=r)
        got = dict(zip(zip(ctx.id1.tolist(), ctx.id2.tolist()), keep.tolist()))
        assert {pair: got[pair] for pair in expect} == expect
        both_engines(spark, graph, K=len(graph) // 2, k=1)
