"""Pruning-algorithm tests: hand-computed retention on crafted scored
graphs, asserted on both the Spark pruners and the local engine
(``LocalContext.prune``), and the set-algebra relations between algorithms.

Clean-Clean fixture graph (id1 in {1,2,3}, id2 in {11,12,13}):

    (1,11,.90) (1,12,.60) (2,11,.70) (2,12,.40) (3,12,.55) (3,13,.80) (1,13,.30)

Valid pairs (p>=0.5): five; global mean .71. Hand-derived results per
algorithm are in the EXPECTED table below (arithmetic in the comments of
each case). The Dirty fixture (DIRTY_SCORED) shares ids between the two
endpoint columns.
"""
import pandas as pd
import pytest

from repro.core import bcl, blast, cep, cnp, rcnp, rwnp, wep, wnp
from repro.core.fast_local import LocalContext

SCORED = pd.DataFrame(
    [
        (1, 11, 0.90),
        (1, 12, 0.60),
        (2, 11, 0.70),
        (2, 12, 0.40),
        (3, 12, 0.55),
        (3, 13, 0.80),
        (1, 13, 0.30),
    ],
    columns=["id1", "id2", "p"],
)

#: algorithm -> (kwargs, expected retained set)
EXPECTED = {
    # all valid pairs
    "BCl": ({}, {(1, 11), (1, 12), (2, 11), (3, 12), (3, 13)}),
    # global mean over valid = 3.55/5 = .71 -> keep .9, .8
    "WEP": ({}, {(1, 11), (3, 13)}),
    # entity means: e1=.75 e2=.70 e3=.675 e11=.80 e12=.575 e13=.80
    "WNP": ({}, {(1, 11), (1, 12), (2, 11), (3, 13)}),
    "RWNP": ({}, {(1, 11), (3, 13)}),
    # maxima: e1=.9 e2=.7 e3=.8 e11=.9 e12=.6 e13=.8; r=.35 keeps all valid
    "BLAST": ({"r": 0.35}, {(1, 11), (1, 12), (2, 11), (3, 12), (3, 13)}),
    # r=.5: thresholds .9 .75 .8 .7 .8 -> keep (1,11) and (3,13)
    "BLAST_r05": ({"r": 0.5}, {(1, 11), (3, 13)}),
    # top-3 by p
    "CEP": ({"K": 3}, {(1, 11), (3, 13), (2, 11)}),
    "CEP_all": ({"K": 10}, {(1, 11), (1, 12), (2, 11), (3, 12), (3, 13)}),
    # per-entity top-1 lists: e1:(1,11) e2:(2,11) e3:(3,13) e11:(1,11)
    # e12:(1,12) e13:(3,13); union / intersection:
    "CNP": ({"k": 1}, {(1, 11), (2, 11), (3, 13), (1, 12)}),
    "RCNP": ({"k": 1}, {(1, 11), (3, 13)}),
    "CNP_k2": ({"k": 2}, {(1, 11), (1, 12), (2, 11), (3, 12), (3, 13)}),
    "RCNP_k2": ({"k": 2}, {(1, 11), (1, 12), (2, 11), (3, 12), (3, 13)}),
}

_SPARK_FNS = {
    "BCl": bcl, "WEP": wep, "WNP": wnp, "RWNP": rwnp,
    "BLAST": blast, "BLAST_r05": blast,
    "CEP": cep, "CEP_all": cep, "CNP": cnp, "RCNP": rcnp,
    "CNP_k2": cnp, "RCNP_k2": rcnp,
}
_LOCAL_NAME = {
    "BLAST_r05": "BLAST", "CEP_all": "CEP", "CNP_k2": "CNP", "RCNP_k2": "RCNP",
}

#: Dirty ER: one id space, so entities 2, 3 and 4 are id1 of some pairs and
#: id2 of others; (1,4) is invalid.
DIRTY_SCORED = pd.DataFrame(
    [
        (1, 2, 0.90),
        (2, 3, 0.80),
        (3, 4, 0.70),
        (1, 3, 0.60),
        (2, 4, 0.55),
        (4, 5, 0.95),
        (1, 4, 0.30),
    ],
    columns=["id1", "id2", "p"],
)

#: Each entity ranks its whole neighbourhood by (p desc, id1, id2):
#: e1: (1,2) (1,3)   e2: (1,2) (2,3) (2,4)   e3: (2,3) (3,4) (1,3)
#: e4: (4,5) (3,4) (2,4)   e5: (4,5)
#: Ranking per endpoint column instead would keep (3,4) at k=1 (top of
#: id1=3 and of id2=4) and every valid pair at k=2.
#:
#: Node means, summed in that order: e1 .75, e2 .75, e3 .7000000000000001,
#: e4 .7333, e5 .95. Entity 3 is a float tie: .8 + .7 + .6 gives a mean of
#: .7000000000000001 in this order but .6999999999999998 in others, so
#: (3, 4) at p = .7 beats e3's mean only under some summation orders. Both
#: engines sum in the canonical order, so WNP drops (3, 4) under any
#: partitioning. Maxima: e1 .9, e2 .9, e3 .8, e4 .95, e5 .95.
DIRTY_EXPECTED = {
    # (1,2) beats both .75s, (2,3) e2's .75 and e3's .7000000000000001,
    # (4,5) e4's .7333 and e5's .95; (3,4), (1,3) and (2,4) beat neither mean
    "WNP": ({}, {(1, 2), (2, 3), (4, 5)}),
    "RWNP": ({}, {(1, 2), (2, 3), (4, 5)}),
    # r=.35 thresholds: (1,2) .63 (2,3) .595 (3,4) .6125 (1,3) .595
    # (2,4) .6475 > .55 (4,5) .665
    "BLAST": ({"r": 0.35}, {(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)}),
    # top-1 lists: e1 (1,2), e2 (1,2), e3 (2,3), e4 (4,5), e5 (4,5)
    "CNP": ({"k": 1}, {(1, 2), (2, 3), (4, 5)}),
    "RCNP": ({"k": 1}, {(1, 2), (4, 5)}),
    # (2,4) is in no top-2 list; (1,3) is in e1's but not e3's
    "CNP_k2": ({"k": 2}, {(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)}),
    "RCNP_k2": ({"k": 2}, {(1, 2), (2, 3), (3, 4), (4, 5)}),
}


@pytest.fixture(scope="module")
def scored_sdf(spark):
    return spark.createDataFrame(SCORED).cache()


def _pairs(df) -> set:
    return {(r["id1"], r["id2"]) for r in df.collect()}


def _local_pairs(scored: pd.DataFrame, algorithm: str, **kw) -> set:
    """Pairs ``LocalContext.prune`` keeps from a scored ``(id1, id2, p)``."""
    ctx = LocalContext(scored, scored.iloc[:0])
    keep = ctx.prune(ctx.X[:, 0], algorithm, **kw)
    return set(zip(ctx.id1[keep].tolist(), ctx.id2[keep].tolist()))


class TestSparkPruning:
    @pytest.mark.parametrize("case", list(EXPECTED))
    def test_hand_computed_retention(self, scored_sdf, case):
        kwargs, want = EXPECTED[case]
        got = _pairs(_SPARK_FNS[case](scored_sdf, **kwargs))
        assert got == want

    def test_no_valid_pairs_all_empty(self, spark):
        low = spark.createDataFrame(
            pd.DataFrame({"id1": [1, 2], "id2": [11, 12], "p": [0.1, 0.49]})
        )
        for fn, kw in [(bcl, {}), (wep, {}), (wnp, {}), (rwnp, {}),
                       (blast, {}), (cep, {"K": 5}), (cnp, {"k": 2}),
                       (rcnp, {"k": 2})]:
            assert _pairs(fn(low, **kw)) == set()

    def test_exactly_half_probability_is_valid(self, spark):
        sdf = spark.createDataFrame(
            pd.DataFrame({"id1": [1], "id2": [11], "p": [0.5]})
        )
        assert _pairs(bcl(sdf)) == {(1, 11)}

    def test_cardinality_tie_break_is_deterministic(self, spark):
        ties = spark.createDataFrame(
            pd.DataFrame(
                {"id1": [1, 2, 3], "id2": [11, 11, 11], "p": [0.8, 0.8, 0.8]}
            )
        )
        # k=1 for entity 11: (1,11) wins on the (p desc, id1, id2) order.
        got = _pairs(rcnp(ties, k=1))
        assert got == {(1, 11)}
        assert _pairs(cep(ties, K=2)) == {(1, 11), (2, 11)}


class TestLocalEngineEquivalence:
    @pytest.mark.parametrize("case", list(EXPECTED))
    def test_local_matches_spark_semantics(self, case):
        kwargs, want = EXPECTED[case]
        assert _local_pairs(SCORED, _LOCAL_NAME.get(case, case), **kwargs) == want

    def test_local_unknown_algorithm(self):
        with pytest.raises(ValueError):
            _local_pairs(SCORED, "NOPE")


class TestDirtyNeighbourhoodRanking:
    """The node rules see each entity's whole neighbourhood (both endpoint
    roles), on both engines."""

    @pytest.mark.parametrize("case", list(DIRTY_EXPECTED))
    def test_spark(self, spark, case):
        kwargs, want = DIRTY_EXPECTED[case]
        fn = _SPARK_FNS[case]
        assert _pairs(fn(spark.createDataFrame(DIRTY_SCORED), **kwargs)) == want

    @pytest.mark.parametrize("case", list(DIRTY_EXPECTED))
    def test_local(self, case):
        kwargs, want = DIRTY_EXPECTED[case]
        assert _local_pairs(DIRTY_SCORED, _LOCAL_NAME.get(case, case), **kwargs) == want


class TestPartitionInvariance:
    """Every node rule keeps its hand-computed set whatever the partitioning
    of its input and of its shuffles."""

    @pytest.mark.parametrize("n_input", [1, 3, 8])
    @pytest.mark.parametrize(
        "graph, expected", [(SCORED, EXPECTED), (DIRTY_SCORED, DIRTY_EXPECTED)],
        ids=["clean", "dirty"],
    )
    def test_node_rules(self, spark, shuffle_partitions, graph, expected, n_input):
        sdf = spark.createDataFrame(graph).repartition(n_input)
        for case in ("WNP", "RWNP", "BLAST", "CNP", "RCNP"):
            kwargs, want = expected[case]
            assert _pairs(_SPARK_FNS[case](sdf, **kwargs)) == want, case

    def test_node_rules_plan_has_no_join(self, scored_sdf):
        """Per-entity statistics are windows regrouped by pair, never
        aggregates joined back."""
        for fn in (wnp, rwnp, blast):
            plan = fn(scored_sdf)._jdf.queryExecution().executedPlan().toString()
            assert "Join" not in plan, fn.__name__


class TestEqualProbabilityNeighbourhood:
    """A star of 7 valid pairs with one probability: entity 0's float mean
    of seven equal p rounds above p, so only the cap at the neighbourhood's
    maximum (DESIGN.md §3) keeps its pairs in RWNP."""

    STAR = [(0, leaf) for leaf in range(1, 8)]

    @pytest.mark.parametrize("p", [0.7, 0.9999999999987732])
    @pytest.mark.parametrize("algo", ["WNP", "RWNP"])
    def test_both_engines_keep_every_pair(self, spark, algo, p):
        total = 0.0
        for _ in self.STAR:  # the neighbourhood's sum, in its own order
            total += p
        assert total / len(self.STAR) > p  # the rounding the cap undoes
        star = pd.DataFrame(
            [(a, b, p) for a, b in self.STAR], columns=["id1", "id2", "p"]
        )
        spark_kept = _pairs(_SPARK_FNS[algo](spark.createDataFrame(star)))
        assert spark_kept == set(self.STAR)
        assert _local_pairs(star, algo) == set(self.STAR)


class TestAlgorithmRelations:
    """Set-algebra invariants the paper relies on (Section 3)."""

    def test_rwnp_subset_of_wnp(self, scored_sdf):
        assert _pairs(rwnp(scored_sdf)) <= _pairs(wnp(scored_sdf))

    def test_rcnp_subset_of_cnp(self, scored_sdf):
        assert _pairs(rcnp(scored_sdf, k=1)) <= _pairs(cnp(scored_sdf, k=1))

    def test_everything_subset_of_bcl(self, scored_sdf):
        valid = _pairs(bcl(scored_sdf))
        for fn, kw in [(wep, {}), (wnp, {}), (rwnp, {}), (blast, {}),
                       (cep, {"K": 3}), (cnp, {"k": 1}), (rcnp, {"k": 1})]:
            assert _pairs(fn(scored_sdf, **kw)) <= valid

    def test_cep_respects_K(self, scored_sdf):
        for K in [0, 1, 2, 3, 4, 5, 99]:
            assert len(_pairs(cep(scored_sdf, K=K))) == min(K, 5)

    def test_wnp_keeps_max_edge_per_entity(self, scored_sdf):
        """Every entity's own maximum edge beats its mean, so each entity
        with a valid edge survives in WNP's output."""
        kept = _pairs(wnp(scored_sdf))
        entities = {e for p in kept for e in p}
        valid_entities = {1, 2, 3, 11, 12, 13}
        assert entities == valid_entities
