"""Tests for effectiveness metrics (Spark and local twin)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.fast_local import LocalContext
from repro.eval.metrics import Effectiveness, effectiveness

GT = pd.DataFrame({"id1": [1, 2, 3, 4], "id2": [11, 12, 13, 14]})
PAIRS = pd.DataFrame({"id1": [1, 2, 5, 6], "id2": [11, 12, 15, 16]})


class TestDataclass:
    def test_values(self):
        e = Effectiveness(n_pairs=4, n_matches_found=2, n_matches_total=4)
        assert e.recall == 0.5 and e.precision == 0.5 and e.f1 == 0.5

    def test_zero_pairs(self):
        e = Effectiveness(n_pairs=0, n_matches_found=0, n_matches_total=4)
        assert e.precision == 0.0 and e.f1 == 0.0

    def test_zero_truth(self):
        e = Effectiveness(n_pairs=3, n_matches_found=0, n_matches_total=0)
        assert e.recall == 0.0

    def test_perfect(self):
        e = Effectiveness(n_pairs=4, n_matches_found=4, n_matches_total=4)
        assert e.f1 == 1.0


class TestSpark:
    def test_counts(self, spark):
        got = effectiveness(
            spark.createDataFrame(PAIRS), spark.createDataFrame(GT)
        )
        assert (got.n_pairs, got.n_matches_found, got.n_matches_total) == (4, 2, 4)

    def test_n_total_override_skips_count(self, spark):
        got = effectiveness(
            spark.createDataFrame(PAIRS), spark.createDataFrame(GT), n_total=8
        )
        assert got.n_matches_total == 8 and got.recall == 0.25

    def test_empty_pairs(self, spark):
        empty = spark.createDataFrame(PAIRS).limit(0)
        got = effectiveness(empty, spark.createDataFrame(GT))
        assert got.n_pairs == 0 and got.f1 == 0.0


class TestLocalTwin:
    def test_matches_spark(self, spark):
        s = effectiveness(spark.createDataFrame(PAIRS), spark.createDataFrame(GT))
        l = LocalContext(PAIRS, GT).evaluate(np.ones(len(PAIRS), dtype=bool))
        assert (s.n_pairs, s.n_matches_found, s.n_matches_total) == (
            l.n_pairs, l.n_matches_found, l.n_matches_total,
        )
