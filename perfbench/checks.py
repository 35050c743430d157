"""Correctness gate of the benchmark; runs after the timed region.

Two kinds of finding:

- ``invariant``: the measured program's own output is wrong. The candidate
  count |C| differs from an independent DuckDB ``SELECT DISTINCT`` over the
  collected block assignments, a method retains more pairs than |C|, finds
  more matches than the blocks hold (recall above block recall), or CEP keeps
  more than K pairs. Any such finding makes the run incorrect.
- ``engines``: the Spark pipeline and the NumPy engine
  (``repro.core.fast_local``) disagree on the retained pair count or the
  matches found for the same artifacts, algorithm, columns, training size,
  seed and K/k/r. One engine is wrong, so the operation counts as failed,
  but the check alone cannot say which one.

Every finding names one operation (a method run or a sweep run); an
operation with any finding counts once in ``failed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import duckdb
import pandas as pd


@dataclass(frozen=True)
class Finding:
    op: str | None  # None: a dataset-level check, not an operation
    kind: str  # "invariant" | "engines"
    detail: str


def distinct_candidates(assignments: pd.DataFrame, task: str) -> int:
    """|C| from block assignments ``(token, entity_id, source)`` in DuckDB."""
    if task == "clean":
        pair = "x.source = 1 AND y.source = 2"
    elif task == "dirty":
        pair = "x.entity_id < y.entity_id"
    else:
        raise ValueError(f"task must be 'clean' or 'dirty', got {task!r}")
    con = duckdb.connect()
    try:
        con.register("a", assignments)
        return int(
            con.execute(
                "SELECT COUNT(*) FROM (SELECT DISTINCT x.entity_id, y.entity_id "
                f"FROM a x JOIN a y ON x.token = y.token AND {pair})"
            ).fetchone()[0]
        )
    finally:
        con.close()


def check_candidates(name: str, n_candidates: int, oracle: int) -> list[Finding]:
    """Compare the pipeline's |C| with the DuckDB count."""
    if n_candidates == oracle:
        return []
    return [Finding(None, "invariant",
                    f"{name}: |C| = {n_candidates}, DuckDB distinct = {oracle}")]


def check_method(
    op: str,
    algorithm: str,
    *,
    n_pairs: int,
    n_found: int,
    n_candidates: int,
    block_found: int,
    cep_K: int,
    local: tuple[int, int] | None = None,
) -> list[Finding]:
    """Invariants of one method run, plus agreement with ``local``
    ``(n_pairs, n_matches_found)`` from the other engine when given."""
    out = []
    if not 0 <= n_pairs <= n_candidates:
        out.append(Finding(op, "invariant", f"n_pairs {n_pairs} outside [0, |C| = {n_candidates}]"))
    if not 0 <= n_found <= min(n_pairs, block_found):
        out.append(Finding(op, "invariant",
                           f"matches {n_found} above min(n_pairs, block matches {block_found})"))
    if algorithm == "CEP" and n_pairs > cep_K:
        out.append(Finding(op, "invariant", f"|CEP| = {n_pairs} > K = {cep_K}"))
    if local is not None and local != (n_pairs, n_found):
        out.append(Finding(op, "engines",
                           f"spark (pairs, matches) = {(n_pairs, n_found)}, local = {local}"))
    return out


def check_sweep_rows(op: str, rows: pd.DataFrame, block_recall: float) -> list[Finding]:
    """Per-row bounds of a ``sweep_dataset`` result; one op per row."""
    bad = rows[
        (rows["recall"] < 0) | (rows["recall"] > block_recall)
        | (rows["precision"] < 0) | (rows["precision"] > 1)
    ]
    return [
        Finding(f"{op}:fid{r.fid}", "invariant",
                f"recall {r.recall} / precision {r.precision} out of bounds "
                f"(block recall {block_recall})")
        for r in bad.itertuples()
    ]


def summarize(findings: list[Finding]) -> tuple[int, bool]:
    """``(failed operations, correct)`` for a list of findings."""
    failed = len({f.op for f in findings if f.op is not None})
    correct = not any(f.kind == "invariant" for f in findings)
    return failed, correct
