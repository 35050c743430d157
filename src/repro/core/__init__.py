"""Generalized Supervised Meta-blocking — the paper's core contribution.

Scored candidate pairs (probability column ``p``) are pruned by the
weight-based algorithms (BCl, WEP, WNP, RWNP, BLAST; Section 3.1) or the
cardinality-based ones (CEP, CNP, RCNP; Section 3.2), all expressed as
DataFrame transformations. ``pipeline`` wires blocking, features, training,
scoring and pruning end to end; ``fast_local`` is the NumPy engine that runs
the 255-combination feature sweep and the effectiveness grids, tested
against these Spark pruners; ``sweep`` enumerates feature subsets.
"""
from repro.core.prune_weight import bcl, wep, wnp, rwnp, blast  # noqa: F401
from repro.core.prune_cardinality import cep, cnp, rcnp  # noqa: F401
from repro.core.pipeline import (  # noqa: F401
    PRUNERS,
    DatasetArtifacts,
    MethodResult,
    prepare_dataset,
    run_method,
)
