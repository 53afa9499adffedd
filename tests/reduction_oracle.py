"""Reference reduction core: the dict-backed tuple indexer and the
``np.unique(..., axis=0)`` edge dedup that ``planted.reduction`` used before
its packed-integer-key path. Tests compare the production core against it;
it has the signature of ``planted.reduction._build_reduced``. It also keeps
the fold/discard restriction ``goldreich_to_bipartite`` did itself before it
became an adapter into ``csp_to_bipartite``."""
from __future__ import annotations

import math

import numpy as np

from planted.instances import BipartiteGraph, HiddenPartition
from planted.reduction import (
    ReducedInstance,
    ReductionError,
    _poisson_keep,
    literal_codes,
    literal_truth_labels,
    tuple_truth_labels,
)


class DictTupleIndexer:
    """Canonical sorted code tuples <-> dense ids in first-seen order."""

    def __init__(self, r: int, n_vars: int):
        self.r = r
        self.n_vars = n_vars
        self.n2_nominal = math.comb(2 * n_vars, r - 1)
        self._index: dict[tuple[int, ...], int] = {}
        self._tuples: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._tuples)

    def materialized(self) -> np.ndarray:
        if not self._tuples:
            return np.empty((0, self.r - 1), dtype=np.int64)
        return np.array(self._tuples, dtype=np.int64)

    @classmethod
    def from_rows(cls, r: int, n_vars: int, rows: np.ndarray) -> tuple["DictTupleIndexer", np.ndarray]:
        idxr = cls(r, n_vars)
        if len(rows) == 0:
            return idxr, np.empty(0, dtype=np.int64)
        uniq, first, inv = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        for row in uniq[order]:
            key = tuple(int(c) for c in row)
            idxr._index[key] = len(idxr._tuples)
            idxr._tuples.append(key)
        return idxr, rank[inv.ravel()]


def build_reduced_oracle(n, clause_vars, clause_signs, positions, sigma, delta, thinning, epsilon, seed, left_literal):
    r_vars, r_signs = clause_vars[:, positions], clause_signs[:, positions]
    m, r = r_vars.shape
    if m == 0:
        raise ReductionError("empty instance")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if thinning == "poisson":
        keep = _poisson_keep(m, epsilon, rng)
        r_vars, r_signs = r_vars[:keep], r_signs[:keep]
    elif thinning != "dedup":
        raise ReductionError(f"unknown thinning mode: {thinning!r}")
    m_kept = len(r_vars)
    if m_kept == 0:
        raise ReductionError("thinning kept no constraints")

    codes = literal_codes(r_vars, r_signs)
    if left_literal == "random":
        pivot = rng.integers(0, r, size=m_kept)
        cols = np.arange(r)[None, :].repeat(m_kept, axis=0)
        cols[np.arange(m_kept), pivot] = 0
        cols[np.arange(m_kept), 0] = pivot
        codes = np.take_along_axis(codes, cols, axis=1)
    elif left_literal != "first":
        raise ReductionError(f"unknown left_literal mode: {left_literal!r}")

    left = codes[:, 0]
    tails = np.sort(codes[:, 1:], axis=1)
    indexer, tuple_ids = DictTupleIndexer.from_rows(r, n, tails)
    edges = np.unique(np.column_stack([left, tuple_ids]), axis=0)
    n1 = 2 * n
    graph = BipartiteGraph(n1, indexer.n2_nominal, edges)
    p_equiv = m_kept / (2.0 * n1 * indexer.n2_nominal)
    truth = None
    if sigma is not None:
        truth = HiddenPartition(
            literal_truth_labels(sigma), tuple_truth_labels(indexer.materialized(), sigma)
        )
    return ReducedInstance(graph, indexer, delta, p_equiv, truth)


def goldreich_to_bipartite_oracle(instance, report, thinning, epsilon, seed, value_handling):
    positions = sorted(report.subset)
    r_vars = instance.tuple_vars[:, positions]
    r_signs = np.ones_like(r_vars)
    if value_handling == "fold":
        r_signs[:, 0] = instance.values
    elif value_handling == "discard":
        keep = instance.values == 1
        r_vars, r_signs = r_vars[keep], r_signs[keep]
    else:
        raise ReductionError(f"unknown value_handling mode: {value_handling!r}")
    return build_reduced_oracle(
        instance.n, r_vars, r_signs, list(range(len(positions))), instance.sigma, report.delta, thinning, epsilon, seed, "first"
    )
