"""Reference subsampled power iteration: dense centered sub-matrices and a
loop of its own. ``planted.solver.spi_solve`` once ran its loop over this
operator pair as a ``dense_reference`` mode; tests now compare the implicit
products and the whole solve against it. It splits the edges with the same
``split_edges`` call and draws from the same ``SeedSequence(seed).spawn(2)``
streams, so a seed gives both solvers the same sub-graphs and start vector.
Every matrix is n1 x n2, so keep n2 small. Also here: ``apply_m`` as it
was when it looked yhat up once per edge, and ``split_edges`` as it was
when every key was int64 and the bucket counts and row degrees came from
bincounts over the keys."""
from __future__ import annotations

import math

import numpy as np

from planted.instances import BipartiteGraph
from planted.solver import (
    _INT64_MAX,
    NORM_ABORT,
    RecoveryResult,
    SparseRightVec,
    SubGraph,
    _run_starts,
    split_edges,
)


def _sub_graphs_int64(n1: int, n2: int, edges: np.ndarray, key: np.ndarray, T: int) -> list[SubGraph]:
    """``planted.solver._sub_graphs`` with int64 keys at every size: bucket
    sizes from ``bincount(key)``, row degrees from one ``bincount`` over
    ``key * n1 + row``, and the columns decoded in the keys' buffer."""
    counts = np.bincount(key, minlength=T)
    cols, present = edges[:, 1], None
    if T * n2 * n1 > _INT64_MAX:
        present = np.sort(cols)
        present = present[_run_starts(present)]
        cols, n2 = np.searchsorted(present, cols), len(present)
        if T * n2 * n1 > _INT64_MAX:
            raise ValueError(f"{T} buckets x {n2} right x {n1} left ids overflow int64 keys")
    degrees = np.bincount(key * n1 + edges[:, 0], minlength=T * n1).reshape(T, n1).astype(np.float64)
    key *= n2
    key += cols
    key *= n1
    key += edges[:, 0]
    del cols
    key.sort()
    rows = key % n1
    key //= n1
    cols = np.remainder(key, n2, out=key)
    del key

    new_col = _run_starts(cols)
    support = np.compress(new_col, cols)
    col_rank = new_col.astype(np.int64)
    del new_col
    np.cumsum(col_rank, out=col_rank)
    if present is not None:
        cols = present[cols]
        support = present[support]

    bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
    subs = []
    for t, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        lo = hi = 0
        rank = col_rank[a:b]
        if b > a:
            lo, hi = int(rank[0]) - 1, int(rank[-1])
            rank -= lo + 1
        sub = SubGraph(rows[a:b], support[lo:hi], rank, degrees[t])
        assert np.array_equal(sub.cols, cols[a:b])
        subs.append(sub)
    return subs


def split_subs_int64(graph: BipartiteGraph, T: int, seed) -> list[SubGraph]:
    """The sub-graphs of ``split_edges(graph, T, seed)`` from the int64 split,
    with the same bucket draw."""
    draw = np.random.default_rng(seed).integers
    return _sub_graphs_int64(graph.n1, graph.n2, graph.edges, draw(0, T, size=graph.num_edges), T)


def dense_centered(sub: SubGraph, n1: int, n2: int, q: float) -> np.ndarray:
    """A - qJ for the sub-graph's 0/1 adjacency matrix A."""
    a = np.zeros((n1, n2))
    a[sub.rows, sub.cols] = 1.0
    return a - q


def full_right(yhat, L: float, q: float, n2: int) -> np.ndarray:
    """The length-n2 vector an implicit (yhat, L) pair stands for."""
    y = np.full(n2, -q * L)
    y[yhat.support] += yhat.values
    return y


def _lookup_edgewise(yhat: SparseRightVec, cols: np.ndarray) -> np.ndarray:
    """yhat's value at every edge's right endpoint, one search per edge."""
    if len(yhat.support) == 0:
        return np.zeros(len(cols))
    pos = np.searchsorted(yhat.support, cols)
    pos = np.minimum(pos, len(yhat.support) - 1)
    hit = yhat.support[pos] == cols
    return np.where(hit, yhat.values[pos], 0.0)


def apply_m_edgewise(sub: SubGraph, yhat: SparseRightVec, L: float, q: float, n2: int) -> np.ndarray:
    """``planted.solver.apply_m`` before it looked yhat up per support vertex:
    the same four-term sum in the same order, so results must be equal."""
    n1 = len(sub.row_degrees)
    out = np.bincount(sub.rows, weights=_lookup_edgewise(yhat, sub.cols), minlength=n1)
    out = out.astype(np.float64, copy=False)
    out -= q * float(yhat.values.sum())
    out -= (q * L) * sub.row_degrees
    out += (q * q * L) * n2
    return out


def dense_spi_solve(graph, config, truth=None) -> RecoveryResult:
    """``spi_solve`` with y = (A - qJ)^T x held over all of n2 and
    x' = (A - qJ) y taken as dense matrix products."""
    n1, n2, m = graph.n1, graph.n2, graph.num_edges
    T = config.resolve_T(n1)
    n_it = T // 2
    p = config.p_override if config.p_override is not None else m / (n1 * n2)
    split_ss, x0_ss = np.random.SeedSequence(config.seed).spawn(2)
    split = split_edges(graph, T, split_ss, p=p)
    mats = [dense_centered(sub, n1, n2, split.q) for sub in split.subs]
    x = (np.random.default_rng(x0_ss).integers(0, 2, size=n1) * 2 - 1) / math.sqrt(n1)
    u = None if truth is None else np.asarray(truth.u, dtype=np.float64)
    v = None if truth is None or len(truth.v) != n2 else np.asarray(truth.v, dtype=np.float64)
    u_trace, v_trace, signs = [], [], []
    ops = 2 * m
    for i in range(n_it):
        ops += split.subs[2 * i].num_edges + split.subs[2 * i + 1].num_edges
        y = mats[2 * i].T @ x
        ny = np.linalg.norm(y)
        x_new = mats[2 * i + 1] @ y
        nx = np.linalg.norm(x_new)
        if ny < NORM_ABORT or nx < NORM_ABORT * max(ny, 1.0):
            return RecoveryResult(None, "degenerate", None, [], None if v is None else [],
                                  0, m, T, ops)
        x = x_new / nx
        if v is not None:
            v_trace.append(float(v @ y / ny))
        if u is not None:
            u_trace.append(float(u @ x))
        signs.append(np.where(x >= 0, 1, -1))
    votes = np.sum(signs[config.window_slice(n_it)], axis=0)
    vote = np.where(votes >= 0, 1, -1).astype(np.int64)
    ov = None if u is None else float(abs(vote @ u) / n1)
    return RecoveryResult(vote, "ok", ov, u_trace, None if v is None else v_trace,
                          n_it, m, T, ops)
