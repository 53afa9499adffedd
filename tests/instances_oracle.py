"""Reference samplers: ``sample_bipartite_block``, ``_bernoulli_indices``,
``_distinct_tuples``, ``sample_planted_csp``, ``sample_goldreich`` and
``pattern_index`` as ``planted.instances`` had them before its samplers
stopped sorting rows, gathering through an argsort and building pattern
indices with an integer matmul. They read the same generator streams in the
same order, so tests require the production samplers to return bit-equal
arrays of the same dtypes for every seed. The CSP and predicate references
still draw their proposals in batches sized by the number of rows they
still need, which differ from the production samplers' fixed chunks, so
their equality also shows that an instance does not depend on its
chunking."""
from __future__ import annotations

import math

import numpy as np

from planted.instances import (
    BipartiteGraph,
    BlockModelParams,
    GoldreichInstance,
    HiddenPartition,
    PlantedCspInstance,
    PlantingDistribution,
    _balanced_signs,
)


def pattern_index(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    bits = (z > 0).astype(np.int64)
    return bits @ (1 << np.arange(z.shape[-1], dtype=np.int64))


def _bernoulli_indices(length: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    if length <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(length, dtype=np.int64)
    chunks = []
    pos = 0
    while pos < length:
        mean = (length - pos) * prob
        n_draw = max(16, int(mean * 1.1 + 6.0 * math.sqrt(mean + 1.0)))
        gaps = np.minimum(rng.geometric(prob, size=n_draw), length + 1)
        hits = pos + np.cumsum(gaps) - 1
        inside = hits[hits < length]
        chunks.append(inside)
        if len(inside) < len(hits):
            break
        pos = int(hits[-1]) + 1
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def sample_bipartite_block(
    params: BlockModelParams,
    partition: HiddenPartition | None = None,
) -> tuple[BipartiteGraph, HiddenPartition]:
    params.validate(require_even=partition is None)
    part_ss, edge_ss = np.random.SeedSequence(params.seed).spawn(2)
    if partition is None:
        prng = np.random.default_rng(part_ss)
        partition = HiddenPartition(
            _balanced_signs(params.n1, prng), _balanced_signs(params.n2, prng)
        )
    else:
        if len(partition.u) != params.n1 or len(partition.v) != params.n2:
            raise ValueError("partition lengths must match n1, n2")

    rng = np.random.default_rng(edge_ss)
    left = [np.flatnonzero(partition.u == 1), np.flatnonzero(partition.u == -1)]
    right = [np.flatnonzero(partition.v == 1), np.flatnonzero(partition.v == -1)]
    p_same, p_cross = params.delta * params.p, (2.0 - params.delta) * params.p
    parts = []
    for li, rows in enumerate(left):
        for ri, cols in enumerate(right):
            prob = p_same if li == ri else p_cross
            flat = _bernoulli_indices(len(rows) * len(cols), prob, rng)
            r, c = np.divmod(flat, max(len(cols), 1))
            parts.append(np.column_stack([rows[r], cols[c]]))
    edges = np.vstack(parts) if parts else np.empty((0, 2), dtype=np.int64)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return BipartiteGraph(params.n1, params.n2, edges[order]), partition


def _distinct_tuples(
    n: int, k: int, batch: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if n >= 4 * k * k:
        cand = rng.integers(0, n, size=(batch, k))
        srt = np.sort(cand, axis=1)
        valid = (np.diff(srt, axis=1) > 0).all(axis=1)
        return cand, valid
    keys = rng.random((batch, n))
    cand = np.argsort(keys, axis=1, kind="stable")[:, :k].astype(np.int64)
    return cand, np.ones(batch, dtype=bool)


def sample_planted_csp(
    q_dist: PlantingDistribution, n: int, m: int, seed: int
) -> PlantedCspInstance:
    k = q_dist.k
    if n < k:
        raise ValueError("need n >= k")
    w = q_dist.weights
    wmax = float(w.max())
    sig_ss, tuple_ss, sign_ss, uniform_ss = np.random.SeedSequence(seed).spawn(4)
    sigma = np.random.default_rng(sig_ss).integers(0, 2, size=n) * 2 - 1
    rng = np.random.default_rng(tuple_ss)
    sign_rng, uniform_rng = np.random.default_rng(sign_ss), np.random.default_rng(uniform_ss)

    accept_rate = float(w.mean()) / wmax
    out_vars = np.empty((m, k), dtype=np.int64)
    out_signs = np.empty((m, k), dtype=np.int64)
    got = 0
    powers = 1 << np.arange(k, dtype=np.int64)
    while got < m:
        need = m - got
        batch = int(need / max(accept_rate, 1e-3) * 1.2) + 16
        row_cost = k if n >= 4 * k * k else n
        batch = min(batch, max(4096, 30_000_000 // row_cost))
        cand, valid = _distinct_tuples(n, k, batch, rng)
        signs = sign_rng.integers(0, 2, size=(batch, k)) * 2 - 1
        idx = ((sigma[cand] * signs) > 0).astype(np.int64) @ powers
        accept = valid & (uniform_rng.random(batch) * wmax < w[idx])
        rows = np.flatnonzero(accept)[:need]
        out_vars[got : got + len(rows)] = cand[rows]
        out_signs[got : got + len(rows)] = signs[rows]
        got += len(rows)
    return PlantedCspInstance(n, sigma, out_vars, out_signs)


def sample_goldreich(
    predicate: np.ndarray, n: int, m: int, seed: int
) -> GoldreichInstance:
    table = np.asarray(predicate, dtype=np.int64)
    k = int(round(math.log2(len(table))))
    if len(table) != 2**k or not np.isin(table, (-1, 1)).all():
        raise ValueError("predicate must be a +/-1 table of length 2^k")
    if n < k:
        raise ValueError("need n >= k")
    sig_ss, tup_ss = np.random.SeedSequence(seed).spawn(2)
    sigma = np.random.default_rng(sig_ss).integers(0, 2, size=n) * 2 - 1
    rng = np.random.default_rng(tup_ss)

    out = np.empty((m, k), dtype=np.int64)
    got = 0
    while got < m:
        batch = (m - got) + (m - got) // 4 + 16
        cand, valid = _distinct_tuples(n, k, batch, rng)
        rows = np.flatnonzero(valid)[: m - got]
        out[got : got + len(rows)] = cand[rows]
        got += len(rows)
    values = table[pattern_index(sigma[out])]
    return GoldreichInstance(n, table, sigma, out, values)
