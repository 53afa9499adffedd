"""Solver tests: splitting, implicit products vs dense oracle, recovery,
determinism, and the baselines."""
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planted import files
from planted.fourier import distribution_complexity
from planted.instances import (
    BipartiteGraph,
    BlockModelParams,
    HiddenPartition,
    PlantedCspInstance,
    noisy_xor_weights,
    overlap,
    sample_bipartite_block,
    sample_planted_csp,
    sat_clause_weights,
)
from planted.reduction import csp_to_bipartite
from planted.solver import (
    SolverConfig,
    SolverError,
    SparseRightVec,
    SubGraph,
    apply_m,
    apply_mt,
    majority_vote_r1,
    power_iteration_baseline,
    right_dot,
    right_norm,
    spi_solve,
    split_edges,
    _INT32_MAX,
    _key_dtype,
    _lookup,
    _SlotTable,
)
from solver_oracle import (
    _lookup_edgewise,
    _make_sub,
    apply_m_edgewise,
    dense_centered,
    dense_spi_solve,
    full_right,
    split_subs_int64,
)


# ---------------------------------------------------------------------------
# Edge splitting
# ---------------------------------------------------------------------------


def test_split_partitions_edge_set():
    g, _ = sample_bipartite_block(BlockModelParams(20, 20, 1.5, 0.2, 1))
    split = split_edges(g, 2, seed=0)
    merged = np.vstack(
        [np.column_stack([s.rows, s.cols]) for s in split.subs if s.num_edges]
    )
    assert len(merged) == g.num_edges
    assert np.array_equal(
        np.unique(merged, axis=0), np.unique(g.edges, axis=0)
    )
    assert split.q * split.T == pytest.approx(g.num_edges / (20 * 20))


def test_split_bucket_counts_binomial():
    g, _ = sample_bipartite_block(BlockModelParams(500, 500, 1.8, 0.4, 2))
    T = 20
    split = split_edges(g, T, seed=3)
    m = g.num_edges
    sd = math.sqrt(m * (1 / T) * (1 - 1 / T))
    for sub in split.subs:
        assert abs(sub.num_edges - m / T) < 4 * sd


def test_split_determinism_and_support():
    g, _ = sample_bipartite_block(BlockModelParams(40, 60, 1.5, 0.2, 4))
    s1 = split_edges(g, 6, seed=9)
    s2 = split_edges(g, 6, seed=9)
    for a, b in zip(s1.subs, s2.subs):
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.support, np.unique(a.cols))
    with pytest.raises(ValueError):
        split_edges(g, 1, seed=0)


def _split_edges_int64(graph, T, seed):
    """The sub-graphs built edge set by edge set: the bucket ids of
    split_edges, each bucket's edges gathered, sorted by (col, row) and
    ranked with np.unique. Kept as the oracle for the one-sort split."""
    assignment = np.random.default_rng(seed).integers(0, T, size=graph.num_edges)
    order = np.argsort(assignment, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(assignment, minlength=T))])
    subs = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows, cols = graph.edges[order[a:b], 0], graph.edges[order[a:b], 1]
        by_col_row = np.lexsort((rows, cols))
        rows, cols = rows[by_col_row], cols[by_col_row]
        support, col_rank = np.unique(cols, return_inverse=True)
        degrees = np.bincount(rows, minlength=graph.n1).astype(np.float64)
        sub = SubGraph(rows, support, col_rank.ravel(), degrees)
        assert np.array_equal(sub.cols, cols)
        subs.append(sub)
    return subs


def _assert_same_subs(got_subs, want_subs):
    for got, want in zip(got_subs, want_subs, strict=True):
        for name in ("rows", "cols", "support", "col_rank", "row_degrees"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@st.composite
def split_cases(draw):
    """(graph with distinct edges in any order, T, seed); the graph may be
    empty and T may exceed its edge count, leaving buckets empty."""
    n1, n2 = (draw(st.integers(1, 12)) for _ in range(2))
    ids = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    edges = draw(st.lists(ids, max_size=n1 * n2, unique=True))
    graph = BipartiteGraph(n1, n2, np.array(edges, dtype=np.int64).reshape(-1, 2))
    T = draw(st.one_of(st.integers(2, 40), st.integers(257, 600)))
    return graph, T, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(case=split_cases())
def test_split_is_an_ordered_partition_matching_int64_sort(case):
    graph, T, seed = case
    position = {e: k for k, e in enumerate(map(tuple, graph.edges.tolist()))}
    split = split_edges(graph, T, seed)
    _assert_same_subs(split.subs, _split_edges_int64(graph, T, seed))
    taken = []
    for sub in split.subs:
        assert np.array_equal(sub.support, np.unique(sub.cols))
        assert np.array_equal(sub.support[sub.col_rank], sub.cols)
        taken += [position[e] for e in zip(sub.rows.tolist(), sub.cols.tolist())]
    assert sorted(taken) == list(range(graph.num_edges))  # a partition


def test_split_past_the_uint16_limit_matches_int64_sort():
    # more buckets than 16-bit ids hold, ~6% of the edges past 2^16 - 1
    T = 2**16 + 2**12
    g, _ = sample_bipartite_block(BlockModelParams(40, 40, 1.5, 0.5, 1))
    split = split_edges(g, T, seed=5)
    assignment = np.random.default_rng(5).integers(0, T, size=g.num_edges)
    assert (assignment >= 2**16).sum() > 20
    assert [s.num_edges for s in split.subs] == np.bincount(assignment, minlength=T).tolist()
    _assert_same_subs(split.subs, _split_edges_int64(BipartiteGraph(g.n1, g.n2, g.edges.astype(np.int64)), T, 5))
    for sub in split.subs:
        assert np.array_equal(sub.support[sub.col_rank], sub.cols)


@settings(max_examples=100, deadline=None)
@given(case=split_cases())
def test_split_past_int64_keys_ranks_the_right_ids(case):
    # right ids spread over n2 = 2^62, so T * n2 * n1 > 2^63 - 1 and the
    # split packs the ranks of the ids present instead
    graph, T, seed = case
    scale = 2**62 // graph.n2
    wide = BipartiteGraph(graph.n1, 2**62, graph.edges * np.array([1, scale]))
    want = [replace(sub, support=sub.support * scale)
            for sub in split_edges(graph, T, seed).subs]
    _assert_same_subs(split_edges(wide, T, seed).subs, want)


@pytest.mark.parametrize("n2", [5, 2**62])
def test_split_of_an_empty_graph(n2):
    split = split_edges(BipartiteGraph(3, n2, np.empty((0, 2), dtype=np.int64)), 4, seed=0)
    assert len(split.subs) == 4
    for sub in split.subs:
        assert sub.num_edges == 0 and len(sub.support) == 0
        assert sub.col_rank.dtype == sub.support.dtype == np.int64
        assert sub.row_degrees.tolist() == [0.0, 0.0, 0.0]


def test_split_refuses_keys_past_int64_even_after_ranking():
    graph = BipartiteGraph(2**62, 2**62, np.array([[0, 0], [1, 1]]))
    with pytest.raises(ValueError, match="overflow int64"):
        split_edges(graph, 2, seed=0)


@settings(max_examples=150, deadline=None)
@given(case=split_cases())
def test_split_matches_the_int64_split_bit_for_bit(case):
    # T reaches 600 over at most 144 edges, so many cases have empty buckets
    graph, T, seed = case
    _assert_same_subs(split_edges(graph, T, seed).subs, split_subs_int64(graph, T, seed))


@settings(max_examples=50, deadline=None)
@given(case=split_cases())
def test_split_with_ranked_right_ids_matches_the_int64_split(case):
    graph, T, seed = case
    wide = BipartiteGraph(graph.n1, 2**62, graph.edges * np.array([1, 2**62 // graph.n2]))
    _assert_same_subs(split_edges(wide, T, seed).subs, split_subs_int64(wide, T, seed))


@pytest.mark.parametrize("n2, dtype", [(2048, np.uint32), (2049, np.int64)])
def test_split_at_the_32_bit_key_boundary_matches_the_int64_split(n2, dtype):
    # T * n2 * n1 = 2^32 exactly: the last edge, (n1 - 1, n2 - 1) in bucket
    # T - 1, packs into the largest uint32 key; one more column needs int64
    n1, T = 65536, 32
    assert _key_dtype(n1, n2, T) is dtype
    rng = np.random.default_rng(8)
    keys = np.unique(rng.integers(0, n1 * n2, size=3000))
    inner = np.column_stack([keys // n2, keys % n2])
    corners = [[n1 - 1, 0], [0, n2 - 1], [n1 - 1, n2 - 1]]
    inner = inner[~np.isin(keys, [r * n2 + c for r, c in corners])]
    graph = BipartiteGraph(n1, n2, np.concatenate([inner, corners]))
    m = graph.num_edges
    seed = next(s for s in range(1000) if np.random.default_rng(s).integers(0, T, size=m)[-1] == T - 1)
    split = split_edges(graph, T, seed)
    _assert_same_subs(split.subs, split_subs_int64(graph, T, seed))
    last = split.subs[T - 1]
    assert (last.rows[-1], last.cols[-1]) == (n1 - 1, n2 - 1)


@pytest.mark.parametrize("n1, n2, dtype", [(1, 2**32, np.int64), (2**16, 2**16, np.uint32)],
                         ids=["n2-is-2^32", "2^16-by-2^16"])
def test_baseline_with_a_2_to_the_32_key_bound_decodes_its_edges(n1, n2, dtype):
    """power_iteration_baseline packs one sub-graph (T = 1) whose key bound
    n1 * n2 is exactly 2^32. A radix of 2^32 does not fit uint32, so n2 = 2^32
    takes int64 keys; at 2^16 x 2^16 the keys are uint32, though the bound
    n2 * n1 itself does not fit them."""
    edges = np.array([[0, n2 - 1], [n1 - 1, 5], [0, 3]])
    assert _key_dtype(n1, n2, 1) is dtype
    sub = _make_sub(n1, edges[:, 0], edges[:, 1])
    order = np.lexsort((edges[:, 0], edges[:, 1]))
    assert sub.rows.tolist() == edges[order, 0].tolist() and sub.cols.tolist() == edges[order, 1].tolist()
    signs = power_iteration_baseline(BipartiteGraph(n1, n2, edges), 2, 0)
    assert len(signs) == n1 and np.isin(signs, [-1, 1]).all()


def test_baseline_peaks_at_36_bytes_per_edge_above_its_graph():
    # ~300k int32 edges: an (m, 2) int64 copy of the edges before the split
    # peaked at 49 B per edge
    g, _ = sample_bipartite_block(BlockModelParams(2000, 2000, 2.0, 0.075, 4))
    assert g.edges.dtype == np.int32
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        power_iteration_baseline(g, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - held) / g.num_edges <= 36


def test_split_traced_peak_is_no_higher_than_the_int64_split():
    g, _ = sample_bipartite_block(BlockModelParams(2000, 2000, 2.0, 0.075, 4))  # ~300k edges
    T = SolverConfig().resolve_T(g.n1)
    assert _key_dtype(g.n1, g.n2, T) is np.uint32
    peaks = []
    for split in (lambda: split_edges(g, T, 5), lambda: split_subs_int64(g, T, 5)):
        tracemalloc.start()
        try:
            split()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


@pytest.mark.parametrize("n1, n2, p, dtype", [(2000, 2000, 0.075, np.uint32), (100, 10**6, 0.003, np.int64)])
def test_split_holds_rows_and_ranks_but_no_per_edge_columns(n1, n2, p, dtype):
    # ~300k edges: a per-edge int64 column array would hold ~2.4 MB more
    g, _ = sample_bipartite_block(BlockModelParams(n1, n2, 1.8, p, 4))
    T = SolverConfig().resolve_T(n1)
    assert _key_dtype(n1, n2, T) is dtype
    tracemalloc.start()
    try:
        split = split_edges(g, T, 5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    support = sum(len(s.support) for s in split.subs)
    assert held <= 16 * g.num_edges + 8 * support + 8 * T * n1 + 128 * 1024


@pytest.mark.parametrize("n2_wide, dtype", [(None, np.uint32), (2**33, np.int64), (2**62, None)],
                         ids=["uint32-keys", "int64-keys", "ranked-ids"])
@settings(max_examples=60, deadline=None)
@given(case=split_cases())
def test_each_read_of_a_sub_graph_decodes_the_int64_split(n2_wide, dtype, case):
    # T in [2, 40] or [257, 600] over at most 144 edges: odd T and empty
    # buckets; the wide graphs spread the right ids over n2_wide, past 32-bit
    # keys (int64) or past int64 keys (the ids are ranked)
    graph, T, seed = case
    if n2_wide is not None:
        graph = BipartiteGraph(graph.n1, n2_wide, graph.edges * np.array([1, n2_wide // graph.n2]))
    if dtype is not None:
        assert _key_dtype(graph.n1, graph.n2, T) is dtype
    subs = split_edges(graph, T, seed).subs
    assert len(subs) == T
    backwards = [subs[t] for t in reversed(range(T))][::-1]
    _assert_same_subs(subs, _split_edges_int64(graph, T, seed))
    _assert_same_subs(subs, split_subs_int64(graph, T, seed))
    _assert_same_subs(backwards, list(subs))
    for t in (0, T - 1):
        first = subs[t]
        for a in (first.rows, first.support, first.col_rank, first.row_degrees):
            a[...] = 7  # writing into one read leaves the next read as it was
        _assert_same_subs([subs[t]], [backwards[t]])
    assert subs[-1].row_degrees.tolist() == backwards[-1].row_degrees.tolist()
    with pytest.raises(IndexError):
        subs[T]


@pytest.mark.parametrize("T", [2, 3, 84, 2**16 + 1, 2**31 + 1, 2**32])
@pytest.mark.parametrize("m", [0, 1, 7, 100_003])
def test_bucket_ids_drawn_as_uint32_equal_the_int64_draw(T, m):
    # the split draws its bucket ids in the key dtype; a range that fits 32
    # bits gives the same values and the same generator state in either
    wide, narrow = np.random.default_rng(11), np.random.default_rng(11)
    want = wide.integers(0, T, size=m)
    got = narrow.integers(0, T, size=m, dtype=np.uint32)
    assert got.dtype == np.uint32 and np.array_equal(got, want)
    assert narrow.bit_generator.state == wide.bit_generator.state
    assert narrow.integers(0, 2**63) == wide.integers(0, 2**63)


# ---------------------------------------------------------------------------
# Implicit centered products
# ---------------------------------------------------------------------------


def test_apply_mt_trivial_cases():
    empty = _make_sub(4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    yhat, L = apply_mt(empty, np.ones(4), q=0.1)
    assert len(yhat.support) == 0 and L == 4.0
    assert right_norm(yhat, L, 0.1, n2=9) == pytest.approx(math.sqrt(9 * 0.4**2))

    single = _make_sub(3, np.array([0]), np.array([5]))
    x = np.zeros(3)
    x[0] = 1.0
    yhat, L = apply_mt(single, x, q=0.0)
    assert yhat.support.tolist() == [5] and yhat.values.tolist() == [1.0]
    assert L == 1.0


def test_apply_m_plugin_cases():
    sub = _make_sub(3, np.array([0, 0, 2]), np.array([1, 3, 3]))

    # q = 0: plain adjacency sum over the support values
    yhat = SparseRightVec(np.array([1, 3]), np.array([2.0, 5.0]))
    out = apply_m(sub, yhat, L=1.0, q=0.0, n2_nominal=4)
    assert out.tolist() == [7.0, 0.0, 5.0]

    # yhat = 0, L = 1: -q * degrees + q^2 * n2
    yhat0 = SparseRightVec(np.empty(0, dtype=np.int64), np.empty(0))
    q = 0.25
    out = apply_m(sub, yhat0, L=1.0, q=q, n2_nominal=4)
    expect = -q * np.array([2.0, 0.0, 1.0]) + q * q * 4
    assert np.allclose(out, expect)


@st.composite
def operator_cases(draw):
    """(sub-graph, n1, n2, q, x, dense right vector): small random graphs,
    the empty one and q = 0 included."""
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    ids = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    edges = np.array(draw(st.lists(ids, max_size=n1 * n2, unique=True)), dtype=np.int64).reshape(-1, 2)
    sub = _make_sub(n1, edges[:, 0], edges[:, 1])
    q = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    vals = st.floats(-4.0, 4.0, allow_nan=False)
    x = np.array(draw(st.lists(vals, min_size=n1, max_size=n1)))
    w = np.array(draw(st.lists(vals, min_size=n2, max_size=n2)))
    return sub, n1, n2, q, x, w


@settings(max_examples=300, deadline=None)
@given(case=operator_cases())
def test_implicit_matches_dense_oracle(case):
    sub, n1, n2, q, x, w = case
    M = dense_centered(sub, n1, n2, q)
    yhat, L = apply_mt(sub, x, q)
    y = M.T @ x
    assert np.array_equal(yhat.support, np.unique(sub.cols))
    assert np.allclose(full_right(yhat, L, q, n2), y, atol=1e-9)
    assert right_norm(yhat, L, q, n2) == pytest.approx(np.linalg.norm(y), abs=1e-9)
    assert np.allclose(apply_m(sub, yhat, L, q, n2), M @ y, atol=1e-9)
    assert right_dot(yhat, L, q, w) == pytest.approx(w @ y, abs=1e-9)
    assert right_dot(yhat, L, q, w, float(w.sum())) == pytest.approx(w @ y, abs=1e-9)


@st.composite
def lookup_cases(draw):
    """(sub-graph, yhat, L, q, n2): yhat's support overlaps the sub-graph's,
    misses it, is empty, or the sub-graph has a single column."""
    kind = draw(st.sampled_from(["overlap", "disjoint", "empty", "single_column"]))
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    if kind == "single_column":
        rows = draw(st.lists(st.integers(0, n1 - 1), min_size=1, unique=True))
        edges = [(r, draw(st.integers(0, n2 - 1))) for r in rows[:1]]
        edges += [(r, edges[0][1]) for r in rows[1:]]
    else:
        ids = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
        edges = draw(st.lists(ids, max_size=n1 * n2, unique=True))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    sub = _make_sub(n1, edges[:, 0], edges[:, 1])
    if kind == "empty":
        ysupp = []
    else:
        ysupp = sorted(draw(st.sets(st.integers(0, n2 - 1), max_size=n2)))
        if kind == "disjoint":
            ysupp = sorted(set(ysupp) - set(sub.support.tolist()))
    vals = st.floats(-4.0, 4.0, allow_nan=False)
    yhat = SparseRightVec(np.array(ysupp, dtype=np.int64),
                          np.array(draw(st.lists(vals, min_size=len(ysupp), max_size=len(ysupp)))))
    return sub, yhat, draw(vals), draw(st.floats(0.0, 1.0)), n2


@settings(max_examples=300, deadline=None)
@given(case=lookup_cases())
def test_apply_m_support_lookup_equals_edgewise_lookup(case):
    sub, yhat, L, q, n2 = case
    got = apply_m(sub, yhat, L, q, n2)
    assert got.dtype == np.float64
    assert np.array_equal(got, apply_m_edgewise(sub, yhat, L, q, n2))


@st.composite
def slot_lookups(draw):
    """(n2, first base, [(yhat, sub-graph), ...]): lookups to run in a row on
    one slot table. Each yhat's support is empty, the sub-graph's own,
    disjoint from it or interleaved with it, and ids 0 and n2 - 1 are drawn
    often. A first base near 2^31 makes the table zero itself mid-run."""
    n1, n2 = 3, draw(st.integers(1, 40))
    ids = st.one_of(st.sampled_from([0, n2 - 1]), st.integers(0, n2 - 1))
    vals = st.floats(-4.0, 4.0, allow_nan=False)
    lookups = []
    for _ in range(draw(st.integers(1, 6))):
        cols = sorted(draw(st.sets(ids, min_size=1)))
        edges = [(r, c) for c in cols for r in sorted(draw(st.sets(st.integers(0, n1 - 1), min_size=1)))]
        edges = np.array(edges, dtype=np.int64)
        sub = _make_sub(n1, edges[:, 0], edges[:, 1])
        kind = draw(st.sampled_from(["empty", "identical", "disjoint", "interleaved"]))
        ysupp = {"empty": set(), "identical": set(cols)}.get(kind)
        if kind == "disjoint":
            ysupp = draw(st.sets(ids)) - set(cols)
        elif kind == "interleaved":
            ysupp = set(cols[::2]) | (draw(st.sets(ids)) - set(cols))
        ysupp = sorted(ysupp)
        values = draw(st.lists(vals, min_size=len(ysupp), max_size=len(ysupp)))
        lookups.append((SparseRightVec(np.array(ysupp, dtype=np.int64), np.array(values)), sub))
    return n2, draw(st.one_of(st.just(0), st.integers(_INT32_MAX - 40, _INT32_MAX))), lookups


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=slot_lookups())
def test_slot_table_lookups_equal_binary_search_and_edgewise_lookup(case):
    n2, base, lookups = case
    slots = _SlotTable(n2)
    slots._base = base
    for yhat, sub in lookups:
        got = _lookup(yhat, sub, slots)
        assert got.dtype == np.float64
        assert got.tobytes() == _lookup(yhat, sub).tobytes()
        assert np.array_equal(got, _lookup_edgewise(yhat, sub.cols))


# ---------------------------------------------------------------------------
# Subsampled power iteration
# ---------------------------------------------------------------------------


def _square_instance(seed, n=400, delta=1.8, C=18.0):
    p = C * math.log(n) / ((delta - 1) ** 2 * n)
    params = BlockModelParams(n, n, delta, p, seed)
    g, part = sample_bipartite_block(params)
    return g, part, params


def test_spi_recovers_square_instance():
    for seed in (0, 1):
        g, part, params = _square_instance(seed)
        cfg = SolverConfig(T_factor=5.0, seed=seed, p_override=params.p)
        res = spi_solve(g, cfg, truth=part)
        assert res.ok and res.overlap == 1.0
        assert res.iterations == res.T // 2
        assert len(res.u_trace) == res.iterations
        assert len(res.v_trace) == res.iterations


def test_spi_recovers_with_delta_below_one():
    g, part, params = _square_instance(5, delta=0.2)
    cfg = SolverConfig(T_factor=5.0, seed=5, p_override=params.p)
    res = spi_solve(g, cfg, truth=part)
    assert res.overlap == 1.0


def test_spi_zero_edge_graph_fails_cleanly():
    g = BipartiteGraph(6, 6, np.empty((0, 2), dtype=np.int64))
    res = spi_solve(g, SolverConfig(seed=0))
    assert res.status == "degenerate" and res.signs is None and not res.ok


def test_spi_determinism():
    g, part, params = _square_instance(3)
    cfg = SolverConfig(T_factor=5.0, seed=42, p_override=params.p)
    r1 = spi_solve(g, cfg, truth=part)
    r2 = spi_solve(g, cfg, truth=part)
    assert np.array_equal(r1.signs, r2.signs)
    assert r1.u_trace == r2.u_trace
    assert r1.ops_edge_touches == r2.ops_edge_touches


def test_spi_sign_symmetry():
    # exact antisymmetry holds whenever no coordinate's vote ties (sgn(0)=+1
    # is the fixed tie-break); at this density the window votes are decisive
    g, _, params = _square_instance(7)
    rng = np.random.default_rng(0)
    x0 = rng.integers(0, 2, size=400) * 2.0 - 1.0
    cfg = SolverConfig(T_factor=5.0, seed=1, p_override=params.p)
    r_pos = spi_solve(g, cfg, x0=x0)
    r_neg = spi_solve(g, cfg, x0=-x0)
    assert np.array_equal(r_pos.signs, -r_neg.signs)
    assert np.allclose(r_pos.u_trace, [-t for t in r_neg.u_trace])


@pytest.mark.parametrize("x0", [
    np.zeros(40), np.ones(39), np.ones(41), np.ones((40, 1)),
    np.r_[np.nan, np.ones(39)], np.r_[np.inf, np.ones(39)],
], ids=["zero", "short", "long", "column", "nan", "inf"])
def test_spi_rejects_a_bad_start_vector(x0):
    g, _ = sample_bipartite_block(BlockModelParams(40, 40, 1.8, 0.3, 0))
    with pytest.raises(ValueError, match="x0 must have shape"):
        spi_solve(g, SolverConfig(seed=0), x0=x0)


def test_spi_rejects_left_truth_of_the_wrong_length():
    g, part = sample_bipartite_block(BlockModelParams(40, 40, 1.8, 0.3, 0))
    with pytest.raises(ValueError, match="truth.u"):
        spi_solve(g, SolverConfig(seed=0), truth=HiddenPartition(part.u[:38], part.v))
    # right labels of neither 0 nor n2 entries only skip the right trace
    res = spi_solve(g, SolverConfig(seed=0), truth=HiddenPartition(part.u, part.v[:38]))
    assert res.ok and res.v_trace is None and len(res.u_trace) == res.iterations


def test_spi_nan_iterate_is_degenerate():
    # a NaN density makes every iterate NaN, which no norm check may pass
    g, part = sample_bipartite_block(BlockModelParams(40, 40, 1.8, 0.3, 0))
    config = SolverConfig(seed=0, p_override=math.nan)
    res = spi_solve(g, config)
    assert res.status == "degenerate" and res.signs is None
    # with truth, the whole result: no iterate, empty traces, and the edges
    # touched up to the first pair, whose first norm aborts
    res = spi_solve(g, config, truth=part).to_dict()
    subs = split_edges(g, res["T"], np.random.SeedSequence(0).spawn(2)[0]).subs
    assert res["status"] == "degenerate" and res["signs"] is None and res["overlap"] is None
    assert res["iterations"] == 0 and res["U_trace"] == [] and res["V_trace"] == []
    assert res["ops_edge_touches"] == 2 * g.num_edges + subs[0].num_edges + subs[1].num_edges


@pytest.mark.parametrize("p", [-0.5, 5.0, math.inf, -math.inf, True, "0.5"])
def test_solver_config_rejects_density_outside_unit_interval(p):
    with pytest.raises(ValueError, match="p_override must be a number in"):
        SolverConfig(p_override=p)


SRC = Path(__file__).resolve().parents[1] / "src"
_THREADED_SOLVE = """
import json, math
from planted.instances import BlockModelParams, sample_bipartite_block
from planted.solver import SolverConfig, spi_solve
n1, n2 = 100, 100_000
g, truth = sample_bipartite_block(BlockModelParams(n1, n2, 1.8, 25 * math.log(n1) / (0.64 * math.sqrt(n1 * n2)), 4))
print(json.dumps(spi_solve(g, SolverConfig(seed=4), truth=truth).to_dict()))
"""


def test_traces_do_not_depend_on_blas_threads():
    # ~12k support vertices per sub-graph: enough for OpenBLAS to split a dot
    # product over two threads, whose partial sums then add in another order
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _THREADED_SOLVE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out.append(json.loads(proc.stdout))
    assert out[0]["status"] == "ok" and len(out[0]["V_trace"]) == out[0]["iterations"]
    assert out[0] == out[1]


def test_dense_reference_matches_implicit():
    # the whole solve against the oracle's own loop over dense sub-matrices
    for seed in range(3):
        params = BlockModelParams(50, 70, 1.6, 0.25, seed)
        g, part = sample_bipartite_block(params)
        cfg = SolverConfig(seed=seed + 10, p_override=params.p)
        imp = spi_solve(g, cfg, truth=part)
        ref = dense_spi_solve(g, cfg, truth=part)
        assert imp.status == ref.status == "ok"
        assert (imp.iterations, imp.T, imp.ops_edge_touches) == (ref.iterations, ref.T, ref.ops_edge_touches)
        assert np.array_equal(imp.signs, ref.signs)
        assert np.allclose(imp.u_trace, ref.u_trace, atol=1e-9)
        assert np.allclose(imp.v_trace, ref.v_trace, atol=1e-9)


def _lopsided_and_wide():
    """A lopsided block model (n1 = 64, n2 = 10^4) with its density p and
    truth, and the same edges spread over n2 = 2^62 right vertices."""
    n1, n2, delta = 64, 10_000, 1.8  # n2 > 100 * n1
    p = 25 * math.log(n1) / ((delta - 1) ** 2 * math.sqrt(n1 * n2))
    g, part = sample_bipartite_block(BlockModelParams(n1, n2, delta, p, 0))
    return g, p, part, BipartiteGraph(n1, 2**62, g.edges * np.array([1, 2**62 // n2]))


def test_spi_lopsided_never_allocates_right_side():
    # The same edges spread over n2 = 2^62 right vertices: an array with n2
    # entries cannot be allocated ("array is too big"), so a solve that
    # finishes has built nothing of size n2.
    g, p, part, wide = _lopsided_and_wide()
    res = spi_solve(g, SolverConfig(seed=1, p_override=p), truth=part)
    assert res.overlap == 1.0
    res = spi_solve(wide, SolverConfig(seed=1))
    assert res.status == "ok" and res.iterations == res.T // 2


@pytest.mark.parametrize("n1, n2, p, dtype", [
    (100, 10**5, 0.0569, np.uint32),  # m = 569k
    (600, 600, 0.5, np.uint32),  # m = 180k
    (100, 10**6, 0.003, np.int64),  # m = 300k
    (100, 10**6, 0.018, np.int64),  # m = 1.8M, n2 <= m: a 4-byte slot per right vertex
])
def test_spi_solve_holds_one_sorted_key_per_edge(n1, n2, p, dtype):
    # the split holds its sorted keys, 4 or 8 B per edge, and the loop
    # decodes one pair of sub-graphs at a time; all T decoded at once held
    # 20-33 B per edge on these shapes
    g, part = sample_bipartite_block(BlockModelParams(n1, n2, 1.8, p, 3))
    assert _key_dtype(n1, n2, SolverConfig().resolve_T(n1)) is dtype

    def traced_peak(truth):
        tracemalloc.start()
        try:
            res = spi_solve(g, SolverConfig(seed=4), truth=truth)
            return res, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    res, peak = traced_peak(part)
    assert res.ok and peak / g.num_edges <= 16
    if n2 == 10**6 and n2 <= g.num_edges:
        # the truth's right labels are read as stored, with no n2-long copy;
        # only at this shape would n2 bytes stand clear of the traces' few KB
        assert peak - traced_peak(None)[1] < n2 / 4


def test_spi_solve_with_its_graph_holds_at_most_16_bytes_per_edge():
    # the sbm_square shape, 1.55M edges, the graph traced from the sampler on:
    # int32 pairs hold 8 B per edge, the split's uint32 key 4 and one pair of
    # decoded sub-graphs the rest, 13.3-13.8 B per edge in all; int64 pairs
    # held 21.3
    tracemalloc.start()
    try:
        g, part = sample_bipartite_block(BlockModelParams(4000, 4000, 1.8, 0.097, 3))
        tracemalloc.reset_peak()
        res = spi_solve(g, SolverConfig(seed=4), truth=part)
        per_edge = tracemalloc.get_traced_memory()[1] / g.num_edges
    finally:
        tracemalloc.stop()
    assert res.ok and per_edge <= 16


def test_int32_graphs_split_solve_and_write_as_their_int64_rebuilds(tmp_path):
    g, part = sample_bipartite_block(BlockModelParams(60, 90, 1.8, 0.3, 5))
    q = noisy_xor_weights(3, 0.8)
    inst = sample_planted_csp(q, 12, 400, seed=5)
    red = csp_to_bipartite(inst, distribution_complexity(q))
    wide_inst = PlantedCspInstance(inst.n, inst.sigma, inst.clause_vars.astype(np.int64),
                                   inst.clause_signs.astype(np.int64))
    red_wide = csp_to_bipartite(wide_inst, distribution_complexity(q))
    assert red_wide.graph.edges.dtype == np.int32 and np.array_equal(red_wide.graph.edges, red.graph.edges)
    # ids that fit int32 under an n2 that makes the split rank them, as a
    # reduction's tuple ids do under a nominal n2 past int64
    ranked = BipartiteGraph(4, 2**62, np.array([[0, 5], [1, 7], [3, 5], [3, 2**31 - 1]], dtype=np.int32))
    for graph, truth in ((g, part), (red.graph, red.truth), (ranked, None)):
        wide = BipartiteGraph(graph.n1, graph.n2, graph.edges.astype(np.int64))
        assert graph.edges.dtype == np.int32 and wide.edges.dtype == np.int64
        _assert_same_subs(split_edges(graph, 6, 3).subs, split_edges(wide, 6, 3).subs)
        config = SolverConfig(seed=1)
        assert spi_solve(graph, config, truth=truth).to_dict() == spi_solve(wide, config, truth=truth).to_dict()
        assert np.array_equal(power_iteration_baseline(graph, 5, 0), power_iteration_baseline(wide, 5, 0))
        paths = tmp_path / "narrow.jsonl", tmp_path / "wide.jsonl"
        for path, written in zip(paths, (graph, wide)):
            files.write_sbm(path, written, delta=1.8, p=0.3, seed=5, truth=truth)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_spi_recovers_lopsided_aspect_ratio_100():
    # n2/n1 = 100 at C=25 with the default T_factor. This density is 11.5x
    # above the spectral barrier, so it checks SPI alone (acceptance
    # criterion 5 makes the baseline comparison below the barrier).
    n1, n2, delta = 100, 10_000, 1.8
    p = 25 * math.log(n1) / ((delta - 1) ** 2 * math.sqrt(n1 * n2))
    wins = 0
    for s in range(20):
        g, part = sample_bipartite_block(BlockModelParams(n1, n2, delta, p, s))
        res = spi_solve(g, SolverConfig(seed=s + 1000, p_override=p), truth=part)
        wins += res.ok and res.overlap == 1.0
    assert wins >= 18, f"exact {wins}/20"


def test_majority_window_covers_second_half():
    # default window is the second half of the computed iterates: with n_it
    # iterates that is indices (n_it/2, n_it] in 1-based counting
    cfg = SolverConfig()
    assert cfg.window_slice(10) == slice(5, 10)
    assert cfg.window_slice(7) == slice(3, 7)
    assert cfg.window_slice(1) == slice(0, 1)
    assert SolverConfig(majority_window=(0.0, 1.0)).window_slice(4) == slice(0, 4)


def test_window_validation():
    g, _, params = _square_instance(0, n=100, C=5.0)
    with pytest.raises(ValueError):
        spi_solve(g, SolverConfig(majority_window=(0.9, 0.2), p_override=params.p))


@pytest.mark.parametrize("window", [(0.9, 0.2), (0.5, 0.5), (-0.1, 0.5), (0.5, 1.1), (math.nan, 1.0), (0.5,),
                                    (0.1, 0.5, 1.0), ("0", 1.0), 0.5, None, (False, True)])
def test_window_checked_when_the_config_is_made(window):
    with pytest.raises(ValueError, match="majority_window must satisfy 0 <= lo < hi <= 1"):
        SolverConfig(majority_window=window)


@pytest.mark.parametrize("t_factor", [math.inf, -math.inf, math.nan, 0.0, -1.0, "3", True, None])
def test_t_factor_must_be_finite_and_positive(t_factor):
    with pytest.raises(ValueError, match="T_factor must be finite and positive"):
        SolverConfig(T_factor=t_factor)


@pytest.mark.parametrize("t_factor", [1e19, 1e300, 1.7e308])
def test_t_factor_past_what_the_split_can_draw_is_named(t_factor):
    # 1.7e308 * ln 6 overflows to inf
    with pytest.raises(ValueError, match=r"T_factor = .* sub-graphs at n1 = 6, past the 2\^63"):
        SolverConfig(T_factor=t_factor).resolve_T(6)
    assert SolverConfig(T_factor=1e17).resolve_T(6) == math.ceil(1e17 * math.log(6))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def test_majority_vote_positive_only():
    cv = np.array([[1, 2], [1, 3], [1, 4]])
    cs = np.array([[1, 1], [1, -1], [1, 1]])
    from planted.instances import PlantedCspInstance

    inst = PlantedCspInstance(5, None, cv, cs)
    assignment, flips = majority_vote_r1(inst, (0,), seed=0)
    assert assignment[1] == 1
    assert flips == 4  # variables 0, 2, 3, 4 never appear at position 0


def test_majority_vote_recovers_planted_sat():
    n = 200
    q = sat_clause_weights(3)
    m = int(130 * n * math.log(n))
    inst = sample_planted_csp(q, n, m, seed=1)
    assignment, _ = majority_vote_r1(inst, (0,), seed=2)
    assert overlap(assignment, inst.sigma) == 1.0


def test_majority_vote_coinflips_are_seeded():
    from planted.instances import PlantedCspInstance

    inst = PlantedCspInstance(6, None, np.array([[0, 1]]), np.array([[1, 1]]))
    a1, _ = majority_vote_r1(inst, (1,), seed=5)
    a2, _ = majority_vote_r1(inst, (1,), seed=5)
    assert np.array_equal(a1, a2)
    with pytest.raises(ValueError):
        majority_vote_r1(inst, (0, 1))


@pytest.mark.parametrize("position", [3, -1])
def test_majority_vote_rejects_a_position_outside_the_clause_width(position):
    # position 3 once raised IndexError on 3-wide clauses, and -1 read the last column
    inst = sample_planted_csp(sat_clause_weights(3), 10, 50, seed=0)
    with pytest.raises(ValueError, match=f"witness position {position} lies outside the clauses' width k = 3"):
        majority_vote_r1(inst, (position,))


def test_power_iteration_baseline_square_regime():
    g, part, params = _square_instance(4, n=300, C=12.0)
    signs = power_iteration_baseline(g, iterations=30, seed=0, p=params.p)
    assert overlap(signs, part.u) == 1.0


def test_power_iteration_baseline_trivial_dense():
    g, part = sample_bipartite_block(BlockModelParams(40, 40, 2.0, 0.5, 8))
    signs = power_iteration_baseline(g, iterations=10, seed=0, p=0.5)
    assert overlap(signs, part.u) == 1.0


@pytest.mark.parametrize("case, digest", [
    ("table", "4f838c3deced5923"),  # n2 = 300 <= m: right vertices found in the slot table
    ("search", "335bdb97b8bd556b"),  # n2 = 20000 > m: found by binary search
    ("wide", "9a78301694c2f8e2"),  # n2 = 2^62: binary search, nothing of size n2
])
def test_power_iteration_baseline_keeps_its_per_seed_digests(case, digest):
    # digests taken with binary search on every graph: the slot table must
    # give the same signs
    if case == "wide":
        graph, iterations = _lopsided_and_wide()[3], 5
    else:
        shape = (200, 300, 1.8, 0.3) if case == "table" else (60, 20_000, 1.8, 0.01)
        graph, iterations = sample_bipartite_block(BlockModelParams(*shape, 2))[0], 6
    assert (graph.n2 <= graph.num_edges) == (case == "table")
    signs = power_iteration_baseline(graph, iterations, 3)
    h = hashlib.sha256(signs.dtype.str.encode() + signs.tobytes())
    assert h.hexdigest()[:16] == digest


def test_power_iteration_baseline_errors():
    g = BipartiteGraph(4, 4, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(SolverError):
        power_iteration_baseline(g, iterations=5, seed=0)
    g2, _ = sample_bipartite_block(BlockModelParams(4, 4, 1.5, 0.1, 0))
    with pytest.raises(ValueError):
        power_iteration_baseline(g2, iterations=0, seed=0)
    # a NaN density passes the density rule and makes the iterate NaN
    with pytest.raises(SolverError, match="zero-norm iterate"):
        power_iteration_baseline(g2, iterations=3, seed=0, p=math.nan)
