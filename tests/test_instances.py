"""Generator tests: trivial edge cases, Monte Carlo laws, determinism."""
import hashlib
import itertools
import math
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import instances_oracle
from planted import instances
from planted.instances import (
    BipartiteGraph,
    BlockModelParams,
    GoldreichInstance,
    HiddenPartition,
    PlantedCspInstance,
    PlantingDistribution,
    _INT64_MAX,
    _key_dtype,
    _pack,
    constant_predicate,
    majority_predicate,
    noisy_xor_weights,
    overlap,
    parity_predicate,
    pattern_index,
    sample_bipartite_block,
    sample_goldreich,
    sample_planted_csp,
    sat_clause_weights,
    uniform_weights,
)
from planted.fourier import predicate_lowest_degree


# ---------------------------------------------------------------------------
# Block model
# ---------------------------------------------------------------------------


def test_sbm_delta2_gives_all_same_side_edges():
    g, part = sample_bipartite_block(BlockModelParams(4, 4, 2.0, 0.5, 1))
    assert g.num_edges == 8  # delta*p = 1 on the 8 same-side pairs
    assert all(part.u[i] == part.v[j] for i, j in g.edges)


def test_sbm_delta0_gives_all_crossing_edges():
    g, part = sample_bipartite_block(BlockModelParams(4, 4, 0.0, 0.5, 1))
    assert g.num_edges == 8
    assert all(part.u[i] != part.v[j] for i, j in g.edges)


def test_sbm_same_side_edge_frequency():
    # empirical same-side frequency over 500 seeds vs delta*p = 0.08
    delta, p = 1.6, 0.05
    same = trials = 0
    for seed in range(500):
        g, part = sample_bipartite_block(BlockModelParams(200, 200, delta, p, seed))
        same += int((part.u[g.edges[:, 0]] == part.v[g.edges[:, 1]]).sum())
        trials += 200 * 200 // 2  # balanced: half of all pairs are same-side
    target = delta * p
    se = math.sqrt(target * (1 - target) / trials)
    assert abs(same / trials - target) < 3 * se


def test_sbm_edge_count_concentration():
    n1 = n2 = 100
    p = 0.07
    total = sum(
        sample_bipartite_block(BlockModelParams(n1, n2, 1.4, p, s))[0].num_edges
        for s in range(120)
    )
    n_pairs = 120 * n1 * n2
    sd = math.sqrt(n_pairs * p * (1 - p))
    assert abs(total - n_pairs * p) < 4 * sd


def test_sbm_determinism():
    params = BlockModelParams(60, 80, 1.7, 0.1, 12345)
    g1, p1 = sample_bipartite_block(params)
    g2, p2 = sample_bipartite_block(params)
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(p1.u, p2.u) and np.array_equal(p1.v, p2.v)


def test_sbm_no_duplicate_edges():
    g, _ = sample_bipartite_block(BlockModelParams(50, 50, 1.9, 0.4, 3))
    assert len(np.unique(g.edges, axis=0)) == g.num_edges


def test_sbm_balanced_partition():
    _, part = sample_bipartite_block(BlockModelParams(40, 60, 1.5, 0.1, 9))
    assert part.u.sum() == 0 and part.v.sum() == 0


def test_sbm_rejects_bad_params():
    with pytest.raises(ValueError):
        sample_bipartite_block(BlockModelParams(4, 4, 1.8, 0.6, 0))  # delta*p > 1
    with pytest.raises(ValueError):
        sample_bipartite_block(BlockModelParams(5, 4, 1.5, 0.1, 0))  # odd n1
    with pytest.raises(ValueError):
        sample_bipartite_block(BlockModelParams(4, 4, 1.0, 0.1, 0))  # delta = 1
    with pytest.raises(ValueError):
        sample_bipartite_block(
            BlockModelParams(4, 4, 1.5, 0.1, 0),
            HiddenPartition(np.ones(6, dtype=int), np.ones(4, dtype=int)),
        )


def test_sbm_supplied_partition_is_used():
    u = np.array([1, 1, 1, -1], dtype=np.int64)
    v = np.array([-1, -1, 1, 1], dtype=np.int64)
    g, part = sample_bipartite_block(
        BlockModelParams(4, 4, 2.0, 0.5, 0), HiddenPartition(u, v)
    )
    assert np.array_equal(part.u, u)
    assert all(u[i] == v[j] for i, j in g.edges)


def test_sbm_tiny_density_gives_no_edges():
    # geometric gaps saturate at the int64 maximum for p this small
    g, _ = sample_bipartite_block(BlockModelParams(2, 2, 0.0, 7e-306, 0))
    assert g.num_edges == 0


@st.composite
def block_model_cases(draw):
    """(params, partition or None): small sizes, any valid delta and p."""
    delta = draw(st.sampled_from([0.0, 0.3, 1.5, 1.8, 2.0]))
    p = draw(st.floats(0.0, 1.0 / max(delta, 2.0 - delta)))
    seed = draw(st.integers(0, 2**63))
    if draw(st.booleans()):
        n1, n2 = (2 * draw(st.integers(1, 20)) for _ in range(2))
        return BlockModelParams(n1, n2, delta, p, seed), None
    n1, n2 = (draw(st.integers(1, 40)) for _ in range(2))
    signs = st.sampled_from([-1, 1])
    part = HiddenPartition(draw(st.lists(signs, min_size=n1, max_size=n1)),
                           draw(st.lists(signs, min_size=n2, max_size=n2)))
    return BlockModelParams(n1, n2, delta, p, seed), part


@settings(max_examples=150, deadline=None)
@given(case=block_model_cases())
def test_sbm_edges_come_in_lexsort_order(case):
    g, _ = sample_bipartite_block(*case)
    old_order = np.lexsort((g.edges[:, 1], g.edges[:, 0]))  # the sampler's sort before the packed key
    assert np.array_equal(g.edges, g.edges[old_order])


def _size(draw) -> int:
    """A size for one side of a packed key: small, at the 2^16 and 2^32 bounds, or past 2^32 up to 2^64."""
    return draw(st.one_of(st.integers(1, 30), st.sampled_from([2**16, 2**16 + 1, 2**32 - 1, 2**32]),
                          st.integers(2**32, 2**62), st.integers(2**62, 2**64)))


def _ids(draw, size: int):
    """Ids below ``size`` and within int64: near 0, near 2^31 where the size
    allows, or near the largest."""
    top = min(size, 2**63) - 1
    lows = [0, top - 16] + ([2**31 - 8] if top > 2**31 + 8 else [])
    lo = max(0, draw(st.sampled_from(lows)))
    return st.integers(lo, min(top, lo + 16))


@st.composite
def pack_cases(draw):
    """(a, a_size, b, b_size): id pairs below the sizes, repeats allowed, whose
    keys range over uint32, int64, ranked a, ranked a and b, and no pairs at all."""
    a_size, b_size = _size(draw), _size(draw)
    return _pair_case(draw(st.lists(st.tuples(_ids(draw, a_size), _ids(draw, b_size)), max_size=40)), a_size, b_size)


def _pair_case(pairs, a_size, b_size):
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], a_size, edges[:, 1], b_size


# packed directly, (2^31, 5) would be 2^63 + 5 and wrap below every other key
_WRAPPING = _pair_case([[1, 0], [0, 2**31], [2**31, 5], [1, 2**31 + 1]], 2**32, 2**32)


def _assert_pack_round_trips(a, a_size, b, b_size):
    """_pack's keys take _key_dtype of the sizes after its ranking rule, stay
    below their bound, sort as np.lexsort does, and unpack to the pairs: int32
    where both sizes as given are at most 2^31, else int64."""
    pairs_dtype = np.int32 if max(a_size, b_size) <= 2**31 else np.int64
    key, size, unpack = _pack(a, a_size, b, b_size)
    if a_size * b_size > _INT64_MAX:
        a_size = len(np.unique(a))
        if max(a_size, 1) * b_size > _INT64_MAX:
            b_size = len(np.unique(b))
    assert key.dtype == _key_dtype(a_size, b_size) and key.shape == a.shape
    assert size == a_size * b_size and (key < size).all()
    assert np.array_equal(np.argsort(key, kind="stable"), np.lexsort((b, a)))
    pairs = unpack(key)
    assert pairs.dtype == pairs_dtype and np.array_equal(pairs, np.column_stack([a, b]).reshape(-1, 2))


@settings(max_examples=200, deadline=None)
@given(case=pack_cases())
@example(case=_pair_case([[3, 7], [0, 29], [3, 2], [3, 7]], 30, 30))  # uint32 keys
@example(case=_pair_case([[2**16, 0], [0, 2**16 - 1], [1, 3]], 2**16 + 1, 2**16))  # just past 2^32: int64
@example(case=_WRAPPING)  # ranked a
# b_size alone passes 2^63 / 2, so the columns are ranked after the rows
@example(case=_pair_case([[1, 2**62], [0, 5]], 2, 2**62 + 1))
@example(case=_pair_case([[0, 2**62 - 1], [2**62 - 1, 0], [3, 2**62 - 2], [0, 1]], 2**62, 2**62))
@example(case=_pair_case([], 3, 2**64))  # a graph file with no edges may declare any n2
@example(case=_pair_case([[0, 2**32 - 1], [0, 5]], 1, 2**32))  # size 1 beside 2^32, unranked
def test_pack_orders_like_lexsort_and_unpacks_to_the_pairs(case):
    _assert_pack_round_trips(*case)


@pytest.mark.parametrize("a, a_size, b, b_size", [
    _pair_case([], 39_044_669, 236_226_155_147),  # the rows rank to size 0 beside 2.4e11
    _pair_case([[2**40, 7], [2**40, 2**32 - 1]], 2**40 + 1, 2**32),  # the rows rank to size 1 beside 2^32
], ids=["size-0-beside-2.4e11", "size-1-beside-2^32"])
def test_pack_after_ranking_keeps_int64_keys_beside_a_size_past_2_to_the_32(a, a_size, b, b_size):
    """A product within 2^32 is not enough for uint32 keys: a radix of 2^32 or
    more does not fit uint32 even beside a size of 0 or 1."""
    assert _key_dtype(len(np.unique(a)), b_size) is np.int64
    _assert_pack_round_trips(a, a_size, b, b_size)


@pytest.mark.parametrize(
    "bad, message",
    [((-1, 0), "left"), ((2, 1), "left"), ((1, -3), "right"), ((0, 5), "right")],
    ids=["left-negative", "left-past-n1", "right-negative", "right-past-n2"],
)
def test_graph_type_rejects_out_of_range(bad, message):
    edges = np.array([[0, 0], [1, 1], bad, [1, 0]])
    with pytest.raises(ValueError, match=f"{message} endpoint out of range"):
        BipartiteGraph(2, 2, edges)


def test_geometric_skip_sampler_matches_joint_bernoulli_law():
    """The skip sampler must equal independent per-position coin flips as a
    joint distribution, not just marginally: chi-square over all 2^6 subsets."""
    from planted.instances import _bernoulli_indices

    length, prob, reps = 6, 0.3, 20_000
    rng = np.random.default_rng(77)
    counts = np.zeros(2**length)
    for _ in range(reps):
        hits = _bernoulli_indices(length, prob, rng)
        counts[(1 << hits).sum() if len(hits) else 0] += 1
    expected = np.empty(2**length)
    for mask in range(2**length):
        k = bin(mask).count("1")
        expected[mask] = reps * prob**k * (1 - prob) ** (length - k)
    assert stats.chisquare(counts, expected).pvalue > 0.001


_THIRD = 1.0 / 3.0  # numpy's geometric searches its CDF from this p up
_GAP_PROBS = st.one_of(
    st.floats(1e-12, _THIRD, exclude_max=True),
    st.sampled_from([float(np.nextafter(_THIRD, 0.0)), _THIRD, float(np.nextafter(_THIRD, 1.0)), 0.999]),
    st.floats(_THIRD, 1.0, exclude_min=True),
    st.sampled_from([5e-324, 1e-310, 2.2e-308]),  # denormal: the exponential quotient overflows
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    prob=_GAP_PROBS,
    size=st.integers(0, 400),
    cap=st.sampled_from([1, 2, 17, 10**6, 2**53, 2**53 + 1, 2**62, 2**63 - 1]),
)
@example(seed=0, prob=5e-324, size=50, cap=2**53)
@example(seed=1, prob=1e-9, size=300, cap=2**53 + 1)
def test_geometric_gaps_match_numpy_geometric_and_leave_the_same_state(seed, prob, size, cap):
    # below p = 1/3 the gaps come from numpy's own exponential stream
    from planted.instances import _geometric_gaps

    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _geometric_gaps(prob, size, cap, ours)
    want = np.minimum(numpys.geometric(prob, size), cap)
    _assert_same(got, want)
    assert ours.random() == numpys.random()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**63), half=st.integers(0, 300))
@example(seed=7, half=500_000)  # n2 of sbm_lopsided
def test_int8_partition_matches_int64_partition(seed, half):
    from planted.instances import _balanced_signs

    narrow, wide = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _balanced_signs(2 * half, narrow)
    want = wide.permutation(np.repeat(np.array([1, -1], dtype=np.int64), half))
    assert got.dtype == np.int8 and np.array_equal(got, want)
    assert narrow.random() == wide.random()


def test_geometric_skip_sampler_extremes():
    from planted.instances import _bernoulli_indices

    rng = np.random.default_rng(0)
    assert len(_bernoulli_indices(10, 0.0, rng)) == 0
    assert _bernoulli_indices(10, 1.0, rng).tolist() == list(range(10))
    assert len(_bernoulli_indices(0, 0.5, rng)) == 0


# ---------------------------------------------------------------------------
# Planted CSP
# ---------------------------------------------------------------------------


def _clause_street(instance):
    """No clause repeats a variable, indices in range."""
    cv = instance.clause_vars
    assert cv.max() < instance.n and cv.min() >= 0
    assert (np.diff(np.sort(cv, axis=1), axis=1) > 0).all()


def test_csp_uniform_q_shapes_and_determinism():
    q = uniform_weights(3)
    a = sample_planted_csp(q, 10, 500, seed=7)
    b = sample_planted_csp(q, 10, 500, seed=7)
    assert a.m == 500 and a.k == 3
    _clause_street(a)
    assert np.array_equal(a.clause_vars, b.clause_vars)
    assert np.array_equal(a.clause_signs, b.clause_signs)
    assert np.array_equal(a.sigma, b.sigma)


@pytest.mark.parametrize(
    "q,n,m",
    [
        (sat_clause_weights(3), 8, 130_000),
        (noisy_xor_weights(2, 0.5), 5, 120_000),
    ],
)
def test_csp_rejection_sampler_exactness(q, n, m):
    """Chi-square of the empirical clause distribution against the exact law:
    probability proportional to the weight of the induced value pattern."""
    inst = sample_planted_csp(q, n, m, seed=11)
    k, sigma = q.k, inst.sigma

    probs = {}
    for vs in itertools.permutations(range(n), k):
        for ss in itertools.product((-1, 1), repeat=k):
            z = tuple(s * sigma[v] for v, s in zip(vs, ss))
            probs[vs + ss] = q.weights[pattern_index(np.array(z))]
    total = sum(probs.values())

    keys = [tuple(vs) + tuple(ss) for vs, ss in zip(inst.clause_vars, inst.clause_signs)]
    counts = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1

    observed, expected = [], []
    for cell, w in probs.items():
        if w == 0:
            assert cell not in counts  # zero-probability clauses never appear
            continue
        observed.append(counts.get(cell, 0))
        expected.append(m * w / total)
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 0.001


def test_csp_sat_pattern_frequencies():
    q = sat_clause_weights(3)
    inst = sample_planted_csp(q, 20, 100_000, seed=5)
    idx = pattern_index(inst.sigma[inst.clause_vars] * inst.clause_signs)
    counts = np.bincount(idx, minlength=8)
    assert counts[0] == 0  # all-false pattern has weight zero
    se = math.sqrt((1 / 7) * (6 / 7) / inst.m)
    assert (np.abs(counts[1:] / inst.m - 1 / 7) < 3 * se).all()


def test_csp_noisy_2xor_satisfied_fraction():
    inst = sample_planted_csp(noisy_xor_weights(2, 0.5), 10, 100_000, seed=5)
    vals = inst.sigma[inst.clause_vars] * inst.clause_signs
    frac = (vals.prod(axis=1) == 1).mean()
    se = math.sqrt(0.75 * 0.25 / inst.m)
    assert abs(frac - 0.75) < 3 * se


@pytest.mark.parametrize("preset", [uniform_weights, sat_clause_weights, lambda k: noisy_xor_weights(k, 0.5)],
                         ids=["uniform", "sat", "noisy-xor"])
@pytest.mark.parametrize("k", [0, -1, -5])
def test_weight_presets_reject_width_below_1(preset, k):
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        preset(k)


def test_csp_rejects():
    with pytest.raises(ValueError):
        sample_planted_csp(uniform_weights(3), 2, 10, 0)  # n < k
    with pytest.raises(ValueError):
        PlantingDistribution(2, np.zeros(4))  # all-zero table


def test_csp_cramped_n_equals_k():
    inst = sample_planted_csp(uniform_weights(3), 3, 2000, seed=1)
    _clause_street(inst)


# ---------------------------------------------------------------------------
# Predicate constraints
# ---------------------------------------------------------------------------


def test_goldreich_constant_predicate_values():
    inst = sample_goldreich(constant_predicate(3), 10, 300, seed=2)
    assert (inst.values == 1).all()


def test_goldreich_parity2_values_match_product():
    inst = sample_goldreich(parity_predicate(2), 12, 2000, seed=3)
    expect = inst.sigma[inst.tuple_vars[:, 0]] * inst.sigma[inst.tuple_vars[:, 1]]
    assert np.array_equal(inst.values, expect)


def test_goldreich_majority3_value_frequency():
    inst = sample_goldreich(majority_predicate(3), 15, 10_000, seed=4)
    # exact expectation over all ordered distinct tuples given sigma
    table, sigma = inst.predicate, inst.sigma
    pos = 0
    tuples = list(itertools.permutations(range(15), 3))
    for vs in tuples:
        pos += table[pattern_index(sigma[np.array(vs)])] == 1
    target = pos / len(tuples)
    frac = (inst.values == 1).mean()
    se = math.sqrt(target * (1 - target) / inst.m)
    assert abs(frac - target) < 3 * se


def test_goldreich_determinism_and_street():
    a = sample_goldreich(majority_predicate(3), 9, 400, seed=6)
    b = sample_goldreich(majority_predicate(3), 9, 400, seed=6)
    assert np.array_equal(a.tuple_vars, b.tuple_vars)
    assert np.array_equal(a.values, b.values)
    assert (np.diff(np.sort(a.tuple_vars, axis=1), axis=1) > 0).all()


def test_goldreich_rejects():
    with pytest.raises(ValueError):
        sample_goldreich(parity_predicate(3), 2, 10, 0)
    with pytest.raises(ValueError):
        sample_goldreich(np.array([1, 2, 1, 1]), 8, 10, 0)
    for table in ([1], [-1], []):  # k = 0 (or no table): the file readers refuse k = 0
        with pytest.raises(ValueError, match="k >= 1"):
            sample_goldreich(np.array(table, dtype=np.int64), 10, 5, 0)


_PARITY3 = parity_predicate(3)
_TUPLES = np.array([[0, 1, 2], [1, 2, 3]])


@pytest.mark.parametrize(
    "predicate, sigma, tuple_vars, values, message",
    [
        (_PARITY3, None, _TUPLES, np.array([1]), "one \\+1 or -1 per tuple"),
        (_PARITY3, None, _TUPLES, np.array([1, 0]), "one \\+1 or -1 per tuple"),
        (parity_predicate(2), None, _TUPLES, np.array([1, -1]), "length 2\\^k"),  # width 2 on 3-wide tuples
        (np.array([1, 2, 1, 1, 1, 1, 1, 1]), None, _TUPLES, np.array([1, -1]), "length 2\\^k"),
        (_PARITY3, None, np.array([0, 1, 2]), np.array([1]), "\\(m, k\\) array"),
        (_PARITY3, np.array([1, -1, 1]), _TUPLES, np.array([1, -1]), "sigma must have length n"),
        # fractional entries were truncated to +/-1 and accepted
        ([1.9, -1.2, -1, 1], None, _TUPLES[:, :2], np.array([1, -1]), "length 2\\^k"),
        (_PARITY3, None, _TUPLES[:1], [1.6], "one \\+1 or -1 per tuple"),
        (_PARITY3, np.array([0, 5, 1, 1]), _TUPLES, np.array([1, -1]), "sigma must have length n, with \\+1/-1"),
    ],
    ids=["short-values", "zero-value", "narrow-predicate", "non-pm1-predicate", "1d-tuples", "short-sigma",
         "fractional-predicate", "fractional-value", "non-pm1-sigma"],
)
def test_goldreich_instance_rejects_malformed_fields(predicate, sigma, tuple_vars, values, message):
    with pytest.raises(ValueError, match=message):
        GoldreichInstance(4, predicate, sigma, tuple_vars, values)


_INT64_ENTRIES = "must hold integers within int64"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BipartiteGraph(2, 2, [[0.5, 1.9]]), "edges " + _INT64_ENTRIES),
        (lambda: BipartiteGraph(2, 2, [[2**64, 0]]), "edges " + _INT64_ENTRIES),
        (lambda: BipartiteGraph(2, 2, [[2**63, 0]]), "edges " + _INT64_ENTRIES),
        (lambda: BipartiteGraph(2, 2, [[np.nan, 0]]), "edges " + _INT64_ENTRIES),
        (lambda: BipartiteGraph(2, 2, [[0, -np.inf]]), "edges " + _INT64_ENTRIES),
        (lambda: HiddenPartition([1.5, -1], [1]), "u entries must be \\+/-1"),
        (lambda: HiddenPartition([1, -1], [2**70]), "v entries must be \\+/-1"),
        (lambda: PlantedCspInstance(3, None, [[0.0, 1.7, 2.2]], [[1, 1, 1]]), "clause_vars " + _INT64_ENTRIES),
        (lambda: PlantedCspInstance(3, None, [[0, 1, 2]], [[1, 1, 2**70]]), "clause_signs " + _INT64_ENTRIES),
        (lambda: PlantedCspInstance(3, [0, 5, 1], [[0, 1, 2]], [[1, 1, 1]]), "sigma must have length n"),
        (lambda: predicate_lowest_degree([]), "length 2\\^k with k >= 1"),
        (lambda: sample_goldreich([1.5, -1, -1, 1], 8, 5, 0), "length 2\\^k with k >= 1"),
    ],
    ids=["fractional-edge", "edge-past-uint64", "edge-at-2^63", "nan-edge", "inf-edge", "fractional-label",
         "label-past-int64", "fractional-clause-var", "clause-sign-past-int64", "non-pm1-sigma",
         "empty-predicate", "fractional-sampler-predicate"],
)
def test_inputs_that_are_not_int64_or_pm1_raise_value_error(build, message):
    """Each of these was truncated and accepted, or escaped as an
    ``OverflowError``, or raised naming the wrong rule."""
    with pytest.raises(ValueError, match=message):
        build()


def test_integer_valued_inputs_become_int64_and_int64_edges_are_not_copied():
    edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert np.shares_memory(BipartiteGraph(2, 2, edges).edges, edges)
    for e in ([[0.0, 1.0]], np.array([[0, 1]], dtype=np.int8), np.array([[0, 1]], dtype=np.uint64)):
        g = BipartiteGraph(2, 2, e)
        assert g.edges.dtype == np.int32 and g.edges.tolist() == [[0, 1]]
    part = HiddenPartition(np.array([1, -1], dtype=np.int8), [1.0, -1.0])
    assert part.u.dtype == part.v.dtype == np.int64 and part.u.tolist() == part.v.tolist() == [1, -1]
    csp = PlantedCspInstance(3, [1.0, -1.0, 1.0], [[0.0, 1.0, 2.0]], np.array([[1, -1, 1]], dtype=np.int8))
    for arr, want, dtype in (
        (csp.sigma, [1, -1, 1], np.int64), (csp.clause_vars, [[0, 1, 2]], np.int32), (csp.clause_signs, [[1, -1, 1]], np.int8)
    ):
        assert arr.dtype == dtype and arr.tolist() == want
    pred = GoldreichInstance(3, [1.0, -1.0, -1.0, 1.0], None, np.array([[0, 2]], dtype=np.int8), [-1.0])
    assert (pred.predicate.dtype, pred.tuple_vars.dtype, pred.values.dtype) == (np.int64, np.int32, np.int8)
    assert predicate_lowest_degree([1.0, -1.0, -1.0, 1.0]).r == 2


def test_int32_edges_are_not_copied_and_an_id_past_int32_keeps_int64():
    narrow = np.array([[0, 1], [1, 0]], dtype=np.int32)
    assert np.shares_memory(BipartiteGraph(2, 2, narrow).edges, narrow)
    # an id past int32 keeps the whole array int64, with every id as given
    for ids in ([[0, 2**31], [1, 2**31 - 1]], np.array([[0, 2**31], [1, 2**31 - 1]], dtype=np.uint64)):
        g = BipartiteGraph(2, 2**40, ids)
        assert g.edges.dtype == np.int64 and g.edges.tolist() == [[0, 2**31], [1, 2**31 - 1]]
    with pytest.raises(ValueError, match="right endpoint out of range"):
        BipartiteGraph(2, 2**31, [[0, 2**31]])


def test_block_sampler_holds_8_bytes_per_edge():
    # int32 pairs, where int64 held 16 B per edge
    g, _ = sample_bipartite_block(BlockModelParams(400, 4000, 1.8, 0.05, 7))
    assert g.num_edges > 50_000
    assert g.edges.dtype == np.int32 and g.edges.nbytes == 8 * g.num_edges


def test_goldreich_instance_normalizes_to_int64():
    inst = GoldreichInstance(4, [1, -1, -1, 1, -1, 1, 1, -1], [1, 1, -1, -1], [[0, 1, 2]], [-1])
    for arr in (inst.predicate, inst.sigma, inst.tuple_vars, inst.values):
        assert arr.dtype == np.int64
    assert (inst.m, inst.k) == (1, 3)


def test_sampled_instances_hold_5k_bytes_per_clause_and_share_compact_or_int64_input():
    # the csp_3xor shape: int32 ids and int8 signs hold 15 B per clause, where
    # int64 held 48
    n, k = 150, 3
    m = math.floor(100 * n**1.5 * math.log(n))
    csp = sample_planted_csp(noisy_xor_weights(k, 0.8), n, m, 25)
    assert csp.clause_vars.nbytes + csp.clause_signs.nbytes == 5 * k * m
    pred = sample_goldreich(parity_predicate(k), n, m, 25)
    assert pred.tuple_vars.nbytes == 4 * k * m and pred.values.nbytes == m
    again = PlantedCspInstance(n, None, csp.clause_vars, csp.clause_signs)
    assert np.shares_memory(again.clause_vars, csp.clause_vars) and np.shares_memory(again.clause_signs, csp.clause_signs)
    wide = csp.clause_vars[:9].astype(np.int64)
    assert np.shares_memory(PlantedCspInstance(n, None, wide, csp.clause_signs[:9]).clause_vars, wide)
    again = GoldreichInstance(n, pred.predicate, pred.sigma, pred.tuple_vars, pred.values)
    for name in ("predicate", "sigma", "tuple_vars", "values"):
        assert np.shares_memory(getattr(again, name), getattr(pred, name))


# ---------------------------------------------------------------------------
# Against the reference samplers: bit-equal arrays, same dtypes but for the
# compact per-clause ones
# ---------------------------------------------------------------------------


def _assert_same(got, want, dtype=None):
    """Equal values and shapes; the dtype is ``dtype`` when given, else ``want``'s."""
    assert got.dtype == (want.dtype if dtype is None else dtype) and got.shape == want.shape
    assert np.array_equal(got, want)


# the samplers' per-clause arrays, compact where the references' are int64
_COMPACT = {"clause_vars": np.int32, "clause_signs": np.int8, "tuple_vars": np.int32, "values": np.int8}


_ALTERNATING = HiddenPartition([1, -1, 1, -1, 1], [-1, 1, 1])


@settings(max_examples=150, deadline=None)
@given(case=block_model_cases())
@example(case=(BlockModelParams(6, 8, 1.8, 0.0, 1), None))  # p = 0
@example(case=(BlockModelParams(6, 8, 1.8, 1 / 1.8, 2), None))  # same-side blocks full
@example(case=(BlockModelParams(6, 8, 0.0, 0.5, 3), None))  # crossing blocks full
@example(case=(BlockModelParams(5, 3, 1.5, 1 / 1.5, 4), _ALTERNATING))  # odd sizes
@example(case=(BlockModelParams(1, 7, 1.8, 0.4, 5), HiddenPartition([-1], [1] * 7)))  # n1 = 1
def test_sbm_matches_reference_sampler(case):
    (g, part), (g_ref, part_ref) = sample_bipartite_block(*case), instances_oracle.sample_bipartite_block(*case)
    _assert_same(g.edges, g_ref.edges, np.int32)
    _assert_same(part.u, part_ref.u)
    _assert_same(part.v, part_ref.v)


@pytest.mark.parametrize("p", [0.02, 0.2, 0.45], ids=["exponential", "exponential-near-third", "search"])
def test_sbm_matches_reference_sampler_at_scale(p):
    # blocks of ~10^5 pairs at delta 1.6: same-side p 0.032, 0.32 and 0.72
    # (numpy's CDF search), crossing p 0.008, 0.08 and 0.18
    for seed in range(3):
        case = (BlockModelParams(300, 1400, 1.6, p, seed), None)
        (g, part), (g_ref, part_ref) = sample_bipartite_block(*case), instances_oracle.sample_bipartite_block(*case)
        _assert_same(g.edges, g_ref.edges, np.int32)
        _assert_same(part.u, part_ref.u)
        _assert_same(part.v, part_ref.v)


@st.composite
def csp_cases(draw):
    """(k, n, m, seed) with n on either side of _cramped's 4 k^2 cut."""
    k = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(k, max(k, 4 * k * k - 1)), st.integers(4 * k * k, 4 * k * k + 40)))
    return k, n, draw(st.integers(0, 40)), draw(st.integers(0, 2**63))


@settings(max_examples=150, deadline=None)
@given(case=csp_cases(), law=st.sampled_from(["uniform", "sat", "xor"]), eta=st.floats(-1.0, 1.0))
def test_csp_matches_reference_sampler(case, law, eta):
    k, n, m, seed = case
    q = {"uniform": uniform_weights(k), "sat": sat_clause_weights(k), "xor": noisy_xor_weights(k, eta)}[law]
    got, want = sample_planted_csp(q, n, m, seed), instances_oracle.sample_planted_csp(q, n, m, seed)
    for name in ("sigma", "clause_vars", "clause_signs"):
        _assert_same(getattr(got, name), getattr(want, name), _COMPACT.get(name))


@pytest.mark.parametrize("n", [600, 20], ids=["iid", "cramped"])
def test_csp_matches_reference_sampler_over_several_rounds(n, monkeypatch):
    # a one-hot k = 12 law accepts 1 proposal in 4096, below the 1e-3 floor
    # of the batch size, so m = 40 takes several proposal rounds; over these
    # seeds some step draws more hits than it needs and is cut
    steps = []
    keep_first = instances._keep_first

    def recording(mask, need):
        steps.append((need, int(np.count_nonzero(mask))))
        return keep_first(mask, need)

    monkeypatch.setattr(instances, "_keep_first", recording)
    weights = np.zeros(2**12)
    weights[2**12 - 1] = 1.0
    q = PlantingDistribution(12, weights)
    for seed in range(8):
        got, want = sample_planted_csp(q, n, 40, seed), instances_oracle.sample_planted_csp(q, n, 40, seed)
        for name in ("sigma", "clause_vars", "clause_signs"):
            _assert_same(getattr(got, name), getattr(want, name), _COMPACT.get(name))
    assert len(steps) >= 4 * 8
    assert any(hits > need for need, hits in steps)


@pytest.mark.parametrize("kind", ["csp", "goldreich"])
def test_cramped_proposals_in_chunks_match_reference_sampler(kind, monkeypatch):
    # 112 bytes of keys per chunk: 7, 4 and 2 proposal rows at n = 2, 3 and 5
    monkeypatch.setattr(instances, "_CRAMPED_KEY_BYTES", 112)
    for n, seed in ((2, 0), (3, 1), (5, 2)):
        if kind == "csp":
            q = noisy_xor_weights(2, 0.6)
            got, want = sample_planted_csp(q, n, 300, seed), instances_oracle.sample_planted_csp(q, n, 300, seed)
            names = ("sigma", "clause_vars", "clause_signs")
        else:
            table = parity_predicate(2)
            got, want = sample_goldreich(table, n, 300, seed), instances_oracle.sample_goldreich(table, n, 300, seed)
            names = ("sigma", "tuple_vars", "values")
        for name in names:
            _assert_same(getattr(got, name), getattr(want, name), _COMPACT.get(name))


def test_cramped_proposals_peak_below_200_mb():
    # a 49 MB instance whose whole-batch keys and argsort peaked at 524 MB
    tracemalloc.start()
    try:
        inst = sample_planted_csp(uniform_weights(3), 35, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.m == 10**6
    assert peak < 200 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    size=st.integers(0, 300),
    high=st.sampled_from([1, 2, 150, 2**31]),
)
def test_int32_draws_match_int64_draws_and_leave_the_same_state(seed, size, high):
    # _proposals and sample_planted_csp draw int32 in place of int64;
    # numpy draws both from one 32-bit stream when the range fits 32 bits
    narrow, wide = np.random.default_rng(seed), np.random.default_rng(seed)
    a = narrow.integers(0, high, size, dtype=np.int32)
    b = wide.integers(0, high, size, dtype=np.int64)
    assert np.array_equal(a, b)
    assert narrow.random() == wide.random()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(9, 12),
    n=st.sampled_from([30, 600]),
    m=st.integers(1, 12),
    chunk=st.integers(300, 5000),
    seed=st.integers(0, 2**63),
)
@example(k=9, n=30, m=3, chunk=1, seed=5)  # one proposal per chunk, cramped
@example(k=9, n=600, m=3, chunk=1, seed=6)  # one proposal per chunk, i.i.d.
def test_csp_in_small_chunks_over_several_batches_matches_reference_sampler(k, n, m, chunk, seed):
    # a one-hot law accepts 1 proposal in 2^k, so most cases take several of
    # the reference's batches and many chunks, the last one cut at the m-th hit
    weights = np.zeros(2**k)
    weights[2**k - 1] = 1.0
    q = PlantingDistribution(k, weights)
    with unittest.mock.patch.object(instances, "_CHUNK_ROWS", chunk):
        got = sample_planted_csp(q, n, m, seed)
    want = instances_oracle.sample_planted_csp(q, n, m, seed)
    for name in ("sigma", "clause_vars", "clause_signs"):
        _assert_same(getattr(got, name), getattr(want, name), _COMPACT.get(name))


_CSP_3XOR_M = math.floor(100 * 150**1.5 * math.log(150))


@pytest.mark.parametrize("sample, bound_mb", [
    (lambda: sample_planted_csp(noisy_xor_weights(3, 0.8), 150, _CSP_3XOR_M, 23), 4),
    (lambda: sample_goldreich(parity_predicate(3), 150, _CSP_3XOR_M, 23), 6),
    (lambda: sample_planted_csp(noisy_xor_weights(3, 0.8), 20, 10**6, 0), 16),
], ids=["csp-3xor", "goldreich-3xor", "csp-cramped"])
def test_constraint_samplers_peak_a_few_chunks_above_their_result(sample, bound_mb):
    # the csp_3xor shape and a cramped one: whole-batch proposals peaked at
    # 24, 31 and 54 MB above the result, one chunk's temporaries take 2-12 MB
    tracemalloc.start()
    try:
        inst = sample()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.k == 3 and inst.m in (_CSP_3XOR_M, 10**6)
    assert peak - held <= bound_mb * 2**20


@pytest.mark.parametrize("chunk", [1, 7, 300])
def test_goldreich_in_small_chunks_matches_reference_sampler(chunk, monkeypatch):
    monkeypatch.setattr(instances, "_CHUNK_ROWS", chunk)
    for table, n, m, seed in ((parity_predicate(3), 40, 500, 0), (majority_predicate(3), 7, 200, 1),
                              (parity_predicate(2), 3, 50, 2)):
        got, want = sample_goldreich(table, n, m, seed), instances_oracle.sample_goldreich(table, n, m, seed)
        for name in ("predicate", "sigma", "tuple_vars", "values"):
            _assert_same(getattr(got, name), getattr(want, name), _COMPACT.get(name))


@pytest.mark.parametrize("n", [600, 20], ids=["iid", "cramped"])
def test_csp_sampler_does_not_depend_on_its_chunking(n, monkeypatch):
    q = noisy_xor_weights(3, 0.6)
    want = sample_planted_csp(q, n, 2000, 11)
    for chunk, key_bytes in ((1, 2**24), (7, 112), (2**15, 112), (7, 2**24)):
        monkeypatch.setattr(instances, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(instances, "_CRAMPED_KEY_BYTES", key_bytes)
        got = sample_planted_csp(q, n, 2000, 11)
        for name in ("sigma", "clause_vars", "clause_signs"):
            _assert_same(getattr(got, name), getattr(want, name))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def test_sigma_and_predicate_instances_keep_their_per_seed_digests():
    # the CSP sampler's clauses come from their own substreams; sigma (child 0
    # of the seed) and the predicate sampler's tuples, the first m distinct
    # proposals of child 1, are the arrays the whole-batch samplers drew
    g = sample_goldreich(parity_predicate(3), 150, _CSP_3XOR_M, 23)
    assert _digest(g.sigma, g.tuple_vars, g.values) == "45833f7253ccfb4e"
    g = sample_goldreich(majority_predicate(3), 20, 50_000, 5)  # cramped
    assert _digest(g.sigma, g.tuple_vars, g.values) == "493a7e988ca67f74"
    g = sample_goldreich(parity_predicate(2), 7, 300, 1)
    assert _digest(g.sigma, g.tuple_vars, g.values) == "ed1689699266065b"
    assert _digest(sample_planted_csp(noisy_xor_weights(3, 0.8), 150, 1000, 23).sigma) == "bce7c3c82f4b99ad"
    assert _digest(sample_planted_csp(uniform_weights(3), 20, 1000, 4).sigma) == "853aa9c049e71251"


@settings(max_examples=150, deadline=None)
@given(case=csp_cases(), data=st.data())
def test_goldreich_matches_reference_sampler(case, data):
    k, n, m, seed = case
    table = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=2**k, max_size=2**k)))
    got, want = sample_goldreich(table, n, m, seed), instances_oracle.sample_goldreich(table, n, m, seed)
    for name in ("predicate", "sigma", "tuple_vars", "values"):
        _assert_same(getattr(got, name), getattr(want, name), _COMPACT.get(name))


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3), seed=st.integers(0, 2**32))
def test_pattern_index_matches_reference(shape, seed):
    z = np.random.default_rng(seed).integers(0, 2, size=shape) * 2 - 1
    got, want = pattern_index(z), instances_oracle.pattern_index(z)
    assert type(got) is type(want)
    _assert_same(np.asarray(got), np.asarray(want))


def test_block_params_reject_sizes_past_int64():
    top = np.iinfo(np.int64).max  # 7 divides 2^63 - 1
    BlockModelParams(7, top // 7, 1.8, 0.0, 0).validate(require_even=False)
    with pytest.raises(ValueError, match="int64"):
        BlockModelParams(7, top // 7 + 1, 1.8, 0.0, 0).validate(require_even=False)
    with pytest.raises(ValueError, match="int64"):
        sample_bipartite_block(BlockModelParams(2**32, 2**32, 1.8, 0.0, 0))


# ---------------------------------------------------------------------------
# Overlap
# ---------------------------------------------------------------------------


def test_overlap_examples():
    assert overlap(np.array([1, 1, -1]), np.array([1, 1, -1])) == 1.0
    assert overlap(np.array([1, 1, -1]), np.array([-1, -1, 1])) == 1.0
    assert overlap(np.array([1, 1, 1, 1]), np.array([1, 1, -1, -1])) == 0.0
    with pytest.raises(ValueError):
        overlap(np.array([1, 1]), np.array([1]))
