"""Reduction tests: label conventions against the induced edge law, thinning,
lazy tuple indexing, and assignment decoding."""
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reduction_oracle import build_reduced_oracle, goldreich_to_bipartite_oracle
from scipy import stats

from planted import reduction
from planted.fourier import distribution_complexity, predicate_lowest_degree
from planted.instances import (
    PlantedCspInstance,
    PlantingDistribution,
    constant_predicate,
    majority_predicate,
    noisy_xor_weights,
    overlap,
    parity_predicate,
    _pattern_table,
    pattern_index,
    sample_goldreich,
    sample_planted_csp,
    sat_clause_weights,
    uniform_weights,
    _key_dtype,
)
from planted.reduction import (
    ReductionError,
    TupleIndexer,
    csp_to_bipartite,
    goldreich_to_bipartite,
    literal_codes,
    literal_truth_labels,
    partition_to_assignment,
    restrict_clause,
    tuple_truth_labels,
)
from planted.solver import SolverConfig, spi_solve


# ---------------------------------------------------------------------------
# Restriction and literal codes
# ---------------------------------------------------------------------------


def test_restrict_clause_positional():
    clause = ((4, 1), (5, -1), (9, 1))
    assert restrict_clause(clause, {0, 2}) == ((4, 1), (9, 1))
    assert restrict_clause(clause, {0, 1, 2}) == clause
    clause4 = ((0, -1), (1, 1), (2, -1), (3, 1))
    assert restrict_clause(clause4, {1, 3}) == ((1, 1), (3, 1))


def test_literal_codes():
    assert literal_codes(np.array([0, 0, 3]), np.array([1, -1, -1])).tolist() == [0, 1, 7]


@pytest.mark.parametrize("call", [
    lambda: literal_codes([0.7, 2.2], [1, -1]),  # truncated to [0, 5]
    lambda: literal_codes([0, 1], [1, 0]),  # a zero sign coded as positive
    lambda: literal_codes([0, 1], [1, -1.5]),
    lambda: literal_truth_labels([1.5, -1]),
    lambda: tuple_truth_labels([[0.5]], [1, -1]),
    lambda: tuple_truth_labels([[3]], [1, 0.5]),
    lambda: partition_to_assignment([0.7, -1]),
    lambda: partition_to_assignment([1, 0, -1, 1]),
], ids=["fractional-ids", "zero-sign", "fractional-sign", "fractional-sigma", "fractional-codes",
        "fractional-tuple-sigma", "fractional-result", "zero-result"])
def test_label_and_code_helpers_reject_what_they_would_truncate(call):
    with pytest.raises(ValueError):
        call()


def test_truth_label_conventions():
    sigma = np.array([1, -1, 1])
    u = literal_truth_labels(sigma)
    # positive literal of a true variable is TRUE -> label -1
    assert u.tolist() == [-1, 1, 1, -1, -1, 1]
    assert (u[0::2] == -u[1::2]).all()  # antisymmetry


def test_spec_r2_example_labels():
    # clause (x0, not-x1) under sigma = (+1, +1): left vertex is code 0,
    # x0 is TRUE so its label is -1; the tuple {not-x1} has no true literal
    # and gets label +1
    sigma = np.array([1, 1])
    u = literal_truth_labels(sigma)
    assert u[0] == -1
    assert tuple_truth_labels(np.array([[3]]), sigma).tolist() == [1]


# ---------------------------------------------------------------------------
# Induced edge law: same-side probability is delta/2 for odd and even r
# ---------------------------------------------------------------------------


def _same_side_fraction(instance, report):
    """Per-constraint same-side indicator via the production label functions."""
    positions = sorted(report.subset)
    codes = literal_codes(
        instance.clause_vars[:, positions], instance.clause_signs[:, positions]
    )
    u = literal_truth_labels(instance.sigma)
    v = tuple_truth_labels(codes[:, 1:], instance.sigma)
    return float((u[codes[:, 0]] == v).mean())


def test_same_side_fraction_odd_r():
    q = noisy_xor_weights(3, 0.5)  # delta = 1.5, witness size 3
    report = distribution_complexity(q)
    inst = sample_planted_csp(q, 30, 20_000, seed=3)
    frac = _same_side_fraction(inst, report)
    se = math.sqrt(0.75 * 0.25 / inst.m)
    assert abs(frac - report.delta / 2) < 3 * se  # 0.75, not 0.25


def test_same_side_fraction_even_r():
    q = noisy_xor_weights(2, 0.5)
    report = distribution_complexity(q)
    inst = sample_planted_csp(q, 30, 20_000, seed=4)
    frac = _same_side_fraction(inst, report)
    se = math.sqrt(0.75 * 0.25 / inst.m)
    assert abs(frac - report.delta / 2) < 3 * se


@st.composite
def witness_tables(draw):
    """A k <= 5 weight table with a witness: any table; a flip-symmetric one
    (w(z) = w(-z)), which has no odd coefficient, so r >= 2; or a noisy
    parity 1 + eta chi_S, whose witness is S."""
    k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["any", "flip", "parity"]))
    if kind == "parity":
        subset = draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
        w = 1.0 + draw(st.floats(-1.0, 1.0)) * _pattern_table(k)[:, subset].prod(axis=1)
    else:
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2**k, max_size=2**k)))
    if kind == "flip":
        w = w + w[::-1]  # index 2^k - 1 - i is the pattern -z
    assume(w.sum() > 0)
    q = PlantingDistribution(k, w)
    report = distribution_complexity(q)
    assume(report.identifiable)
    return q, report


@settings(max_examples=100, deadline=None)
@given(case=witness_tables(), seed=st.integers(0, 2**32))
@example(case=(noisy_xor_weights(3, 0.5), distribution_complexity(noisy_xor_weights(3, 0.5))), seed=0)
@example(case=(sat_clause_weights(4), distribution_complexity(sat_clause_weights(4))), seed=1)
def test_same_side_law_is_exact(case, seed):
    """delta / 2 is exactly the weight of the patterns whose product over the
    witness is +1, and a reduced clause lands on a same-side edge iff its
    literal values have that product."""
    q, report = case
    z = _pattern_table(q.k)
    chi = z[:, list(report.subset)].prod(axis=1)
    assert abs(q.normalized()[chi == 1].sum() - report.delta / 2) < 1e-12
    if report.r < 2:
        return  # witness size 1 goes to the majority vote, not the reduction
    inst = sample_planted_csp(q, 3 * q.k, 60, seed)
    red = csp_to_bipartite(inst, report)
    positions = sorted(report.subset)
    codes = literal_codes(inst.clause_vars[:, positions], inst.clause_signs[:, positions])
    tuple_id = {tuple(row): i for i, row in enumerate(red.indexer.materialized().tolist())}
    edges = [(left, tuple_id[tuple(sorted(tail))]) for left, *tail in codes.tolist()]
    assert set(edges) == set(map(tuple, red.graph.edges.tolist()))
    prod = (inst.sigma[inst.clause_vars] * inst.clause_signs)[:, positions].prod(axis=1)
    u, v = red.truth.u, red.truth.v
    for (left, right), chi_c in zip(edges, prod):
        assert (u[left] == v[right]) == (chi_c == 1)


def test_projections_below_witness_are_uniform():
    q = noisy_xor_weights(3, 0.5)
    report = distribution_complexity(q)
    inst = sample_planted_csp(q, 30, 20_000, seed=5)
    z = inst.sigma[inst.clause_vars] * inst.clause_signs
    for size in (1, 2):
        for sub in itertools.combinations(sorted(report.subset), size):
            idx = pattern_index(z[:, sub])
            counts = np.bincount(idx, minlength=2**size)
            assert stats.chisquare(counts).pvalue > 0.001


# ---------------------------------------------------------------------------
# Graph construction, thinning, indexing
# ---------------------------------------------------------------------------


def _small_reduced(seed=0, thinning="dedup", **kw):
    q = noisy_xor_weights(3, 0.8)
    inst = sample_planted_csp(q, 12, 400, seed=seed)
    report = distribution_complexity(q)
    return inst, report, csp_to_bipartite(inst, report, thinning=thinning, seed=seed, **kw)


def test_reduced_geometry_and_dedup():
    inst, report, red = _small_reduced()
    g = red.graph
    assert g.n1 == 24
    assert g.n2 == math.comb(24, 2) == red.n2_nominal
    assert len(np.unique(g.edges, axis=0)) == g.num_edges
    assert red.p_equiv == pytest.approx(inst.m / (2 * g.n1 * g.n2))
    assert red.delta == pytest.approx(report.delta)


def test_lazy_indexing_soundness():
    inst, report, red = _small_reduced()
    positions = sorted(report.subset)
    codes = literal_codes(inst.clause_vars[:, positions], inst.clause_signs[:, positions])
    tails = {tuple(sorted(row)) for row in codes[:, 1:].tolist()}
    materialized = {tuple(row) for row in red.indexer.materialized().tolist()}
    assert materialized == tails
    # stable under re-runs
    _, _, red2 = _small_reduced()
    assert np.array_equal(red.indexer.materialized(), red2.indexer.materialized())
    assert np.array_equal(red.graph.edges, red2.graph.edges)


def test_reduced_truth_labels():
    inst, report, red = _small_reduced()
    u, v = red.truth.u, red.truth.v
    assert (u[0::2] == -u[1::2]).all()
    assert np.array_equal(u, literal_truth_labels(inst.sigma))
    assert np.array_equal(v, tuple_truth_labels(red.indexer.materialized(), inst.sigma))


def test_poisson_thinning_keeps_prefix_and_is_seeded():
    inst, report, red_d = _small_reduced(thinning="dedup")
    _, _, red_p = _small_reduced(thinning="poisson")
    assert red_p.graph.num_edges <= red_d.graph.num_edges
    assert red_p.p_equiv <= red_d.p_equiv
    _, _, red_p2 = _small_reduced(thinning="poisson")
    assert np.array_equal(red_p.graph.edges, red_p2.graph.edges)


def test_poisson_edge_inclusion_probability():
    """Slot inclusion under poisson thinning: 1 - exp(-(1-eps) m q_e)."""
    q = noisy_xor_weights(2, 0.5)
    report = distribution_complexity(q)
    n, m, reps = 4, 40, 2000
    qn = q.normalized()
    hits = {1: 0, -1: 0}
    totals = {1: 0, -1: 0}
    for s in range(reps):
        inst = sample_planted_csp(q, n, m, seed=s)
        red = csp_to_bipartite(inst, report, thinning="poisson", epsilon=0.5, seed=s)
        cls = int(inst.sigma[0] * inst.sigma[1])  # parity class of clause (x0, x1)
        totals[cls] += 1
        try:
            t = red.indexer.index_of((2,))  # tuple {x1}
        except KeyError:
            continue
        hits[cls] += bool(((red.graph.edges == (0, t)).all(axis=1)).any())
    n_pairs = n * (n - 1)
    for cls in (1, -1):
        # the weight of clause (x0, x1) depends only on sigma0*sigma1 = cls
        q_e = qn[pattern_index(np.array([[cls, 1]]))[0]] / n_pairs
        p_e = 1.0 - math.exp(-0.5 * m * q_e)
        frac = hits[cls] / totals[cls]
        se = math.sqrt(p_e * (1 - p_e) / totals[cls])
        assert abs(frac - p_e) < 4 * se, (cls, frac, p_e)


def test_reduction_rejects():
    sat = sat_clause_weights(3)
    inst = sample_planted_csp(sat, 10, 50, seed=0)
    with pytest.raises(ReductionError):
        csp_to_bipartite(inst, distribution_complexity(sat))  # r = 1
    uni = uniform_weights(3)
    inst_u = sample_planted_csp(uni, 10, 50, seed=0)
    with pytest.raises(ReductionError):
        csp_to_bipartite(inst_u, distribution_complexity(uni))  # unidentifiable
    with pytest.raises(ReductionError):
        _small_reduced(thinning="bogus")


@pytest.mark.parametrize("mode", [{"thinning": "bogus"}, {"left_literal": "last"}], ids=["thinning", "left_literal"])
def test_an_unknown_mode_is_reported_before_a_bad_clause(mode):
    # the clause's id 7 is outside [0, 4): the mode is checked before any clause is read
    q = noisy_xor_weights(3, 0.8)
    inst = PlantedCspInstance(4, None, [[0, 1, 7]], [[1, 1, 1]])
    (name, value), = mode.items()
    with pytest.raises(ReductionError, match=f"unknown {name} mode: '{value}'"):
        csp_to_bipartite(inst, distribution_complexity(q), **mode)


@pytest.mark.parametrize("epsilon", [2.0, float("nan"), -3.0, float("inf"), -1e-9])
@pytest.mark.parametrize("thinning", ["poisson", "dedup"])
def test_reduction_rejects_epsilon_outside_unit_interval(epsilon, thinning):
    with pytest.raises(ValueError, match="epsilon must be a number in \\[0, 1\\]") as raised:
        _small_reduced(thinning=thinning, epsilon=epsilon)
    assert not isinstance(raised.value, ReductionError)
    pred = parity_predicate(3)
    inst = sample_goldreich(pred, 12, 400, seed=0)
    with pytest.raises(ValueError, match="epsilon"):
        goldreich_to_bipartite(inst, predicate_lowest_degree(pred), thinning=thinning, epsilon=epsilon)


def test_poisson_thinning_accepts_the_ends_of_the_unit_interval():
    _, _, red = _small_reduced(thinning="poisson", epsilon=0.0)
    assert red.graph.num_edges > 0
    with pytest.raises(ReductionError, match="kept no constraints"):  # a Poisson(0) prefix
        _small_reduced(thinning="poisson", epsilon=1.0)


def test_random_left_literal_mode():
    inst, report, red = _small_reduced(left_literal="random")
    assert red.graph.num_edges > 0
    _, _, red2 = _small_reduced(left_literal="random")
    assert np.array_equal(red.graph.edges, red2.graph.edges)  # seeded


def test_tuple_indexer_contract():
    idx = TupleIndexer(3, 5)
    a = idx.index_of((4, 2), create=True)
    assert idx.index_of((2, 4)) == a  # canonical ordering
    assert idx.tuple_at(a) == (2, 4)
    assert idx.n2_nominal == math.comb(10, 2)
    with pytest.raises(KeyError):
        idx.index_of((0, 2))
    with pytest.raises(ReductionError):
        idx.index_of((2, 3), create=True)  # both literals of variable 1


@pytest.mark.parametrize(
    "vars_row, signs_row",
    [
        ([4, 4, 4], [1, 1, 1]),  # one variable three times
        ([2, 7, 2], [1, -1, -1]),  # repeated, opposite literals
        ([1, 2, 10], [1, 1, 1]),  # id == n
        ([-1, 2, 3], [1, 1, 1]),  # negative id
        ([1, 2, 3], [1, 0, 1]),  # zero sign
        ([1, 2, 3], [1, 1, 2]),  # sign outside +/-1
    ],
)
@pytest.mark.parametrize("with_sigma", [True, False])
def test_reduction_rejects_malformed_clauses(vars_row, signs_row, with_sigma):
    q = noisy_xor_weights(3, 0.8)
    good = sample_planted_csp(q, 10, 50, seed=0)
    cvars = np.vstack([good.clause_vars, [vars_row]])
    csigns = np.vstack([good.clause_signs, [signs_row]])
    inst = PlantedCspInstance(10, good.sigma if with_sigma else None, cvars, csigns)
    with pytest.raises(ReductionError, match=r"^clause 50 \("):
        csp_to_bipartite(inst, distribution_complexity(q))


_ROW = [[3, 1, 2]]


@pytest.mark.parametrize(
    "ids, signs, dtypes, named",
    [
        (np.array(_ROW + [[2**31, 1, 2]]), [[1] * 3] * 2, (np.int64, np.int64), "vars [2147483648, 1, 2], signs [1, 1, 1]"),
        (_ROW + [[0, -(2**31) - 1, 2]], np.ones((2, 3), dtype=np.int8), (np.int64, np.int8),
         "vars [0, -2147483649, 2], signs [1, 1, 1]"),
        (np.array(_ROW + [[2.0**31, 1, 2]]), [[1] * 3] * 2, (np.int64, np.int64), "vars [2147483648, 1, 2], signs [1, 1, 1]"),
        (np.array(_ROW * 2, dtype=np.int32), np.array([[1] * 3, [300, -129, 1]], dtype=np.int16), (np.int32, np.int64),
         "vars [3, 1, 2], signs [300, -129, 1]"),
        (np.array(_ROW * 2, dtype=np.int16), np.array([[1] * 3, [128, 1, -1]], dtype=np.float64), (np.int32, np.int64),
         "vars [3, 1, 2], signs [128, 1, -1]"),
        (np.array(_ROW * 2, dtype=np.int32), np.array([[1] * 3, [-128, 1, 1]], dtype=np.int8), (np.int32, np.int8),
         "vars [3, 1, 2], signs [-128, 1, 1]"),
    ],
    ids=["int64-id-2^31", "list-id-below-int32", "float-id-2^31", "int16-signs-300-and-minus-129", "float-sign-128",
         "int8-sign-minus-128"],
)
def test_entries_past_the_compact_dtypes_stay_int64_and_are_named_as_given(ids, signs, dtypes, named):
    # an id past int32 or a sign past int8 is not narrowed, so nothing wraps
    # and the reduction names the entry as it was given
    inst = PlantedCspInstance(10, None, ids, signs)
    assert (inst.clause_vars.dtype, inst.clause_signs.dtype) == dtypes
    assert inst.clause_vars.tolist() == np.asarray(ids).astype(np.int64).tolist()
    assert inst.clause_signs.tolist() == np.asarray(signs).astype(np.int64).tolist()
    message = f"clause 1 ({named}) needs distinct variable ids in [0, 10) and signs +1/-1"
    with pytest.raises(ReductionError) as raised:
        csp_to_bipartite(inst, distribution_complexity(noisy_xor_weights(3, 0.8)))
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# Packed-key core against the dict / np.unique(axis=0) oracle
# ---------------------------------------------------------------------------


def _outcome(reduce):
    try:
        return reduce()
    except ReductionError as exc:
        return str(exc)


def _assert_same_reduction(got, want):
    """Both outcomes are the same ReductionError message or identical outputs."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    # the oracle's edges are int64; the reduction's int32 where 2n and the tuple count fit
    assert got.graph.edges.dtype == (np.int32 if max(want.graph.n1, len(want.indexer)) <= 2**31 else np.int64)
    assert np.array_equal(got.graph.edges, want.graph.edges)
    assert (got.graph.n1, got.graph.n2) == (want.graph.n1, want.graph.n2)
    assert len(got.indexer) == len(want.indexer)
    assert np.array_equal(got.indexer.materialized(), want.indexer.materialized())
    assert got.p_equiv == want.p_equiv
    assert np.array_equal(got.truth.u, want.truth.u)
    assert np.array_equal(got.truth.v, want.truth.v)


def _assert_matches_oracle(reduce):
    """Run ``reduce`` through the production core and through the oracle core;
    both must raise the same ReductionError or give identical outputs."""
    outcomes = []
    for core in (reduction._build_reduced, build_reduced_oracle):
        with mock.patch.object(reduction, "_build_reduced", core):
            outcomes.append(_outcome(reduce))
    _assert_same_reduction(*outcomes)


def _witness_weights(k: int, r: int, eta: float) -> PlantingDistribution:
    """w(z) = 1 + eta * prod of the last r coordinates: witness of size r
    inside k-clauses, so the reduction restricts when r < k."""
    z = np.where((np.arange(2**k)[:, None] >> np.arange(k)) & 1, 1, -1)
    return PlantingDistribution(k, 1.0 + eta * z[:, k - r :].prod(axis=1))


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(2, 4),
    extra=st.integers(0, 1),
    n_extra=st.integers(0, 8),
    m=st.integers(1, 200),
    seed=st.integers(0, 2**16),
    thinning=st.sampled_from(["dedup", "poisson"]),
    left_literal=st.sampled_from(["first", "random"]),
)
def test_csp_reduction_matches_oracle(r, extra, n_extra, m, seed, thinning, left_literal):
    k = r + extra
    q = _witness_weights(k, r, 0.8)
    report = distribution_complexity(q)
    assert report.r == r
    inst = sample_planted_csp(q, k + n_extra, m, seed=seed)
    _assert_matches_oracle(
        lambda: csp_to_bipartite(
            inst, report, thinning=thinning, seed=seed, left_literal=left_literal
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    predicate=st.sampled_from(["parity2", "parity3", "parity4", "noisy5"]),
    n_extra=st.integers(0, 8),
    m=st.integers(1, 200),
    seed=st.integers(0, 2**16),
    thinning=st.sampled_from(["dedup", "poisson"]),
    value_handling=st.sampled_from(["fold", "discard"]),
)
def test_goldreich_reduction_matches_oracle(predicate, n_extra, m, seed, thinning, value_handling):
    table = _noisy_witness3_predicate() if predicate == "noisy5" else parity_predicate(int(predicate[-1]))
    k = int(np.log2(len(table)))
    inst = sample_goldreich(table, k + n_extra, m, seed=seed)
    report = predicate_lowest_degree(table)
    # production adapter and core against the old restriction on the oracle core
    _assert_same_reduction(
        _outcome(
            lambda: goldreich_to_bipartite(
                inst, report, thinning=thinning, seed=seed, value_handling=value_handling
            )
        ),
        _outcome(
            lambda: goldreich_to_bipartite_oracle(inst, report, thinning, 0.5, seed, value_handling)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 30).flatmap(
    lambda m: st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1, max_size=6)))
def test_sort_rows_matches_np_sort(rows):
    a = np.array(rows, dtype=np.int64).T  # (m, width), ties and negatives included
    got = np.empty_like(a)
    reduction._sort_rows(a, got)
    assert np.array_equal(got, np.sort(a, axis=1))


def test_wide_witness_reduction_matches_oracle():
    """8-XOR at n=300: a mixed-radix pack of the 7 tail codes would need
    (2n)^7 > 2^63, so this pins that the keys never overflow int64."""
    n, r = 300, 8
    assert (2 * n) ** (r - 1) > 2**63
    q = noisy_xor_weights(r, 0.8)
    inst = sample_planted_csp(q, n, 500, seed=11)
    report = distribution_complexity(q)
    red = csp_to_bipartite(inst, report, seed=11)
    assert red.graph.num_edges == len(red.indexer) == 500
    _assert_matches_oracle(lambda: csp_to_bipartite(inst, report, seed=11))


def test_packed_keys_do_not_wrap():
    """Two distinct 9-code tails whose radix-200 packs differ by exactly 2^64:
    keys that wrapped in int64 would merge them into one tuple."""
    n, r = 100, 10
    tail_a = [0, 2, 15, 17, 48, 82, 159, 161, 163]
    tail_b = [7, 43, 45, 92, 94, 96, 98, 119, 179]
    assert sum(c * (2 * n) ** (r - 2 - i) for i, c in enumerate(tail_b)) - sum(
        c * (2 * n) ** (r - 2 - i) for i, c in enumerate(tail_a)
    ) == 2**64
    codes = np.array([[198] + tail_a, [198] + tail_b])
    inst = PlantedCspInstance(n, np.ones(n, dtype=np.int64), codes // 2, 1 - 2 * (codes % 2))
    q = noisy_xor_weights(r, 0.8)
    red = csp_to_bipartite(inst, distribution_complexity(q))
    assert red.indexer.materialized().tolist() == [tail_a, tail_b]
    assert red.graph.edges.tolist() == [[198, 0], [198, 1]]


def test_tuple_ids_do_not_wrap_after_ranking():
    """At n = 2^61 the first tail column is ranked (5 values), and 5 * 2n
    still passes int64: a key packed from the ranks without ranking the
    second column too wrapped tuple 4 onto tuple 0."""
    rows = np.array([[2 * j, 2**62 - 2] for j in range(5)], dtype=np.int64)
    indexer, ids = TupleIndexer._from_rows(3, 2**61, rows)
    assert ids.tolist() == [0, 1, 2, 3, 4]
    assert indexer.materialized().tolist() == rows.tolist()


def test_edge_keys_do_not_wrap_at_large_left_codes():
    """Left code 2^62 - 2 times 5 tuples passes int64: an unranked edge key
    wrapped it to 922337203685477579."""
    n = 2**61
    cvars = np.array([[n - 1, 2 * k, 2 * k + 1] for k in range(5)], dtype=np.int64)
    inst = PlantedCspInstance(n, None, cvars, np.ones((5, 3), dtype=np.int64))
    red = csp_to_bipartite(inst, distribution_complexity(noisy_xor_weights(3, 0.8)))
    assert red.graph.edges.tolist() == [[2**62 - 2, t] for t in range(5)]


@pytest.mark.parametrize("n, dtype", [(2**15, np.uint32), (2**15 + 1, np.int64)])
def test_edge_keys_at_the_32_bit_boundary_match_the_oracle(n, dtype):
    """2-XOR clauses whose tails are all 2^16 literal codes of the first 2^15
    variables. The last clause pairs the last left code, 2n - 1, with the
    last-seen tuple: at n = 2^15, 2n * n_tuples = 2^32 packs into uint32
    and that key is 2^32 - 1; one more variable passes 2^32 and needs int64
    keys."""
    tails = np.r_[np.arange(1, 2**16), 0]  # code 0 is seen last, so its tuple id is 2^16 - 1
    left = (tails // 2 + 1) % 2**15 * 2
    left[-1] = 2 * n - 1
    codes = np.column_stack([left, tails])
    inst = PlantedCspInstance(n, np.ones(n, dtype=np.int64), codes // 2, 1 - 2 * (codes % 2))
    assert _key_dtype(2 * n, 2**16) is dtype
    red = csp_to_bipartite(inst, distribution_complexity(noisy_xor_weights(2, 0.8)))
    assert red.graph.edges[-1].tolist() == [2 * n - 1, 2**16 - 1]
    _assert_matches_oracle(lambda: csp_to_bipartite(inst, distribution_complexity(noisy_xor_weights(2, 0.8))))


# ---------------------------------------------------------------------------
# The reduction's pass over row blocks: boundaries, bad rows, memory
# ---------------------------------------------------------------------------


def _poisson_seed(m: int, ok) -> int:
    """The first seed whose Poisson((1 - 0.5) m) kept prefix length passes ``ok``."""
    return next(
        s for s in itertools.count()
        if ok(reduction._poisson_keep(m, 0.5, np.random.default_rng(np.random.SeedSequence(s))))
    )


def _mid_block(m: int, block: int):
    """A kept prefix that is not empty, not all of m, and ends inside a block."""
    return lambda keep: 0 < keep < m and (block == 1 or keep % block)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("k, r", [(3, 3), (4, 3)], ids=["viewed", "gathered"])
def test_csp_reduction_matches_oracle_across_blocks(monkeypatch, block, k, r):
    """m below, at and just past a multiple of the block, every thinning and
    pivot mode, and a witness narrower than k, whose positions are gathered."""
    monkeypatch.setattr(reduction, "_CHUNK_ROWS", block)
    q = _witness_weights(k, r, 0.8)
    report = distribution_complexity(q)
    for m in (3 * block - 1, 3 * block, 3 * block + 1):
        inst = sample_planted_csp(q, 9, m, seed=m)
        before = inst.clause_vars.copy(), inst.clause_signs.copy()
        for thinning, left_literal in itertools.product(["dedup", "poisson"], ["first", "random"]):
            seed = _poisson_seed(m, _mid_block(m, block)) if thinning == "poisson" else m
            _assert_matches_oracle(
                lambda: csp_to_bipartite(inst, report, thinning=thinning, seed=seed, left_literal=left_literal)
            )
        # a full-width witness hands the instance's own arrays to the pass
        assert np.array_equal(inst.clause_vars, before[0]) and np.array_equal(inst.clause_signs, before[1])


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("predicate", ["parity3", "noisy5"], ids=["viewed", "gathered"])
def test_goldreich_reduction_matches_oracle_across_blocks(monkeypatch, block, predicate):
    monkeypatch.setattr(reduction, "_CHUNK_ROWS", block)
    table = _noisy_witness3_predicate() if predicate == "noisy5" else parity_predicate(3)
    k = int(np.log2(len(table)))
    report = predicate_lowest_degree(table)
    for m in (3 * block - 1, 3 * block, 3 * block + 1):
        inst = sample_goldreich(table, k + 4, m, seed=m)
        for thinning, value_handling in itertools.product(["dedup", "poisson"], ["fold", "discard"]):
            m_in = m if value_handling == "fold" else int((inst.values == 1).sum())
            seed = m
            if thinning == "poisson" and m_in > 1:
                seed = _poisson_seed(m_in, _mid_block(m_in, block))
            _assert_same_reduction(
                _outcome(lambda: goldreich_to_bipartite(
                    inst, report, thinning=thinning, seed=seed, value_handling=value_handling
                )),
                _outcome(lambda: goldreich_to_bipartite_oracle(inst, report, thinning, 0.5, seed, value_handling)),
            )


@pytest.mark.parametrize("block", [7, None], ids=["block-7", "block-default"])
@pytest.mark.parametrize(
    "vars_row, signs_row",
    [([1, 2, 10], [1, 1, 1]), ([1, 2, 3], [1, 0, 1]), ([2, 7, 2], [1, -1, -1])],
    ids=["id-out-of-range", "zero-sign", "repeated-variable"],
)
@pytest.mark.parametrize("thinning", ["dedup", "poisson"])
def test_bad_clause_in_a_later_block_names_its_global_row(monkeypatch, block, vars_row, signs_row, thinning):
    """The message numbers the row among all m clauses; with Poisson thinning
    the bad row lies past the kept prefix and is still reported."""
    if block is not None:
        monkeypatch.setattr(reduction, "_CHUNK_ROWS", block)
    size = reduction._CHUNK_ROWS
    m, row = 3 * size + 5, 2 * size + 3
    q = noisy_xor_weights(3, 0.8)
    good = sample_planted_csp(q, 10, m, seed=0)
    cvars, csigns = good.clause_vars.copy(), good.clause_signs.copy()
    cvars[row], csigns[row] = vars_row, signs_row
    inst = PlantedCspInstance(10, good.sigma, cvars, csigns)
    seed = _poisson_seed(m, lambda keep: 0 < keep < row) if thinning == "poisson" else 0
    with pytest.raises(ReductionError) as raised:
        csp_to_bipartite(inst, distribution_complexity(q), thinning=thinning, seed=seed)
    assert str(raised.value) == (
        f"clause {row} (vars {vars_row}, signs {signs_row}) "
        "needs distinct variable ids in [0, 10) and signs +1/-1"
    )


@pytest.mark.parametrize("first, second", [("sign", "repeat"), ("repeat", "sign")])
def test_first_bad_clause_is_reported_whatever_its_fault(monkeypatch, first, second):
    """Rows 15 and 16 share a block and fail different checks; row 30, in a
    later block, fails the range check. Row 15 is the one reported."""
    monkeypatch.setattr(reduction, "_CHUNK_ROWS", 7)
    faults = {"sign": ([1, 2, 3], [1, 0, 1]), "repeat": ([2, 7, 2], [1, -1, -1])}
    q = noisy_xor_weights(3, 0.8)
    good = sample_planted_csp(q, 10, 40, seed=0)
    cvars, csigns = good.clause_vars.copy(), good.clause_signs.copy()
    for row, (vars_row, signs_row) in zip((15, 16, 30), (faults[first], faults[second], ([0, 1, 11], [1, 1, 1]))):
        cvars[row], csigns[row] = vars_row, signs_row
    inst = PlantedCspInstance(10, good.sigma, cvars, csigns)
    vars_row, signs_row = faults[first]
    with pytest.raises(ReductionError) as raised:
        csp_to_bipartite(inst, distribution_complexity(q))
    assert str(raised.value).startswith(f"clause 15 (vars {vars_row}, signs {signs_row})")


@pytest.mark.parametrize("left_literal", ["first", "random"])
def test_reduction_traced_peak_per_clause(left_literal):
    """Noisy 3-XOR, 200k clauses: 53-54 B per clause measured with the pass
    over row blocks, 136 (168 with random pivots) when every step built
    whole-array temporaries."""
    q = noisy_xor_weights(3, 0.8)
    inst = sample_planted_csp(q, 100, 200_000, seed=3)
    report = distribution_complexity(q)
    tracemalloc.start()
    try:
        csp_to_bipartite(inst, report, seed=3, left_literal=left_literal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / inst.m <= 64


def test_reduction_holds_int32_codes_above_its_input():
    """The csp_3xor shape, 920k clauses: int32 left codes, tails and row
    numbers and one m-long key temporary hold 26.3 B per clause above the
    instance; int64 ones and two key temporaries held 43.0. The graph's
    edges are int32 and the indexer's rows int64."""
    n = 150
    q = noisy_xor_weights(3, 0.8)
    inst = sample_planted_csp(q, n, math.floor(100 * n**1.5 * math.log(n)), seed=5)
    report = distribution_complexity(q)
    tracemalloc.start()
    try:
        red = csp_to_bipartite(inst, report, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert red.graph.edges.dtype == np.int32 and red.indexer.materialized().dtype == np.int64
    assert peak / inst.m <= 34


# ---------------------------------------------------------------------------
# Predicate-constraint reductions
# ---------------------------------------------------------------------------


def test_goldreich_pure_parity_all_edges_same_side():
    pred = parity_predicate(3)
    inst = sample_goldreich(pred, 12, 500, seed=1)
    red = goldreich_to_bipartite(inst, predicate_lowest_degree(pred))
    u, v = red.truth.u, red.truth.v
    e = red.graph.edges
    assert (u[e[:, 0]] == v[e[:, 1]]).all()  # delta = 2: no crossing edges


def test_goldreich_discard_mode_matches_quoted_construction():
    pred = parity_predicate(3)
    inst = sample_goldreich(pred, 12, 500, seed=1)
    red = goldreich_to_bipartite(inst, predicate_lowest_degree(pred), value_handling="discard")
    kept = int((inst.values == 1).sum())
    assert red.p_equiv == pytest.approx(kept / (2.0 * red.graph.n1 * red.n2_nominal))
    # discarded constraints carry only positive literals
    assert (red.graph.edges[:, 0] % 2 == 0).all()


@pytest.mark.parametrize("handling", ["fold", "discard"])
def test_signed_clauses_hold_int8_signs_and_a_fold_shares_the_tuple_ids(handling):
    pred = parity_predicate(3)
    inst = sample_goldreich(pred, 12, 500, seed=1)
    clauses = reduction._signed_clauses(inst, predicate_lowest_degree(pred), handling)
    assert (clauses.clause_vars.dtype, clauses.clause_signs.dtype) == (np.int32, np.int8)
    assert np.shares_memory(clauses.clause_vars, inst.tuple_vars) == (handling == "fold")
    keep = slice(None) if handling == "fold" else inst.values == 1
    assert np.array_equal(clauses.clause_signs[:, 0], inst.values[keep])
    assert (clauses.clause_signs[:, 1:] == 1).all()


def _noisy_witness3_predicate():
    """P(z) = z0 z1 z2 * s(z3, z4) with s = NAND: every coefficient of size
    below 3 has an unmatched independent factor and vanishes, and the witness
    {0,1,2} carries coefficient E[s] = 1/2. (A +/-1 predicate with all
    degree-1 AND degree-2 coefficients zero is necessarily a pure parity, so
    a noisy witness of size 3 needs width 5.)"""
    table = np.empty(32, dtype=np.int64)
    for z in range(32):
        bits = [1 if (z >> i) & 1 else -1 for i in range(5)]
        s = -1 if (bits[3] == 1 and bits[4] == 1) else 1
        table[z] = bits[0] * bits[1] * bits[2] * s
    return table


def test_goldreich_noisy_predicate_same_side_law():
    table = _noisy_witness3_predicate()
    report = predicate_lowest_degree(table)
    assert (report.r, report.subset) == (3, (0, 1, 2))
    assert report.coefficient == pytest.approx(0.5)

    n = 10
    inst = sample_goldreich(table, n, 40_000, seed=2)
    # oracle: exact same-side probability given sigma, enumerated over all
    # ordered distinct 5-tuples; same-side <=> value * chi_S(sigma tuple) = +1
    sigma = inst.sigma
    positions = sorted(report.subset)
    hits = total = 0
    for vs in itertools.permutations(range(n), 5):
        x = sigma[np.array(vs)]
        b = table[pattern_index(x)]
        chi = np.prod(x[positions])
        hits += b * chi == 1
        total += 1
    target = hits / total

    # measured through the production label machinery (value folded into the
    # first restricted literal, as the reduction does)
    signs = np.ones((inst.m, 3), dtype=np.int64)
    signs[:, 0] = inst.values
    codes = literal_codes(inst.tuple_vars[:, positions], signs)
    u = literal_truth_labels(sigma)
    v = tuple_truth_labels(codes[:, 1:], sigma)
    frac = float((u[codes[:, 0]] == v).mean())
    se = math.sqrt(target * (1 - target) / inst.m)
    assert abs(frac - target) < 3 * se


def test_goldreich_rejects_r1_and_constant():
    maj = sample_goldreich(majority_predicate(3), 10, 100, seed=0)
    with pytest.raises(ReductionError):
        goldreich_to_bipartite(maj, predicate_lowest_degree(majority_predicate(3)))
    const = sample_goldreich(constant_predicate(3), 10, 100, seed=0)
    with pytest.raises(ReductionError):
        goldreich_to_bipartite(const, predicate_lowest_degree(constant_predicate(3)))


# ---------------------------------------------------------------------------
# Assignment decoding
# ---------------------------------------------------------------------------


def test_partition_to_assignment_antisymmetric_input():
    sigma = np.array([1, -1, -1, 1, 1])
    u = literal_truth_labels(sigma)
    assignment, bad = partition_to_assignment(u, seed=0)
    assert bad == 0
    assert overlap(assignment, sigma) == 1.0


def test_partition_to_assignment_all_ones_is_all_coinflips():
    n = 50
    assignment, bad = partition_to_assignment(np.ones(2 * n, dtype=int), seed=3)
    assert bad == n
    a2, _ = partition_to_assignment(np.ones(2 * n, dtype=int), seed=3)
    assert np.array_equal(assignment, a2)
    with pytest.raises(ValueError):
        partition_to_assignment(np.ones(5, dtype=int))


def test_end_to_end_dense_2xor_pipeline():
    n = 200
    q = noisy_xor_weights(2, 0.9)
    inst = sample_planted_csp(q, n, int(100 * n * math.log(n)), seed=6)
    red = csp_to_bipartite(inst, distribution_complexity(q), seed=6)
    res = spi_solve(red.graph, SolverConfig(seed=7, T_factor=3.0), truth=red.truth)
    assignment, bad = partition_to_assignment(res.signs, seed=8)
    assert bad == 0
    assert overlap(assignment, inst.sigma) == 1.0
