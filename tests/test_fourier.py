"""Fourier analysis tests against a brute-force double-loop oracle."""
import itertools

import numpy as np
import pytest
from fourier_oracle import _FWHT_MIN_K, _coefficients_direct

from planted.fourier import (
    ZERO_TOL,
    FourierReport,
    all_coefficients,
    distribution_complexity,
    distribution_witnesses,
    fourier_coefficient,
    predicate_lowest_degree,
    _coefficients_fwht,
)
from planted.instances import (
    PlantingDistribution,
    constant_predicate,
    majority_predicate,
    noisy_xor_weights,
    parity_predicate,
    sat_clause_weights,
    uniform_weights,
)


def brute_coefficient(values, k, subset):
    """Independent oracle: 2^-k sum_z f(z) prod_{i in S} z_i, plain loops."""
    acc = 0.0
    for z in range(2**k):
        chi = 1
        for i in subset:
            chi *= 1 if (z >> i) & 1 else -1
        acc += values[z] * chi
    return acc / 2**k


def brute_scan(values, k, tol=1e-9):
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            c = brute_coefficient(values, k, subset)
            if abs(c) > tol:
                return size, subset, c
    return None


def test_uniform_table_all_nontrivial_coefficients_vanish():
    q = uniform_weights(4)
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            assert fourier_coefficient(q, subset) == pytest.approx(0.0, abs=1e-15)
    rep = distribution_complexity(q)
    assert rep.r is None and not rep.identifiable
    assert rep.to_dict()["r"] == "inf"


def test_empty_set_coefficient_is_mean():
    for k in (1, 3, 5):
        assert fourier_coefficient(sat_clause_weights(k), ()) == pytest.approx(2.0**-k)


def test_noisy_xor_full_coefficient():
    q = noisy_xor_weights(3, 0.6)
    got = fourier_coefficient(q, (0, 1, 2))
    assert got == pytest.approx(0.6 / 8)
    assert got == pytest.approx(brute_coefficient(q.normalized(), 3, (0, 1, 2)))


def test_noisy_xor_low_order_coefficients_vanish():
    rep = distribution_complexity(noisy_xor_weights(3, 0.6))
    assert (rep.r, rep.subset) == (3, (0, 1, 2))


def test_sat_table_witness():
    rep = distribution_complexity(sat_clause_weights(3))
    assert (rep.r, rep.subset) == (1, (0,))
    assert rep.coefficient == pytest.approx(1 / 56)
    assert rep.delta == pytest.approx(8 / 7)


def test_scan_matches_brute_force_on_random_tables():
    rng = np.random.default_rng(0)
    checked = 0
    for k in (2, 3, 4, 5):
        for _ in range(20):
            w = rng.random(2**k)
            if rng.random() < 0.4:
                # symmetrize z -> -z: kills every odd-size coefficient
                w = w + w[::-1]
            q = PlantingDistribution(k, w)
            rep = distribution_complexity(q)
            brute = brute_scan(q.normalized(), k)
            if brute is None:
                assert rep.r is None
            else:
                assert (rep.r, rep.subset) == brute[:2]
                assert rep.coefficient == pytest.approx(brute[2], abs=1e-12)
            checked += 1
    assert checked == 80


def test_tiny_perturbation_of_uniform_stays_unidentifiable():
    w = np.ones(8)
    w[3] += 1e-12
    assert distribution_complexity(PlantingDistribution(3, w)).r is None


def test_predicate_parity_and_majority():
    rep = predicate_lowest_degree(parity_predicate(4))
    assert (rep.r, rep.subset, rep.coefficient) == (4, (0, 1, 2, 3), 1.0)
    rep = predicate_lowest_degree(majority_predicate(3))
    assert (rep.r, rep.subset) == (1, (0,))
    assert rep.coefficient == pytest.approx(0.5)


def test_constant_predicate_flagged_degree_zero():
    rep = predicate_lowest_degree(constant_predicate(3, -1))
    assert rep.r == 0 and rep.coefficient == -1.0


def test_predicate_parseval():
    rng = np.random.default_rng(1)
    for k in (2, 5, 8, 10):
        table = rng.integers(0, 2, 2**k) * 2 - 1
        coefs = all_coefficients(table, k)
        assert abs((coefs**2).sum() - 1.0) < 1e-12


def test_fwht_matches_direct_summation():
    rng = np.random.default_rng(2)
    for k in (4, _FWHT_MIN_K - 1, _FWHT_MIN_K, 11):
        f = rng.normal(size=2**k)
        assert np.allclose(
            _coefficients_direct(f, k), _coefficients_fwht(f, k), atol=1e-12
        )


def test_coefficient_rejects_out_of_range_subset():
    with pytest.raises(ValueError):
        fourier_coefficient(uniform_weights(3), (3,))


def test_predicate_rejects_bad_table():
    with pytest.raises(ValueError):
        predicate_lowest_degree(np.array([1, 0, -1, 1]))
    with pytest.raises(ValueError):
        predicate_lowest_degree(np.ones(5))


def test_distribution_witnesses_lists_every_minimal_subset():
    # w = 1 + a z0 z1 + b z1 z2: two witnesses of size 2, no singleton
    k, a, b = 3, 0.3, 0.2
    z = np.array([[1 if idx >> i & 1 else -1 for i in range(k)] for idx in range(2**k)])
    q = PlantingDistribution(k, 1.0 + a * z[:, 0] * z[:, 1] + b * z[:, 1] * z[:, 2])
    report = distribution_complexity(q)
    # the enumeration solve_csp_end_to_end(try_all_witnesses=True) used to make itself
    coefs = all_coefficients(q.normalized(), k)
    old = []
    for subset in itertools.combinations(range(k), report.r):
        c = coefs[sum(1 << i for i in subset)]
        if abs(c) > ZERO_TOL:
            old.append(FourierReport(report.r, subset, float(c), 1.0 + 2**k * c))
    witnesses = distribution_witnesses(q)
    assert [w.subset for w in witnesses] == [(0, 1), (1, 2)]
    assert witnesses == old
    assert witnesses[0] == report
    assert distribution_witnesses(uniform_weights(3)) == []
