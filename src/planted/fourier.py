"""Boolean Fourier analysis of planting weight tables and +/-1 predicates.

Characters are chi_S(z) = prod_{i in S} z_i over the uniform measure on
{+/-1}^k, with the same bit encoding as the weight tables (bit i of an index
set iff z_i = +1). Coordinates are 0-based throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .instances import PlantingDistribution, _predicate_table

__all__ = [
    "FourierReport",
    "fourier_coefficient",
    "all_coefficients",
    "distribution_complexity",
    "distribution_witnesses",
    "predicate_lowest_degree",
    "ZERO_TOL",
]

# Coefficients with magnitude below this are treated as exact zeros. User
# tables are small-denominator rationals, so symmetry-forced zeros sit at
# ~1e-17 after normalization while genuine signal stays far above 1e-9.
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class FourierReport:
    """Lowest-degree non-zero coefficient of a table.

    ``r`` is the witness size: None means no non-empty subset has a non-zero
    coefficient (the flat table: nothing to recover), 0 means a constant
    predicate. ``delta`` is the induced two-sided bias: 1 + 2^k * coefficient
    for probability tables, 1 + coefficient for +/-1 predicates.
    """

    r: int | None
    subset: tuple[int, ...]
    coefficient: float
    delta: float | None

    @property
    def identifiable(self) -> bool:
        return self.r is not None and self.r >= 1

    def to_dict(self) -> dict:
        return {
            "r": self.r if self.r is not None else "inf",
            "S": list(self.subset),
            "coefficient": self.coefficient,
            "delta": self.delta,
        }


def _popcounts(k: int) -> np.ndarray:
    return np.bitwise_count(np.arange(2**k, dtype=np.uint64)).astype(np.int64)


def _coefficients_fwht(values: np.ndarray, k: int) -> np.ndarray:
    f = values.astype(np.float64).copy()
    h = 1
    while h < len(f):
        f = f.reshape(-1, 2 * h)
        a, b = f[:, :h].copy(), f[:, h:].copy()
        f[:, :h], f[:, h:] = a + b, a - b
        f = f.reshape(-1)
        h *= 2
    # standard transform pairs S with (-1)^{|S & z|}; flip by (-1)^{|S|} to
    # land on chi_S for the +1-bit encoding
    par = 1 - 2 * (_popcounts(k) & 1)
    return par * f / 2**k


def all_coefficients(values: np.ndarray, k: int) -> np.ndarray:
    """All 2^k character sums 2^-k * sum_z f(z) chi_S(z), indexed by the bit
    mask of S, by the fast Walsh-Hadamard transform in O(k 2^k)."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (2**k,):
        raise ValueError("values must have length 2^k")
    return _coefficients_fwht(values, k)


def fourier_coefficient(q_dist: PlantingDistribution, subset) -> float:
    """Coefficient of chi_S for the normalized table."""
    k = q_dist.k
    subset = tuple(subset)
    if any(i < 0 or i >= k for i in subset):
        raise ValueError("subset contains a coordinate outside range(k)")
    mask = sum(1 << i for i in set(subset))
    return float(all_coefficients(q_dist.normalized(), k)[mask])


def _lowest_degree(coefs: np.ndarray, k: int, tol: float) -> list[tuple[tuple[int, ...], float]]:
    """Every subset of the smallest size with |coef| > tol, with its
    coefficient, in lexicographic order; empty when there is none."""
    for size in range(1, k + 1):
        hits = []
        for subset in combinations(range(k), size):
            c = coefs[sum(1 << i for i in subset)]
            if abs(c) > tol:
                hits.append((subset, float(c)))
        if hits:
            return hits
    return []


def distribution_witnesses(q_dist: PlantingDistribution, tol: float = ZERO_TOL) -> list[FourierReport]:
    """Every smallest witness subset of the planting table, in lexicographic
    order, each with the bias it induces; empty for the flat table."""
    k = q_dist.k
    coefs = all_coefficients(q_dist.normalized(), k)
    return [FourierReport(len(s), s, c, 1.0 + 2**k * c) for s, c in _lowest_degree(coefs, k, tol)]


def distribution_complexity(q_dist: PlantingDistribution, tol: float = ZERO_TOL) -> FourierReport:
    """Smallest witness subset of the planting table and the bias it induces:
    the first of ``distribution_witnesses``.

    The flat table has every non-trivial coefficient zero and is reported
    with r = None (the planted assignment is unidentifiable).
    """
    witnesses = distribution_witnesses(q_dist, tol)
    return witnesses[0] if witnesses else FourierReport(None, (), 0.0, None)


def predicate_lowest_degree(predicate: np.ndarray, tol: float = ZERO_TOL) -> FourierReport:
    """Lowest-degree non-zero coefficient of a +/-1 predicate table.

    A constant predicate is reported with r = 0: its constraints carry no
    information and the reduction refuses it. ``delta`` = 1 + coefficient is
    the bias of the parity of the witness coordinates against the observed
    value; its sign is the correlation sign the constraint folding uses.
    """
    table, k = _predicate_table(predicate)
    coefs = all_coefficients(table, k)
    if abs(abs(coefs[0]) - 1.0) < tol:
        return FourierReport(0, (), float(coefs[0]), None)
    hits = _lowest_degree(coefs, k, tol)
    if not hits:  # unreachable for +/-1 tables (Parseval), kept for safety
        return FourierReport(None, (), 0.0, None)
    subset, c = hits[0]
    return FourierReport(len(subset), subset, c, 1.0 + c)
