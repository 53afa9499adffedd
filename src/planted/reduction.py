"""Reduce planted CSPs and predicate-constraint instances to bipartite
block-model graphs.

Left vertices are the 2n literals: code 2v is the positive literal of
variable v, code 2v+1 the negated one. Right vertices are unordered
(r-1)-sets of literal codes, materialized when they occur and numbered in
lexicographic order; the nominal right-side count C(2n, r-1) is carried
separately for density formulas.

Truth-label conventions (fixed so that a clause lands on a same-side edge
exactly when it has an even number of false literals, which happens with
probability delta/2):

* a literal's left label is +1 iff the literal is FALSE under sigma, so
  u[2v] = -sigma_v and u[2v+1] = +sigma_v;
* a tuple's right label is the negated product of its literal values, i.e.
  +1 iff the tuple has an odd number of false literals. For even witness
  sizes this coincides with "even number of true literals"; for odd sizes
  the parity flips (verified against the measured split in the test suite).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierReport
from .instances import (
    _CHUNK_ROWS, BipartiteGraph, GoldreichInstance, HiddenPartition, PlantedCspInstance, _distinct, _ids_dtype,
    _check_int, _check_real, _int64, _pack, _sigma, _signs,
)

__all__ = [
    "TupleIndexer",
    "ReducedInstance",
    "ReductionError",
    "literal_codes",
    "restrict_clause",
    "csp_to_bipartite",
    "goldreich_to_bipartite",
    "partition_to_assignment",
    "literal_truth_labels",
    "tuple_truth_labels",
]


class ReductionError(ValueError):
    pass


def literal_codes(var_ids: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Dense code of a literal: 2*var for positive, 2*var + 1 for negated.
    Raises ``ValueError`` for an id that is not an integer or a sign other
    than +1/-1."""
    return _literal_codes(_int64(var_ids, "var_ids"), _signs(signs, "signs must be +1/-1"))


def _literal_codes(ids: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``literal_codes`` on int64 ids and +/-1 signs already checked."""
    return 2 * ids + (signs < 0)


class TupleIndexer:
    """Bijection between canonical literal-code tuples and dense right-vertex
    indices. Canonical form is the sorted code tuple; the bulk build numbers
    the tuples contiguously from 0 in lexicographic order, and
    ``index_of(create=True)`` appends after them. The tuples are held as one
    (count, r-1) array in index order."""

    def __init__(self, r: int, n_vars: int):
        self.r = r
        self.n_vars = n_vars
        self.n2_nominal = math.comb(2 * n_vars, r - 1)
        self._rows = np.empty((0, r - 1), dtype=np.int64)

    def __len__(self) -> int:
        return len(self._rows)

    def index_of(self, codes, create: bool = False) -> int:
        """Index of a tuple by a linear scan; ``create`` appends it if absent.
        Meant for single lookups: bulk construction goes through
        ``_from_rows``."""
        key = tuple(sorted(int(c) for c in codes))
        if len(key) != self.r - 1:
            raise ReductionError(f"expected {self.r - 1} literal codes, got {len(key)}")
        if len({c // 2 for c in key}) != len(key):
            raise ReductionError("tuple repeats a variable")
        hit = np.flatnonzero((self._rows == key).all(axis=1))
        if len(hit):
            return int(hit[0])
        if not create:
            raise KeyError(key)
        self._rows = np.vstack([self._rows, np.array([key], dtype=np.int64)])
        return len(self._rows) - 1

    def tuple_at(self, idx: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self._rows[idx])

    def materialized(self) -> np.ndarray:
        """(count, r-1) array of the stored canonical tuples."""
        return self._rows.copy()

    @classmethod
    def _from_rows(cls, r: int, n_vars: int, rows: np.ndarray) -> tuple["TupleIndexer", np.ndarray]:
        """Bulk-build from canonical (m, r-1) rows; returns (indexer, ids).

        Each row is packed column by column into one key in mixed radix 2n;
        ``_pack`` picks each step's width and ranks where the next column
        would pass int64. Keys sort as their rows do: the ids number the
        tuples lexicographically (``index_of(create=True)`` appends after
        them), and the distinct rows are decoded from the distinct keys as
        int64, whatever the dtype of ``rows``."""
        idxr = cls(r, n_vars)
        key, bound, unpacks = rows[:, 0], 2 * n_vars, []
        for col in rows.T[1:]:
            key, bound, unpack = _pack(key, bound, col, 2 * n_vars)
            unpacks.append(unpack)
        key = key.astype(np.intp, copy=False)  # rebound, freeing the narrow key; grouping indexes with it twice
        values, ids = _group_sorted(key, bound)
        cols = [values]
        for unpack in reversed(unpacks):  # each splits the leading column in two
            cols[:1] = unpack(cols[0]).T
        idxr._rows = np.column_stack(cols).astype(np.int64)
        return idxr, ids


def _group_sorted(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(values, ids)``: the distinct values of a 1-D integer array in
    ascending order, and for each element the number of its value.

    ``bound`` is an upper bound on the values (exclusive). Up to m, a
    presence table of ``bound`` entries and its running count number the
    values; past m, ``np.unique`` ranks them, to keep the table short."""
    if bound > len(key):
        return np.unique(key, return_inverse=True)
    seen = np.zeros(bound, dtype=bool)
    seen[key] = True
    number = np.cumsum(seen, dtype=np.int32 if bound < 2**31 else np.int64) - 1  # read only where seen
    return np.flatnonzero(seen), number[key]


@dataclass(frozen=True)
class ReducedInstance:
    """Block-model view of a constraint set. ``graph.n2`` is the nominal
    tuple count; ``truth``, when present, carries u over all 2n literals and
    v over the materialized tuples only (in index order)."""

    graph: BipartiteGraph
    indexer: TupleIndexer
    delta: float
    p_equiv: float
    truth: HiddenPartition | None

    @property
    def n2_nominal(self) -> int:
        return self.indexer.n2_nominal


def restrict_clause(clause, subset):
    """Sub-tuple of literals at the 0-based positions in ``subset``, in
    position order."""
    positions = sorted(subset)
    return tuple(clause[i] for i in positions)


def literal_truth_labels(sigma: np.ndarray) -> np.ndarray:
    """Left labels over the 2n literal codes: +1 iff the literal is false."""
    sigma = _sigma(sigma, np.size(sigma))
    u = np.empty(2 * len(sigma), dtype=np.int64)
    u[0::2] = -sigma
    u[1::2] = sigma
    return u


def tuple_truth_labels(code_rows: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Right labels for tuples of literal codes: the negated product of the
    literals' truth values under sigma."""
    code_rows = _int64(code_rows, "code_rows")
    sigma = _sigma(sigma, np.size(sigma))
    if code_rows.size == 0:
        return np.empty(0, dtype=np.int64)
    vals = sigma[code_rows // 2] * np.where(code_rows % 2 == 0, 1, -1)
    return -vals.prod(axis=1)


def _poisson_keep(m: int, epsilon: float, rng: np.random.Generator) -> int:
    z = int(rng.poisson((1.0 - epsilon) * m))
    return min(z, m)


def _check_clauses(n: int, clause_vars: np.ndarray, clause_signs: np.ndarray, first_row: int = 0) -> np.ndarray:
    """Reject clauses with a variable id outside [0, n), a sign other than
    +1/-1, or a variable repeated within the clause, at any of their k
    positions; the message numbers rows from ``first_row``. Returns the ids
    transposed, a (k, rows) int64 copy with one contiguous row per position,
    on which every check but the sign one runs."""
    ids = np.asarray(clause_vars).T.astype(np.int64, order="C")
    # viewed as unsigned, a negative id is huge, so one compare checks [0, n)
    masks = [ids.view(np.uint64) >= n, (np.abs(clause_signs) != 1).T]
    masks += [ids[a] == ids[b] for b in range(1, len(ids)) for a in range(b)]
    # whole-mask tests are cheap; only a failing check locates its first row
    bad_rows = [np.flatnonzero(np.atleast_2d(x).any(axis=0))[0] for x in masks if x.any()]
    if bad_rows:
        row = int(min(bad_rows))
        raise ReductionError(
            f"clause {first_row + row} (vars {ids[:, row].tolist()}, signs {clause_signs[row].tolist()}) "
            f"needs distinct variable ids in [0, {n}) and signs +1/-1"
        )
    return ids


def _sort_rows(a: np.ndarray, out: np.ndarray):
    """``np.sort(a, axis=1)`` written into ``out``. Rows of width 2 take a min and a max
    over whole columns, which beats numpy's per-row sort there."""
    if a.shape[1] == 2:
        x, y = a.T
        np.minimum(x, y, out=out[:, 0])
        np.maximum(x, y, out=out[:, 1])
    else:
        out[...] = np.sort(a, axis=1)


def _build_reduced(
    n: int,
    clause_vars: np.ndarray,
    clause_signs: np.ndarray,
    positions: list[int],
    sigma: np.ndarray | None,
    delta: float,
    thinning: str,
    epsilon: float,
    seed: int,
    left_literal: str,
) -> ReducedInstance:
    """Shared core: k-literal clauses restricted to the r witness
    ``positions`` (sorted) -> edges + labels.

    One pass over blocks of ``_CHUNK_ROWS`` rows checks every position of
    every clause and encodes the kept ones, restricted, while the block is
    in cache: literal codes, the pivot swapped to the front, the left code
    and the sorted tail written into preallocated arrays, int32 when the 2n
    codes fit. Rows past a Poisson prefix are checked but not encoded, so a
    bad clause anywhere is reported before a thinning error."""
    m, k = clause_vars.shape
    r = len(positions)
    if m == 0:
        raise ReductionError("empty instance")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m_kept = _poisson_keep(m, epsilon, rng) if thinning == "poisson" else m
    code_dtype = _ids_dtype(2 * n)
    left = np.empty(m_kept, dtype=code_dtype)
    tails = np.empty((r - 1, m_kept), dtype=code_dtype)  # by position, so each is contiguous
    for a in range(0, m, _CHUNK_ROWS):
        s = clause_signs[a : a + _CHUNK_ROWS]
        ids = _check_clauses(n, clause_vars[a : a + _CHUNK_ROWS], s, first_row=a)
        b = min(a + _CHUNK_ROWS, m_kept)
        if b <= a:
            continue
        if r < k:
            ids, s = ids[positions], s[:, positions]
        codes = _literal_codes(ids[:, : b - a], s[: b - a].T)  # one row per position
        if left_literal == "random":
            # uniform pivot position per clause, swapped to the front; only
            # valid for order-symmetric laws. Drawn per block, the pivots
            # are the same stream as one draw of m_kept.
            cols = np.arange(b - a)
            pivot = rng.integers(0, r, size=b - a)
            front = codes[pivot, cols]
            codes[pivot, cols] = codes[0]
            codes[0] = front
        left[a:b] = codes[0]
        _sort_rows(codes[1:].T, tails[:, a:b].T)
    if m_kept == 0:
        raise ReductionError("thinning kept no constraints")

    indexer, tuple_ids = TupleIndexer._from_rows(r, n, tails.T)
    del tails  # the indexer holds its own copy of the distinct rows
    n1 = 2 * n
    keys, _, unpack = _pack(left, n1, tuple_ids, len(indexer))
    del left, tuple_ids
    keys = _distinct(keys)  # rebound, so the m keys are freed before the decode
    graph = BipartiteGraph(n1, indexer.n2_nominal, unpack(keys))
    p_equiv = m_kept / (2.0 * n1 * indexer.n2_nominal)

    truth = None
    if sigma is not None:
        u = literal_truth_labels(sigma)
        v = tuple_truth_labels(indexer.materialized(), sigma)
        truth = HiddenPartition(u, v)
    return ReducedInstance(graph, indexer, delta, p_equiv, truth)


def csp_to_bipartite(
    instance: PlantedCspInstance,
    report: FourierReport,
    thinning: str = "dedup",
    epsilon: float = 0.5,
    seed: int = 0,
    left_literal: str = "first",
) -> ReducedInstance:
    """Restrict each clause to the witness positions and turn it into an edge
    between its first restricted literal and the set of the remaining r-1.

    ``thinning="dedup"`` keeps every constraint and drops duplicate edges;
    ``"poisson"`` first keeps a Poisson((1-epsilon) m) prefix, which makes
    edges independent at the cost of discarding constraints. ``epsilon``
    must lie in [0, 1] whatever the mode (``ValueError`` otherwise), and an
    unknown ``thinning`` or ``left_literal`` raises ``ReductionError`` before
    any clause is read.
    """
    _check_int(seed, "seed", 0)
    _check_real(epsilon, "epsilon", "be a number in [0, 1]", lambda e: 0.0 <= e <= 1.0)  # NaN fails too
    if thinning not in ("dedup", "poisson"):
        raise ReductionError(f"unknown thinning mode: {thinning!r}")
    if left_literal not in ("first", "random"):
        raise ReductionError(f"unknown left_literal mode: {left_literal!r}")
    if instance.n >= 2**62:  # n1 = 2n literals must fit int64, as the graph files require
        raise ReductionError(f"n = {instance.n} variables: the 2n literals must fit int64 (n < 2^62)")
    if not report.identifiable:
        raise ReductionError("planting law has no usable witness subset")
    if report.r == 1:
        raise ReductionError("witness size 1: use the majority-vote solver")
    if max(report.subset) >= instance.k:
        raise ReductionError(f"witness position {max(report.subset)} lies outside the clauses' width k = {instance.k}")
    return _build_reduced(
        instance.n,
        instance.clause_vars,
        instance.clause_signs,
        sorted(report.subset),
        instance.sigma,
        report.delta,
        thinning,
        epsilon,
        seed,
        left_literal,
    )


def _signed_clauses(
    instance: GoldreichInstance, report: FourierReport, value_handling: str
) -> PlantedCspInstance:
    """Predicate constraints as signed clauses over the same variables.

    ``"fold"`` keeps every constraint and writes its observed value into the
    sign of the first witness literal; ``"discard"`` keeps only the value +1
    constraints. All other signs are +1."""
    signs = np.ones(instance.tuple_vars.shape, dtype=np.int8)
    if value_handling == "fold":
        signs[:, min(report.subset)] = instance.values
        return PlantedCspInstance(instance.n, instance.sigma, instance.tuple_vars, signs)
    if value_handling == "discard":
        keep = instance.values == 1
        return PlantedCspInstance(instance.n, instance.sigma, instance.tuple_vars[keep], signs[keep])
    raise ReductionError(f"unknown value_handling mode: {value_handling!r}")


def goldreich_to_bipartite(
    instance: GoldreichInstance,
    report: FourierReport,
    thinning: str = "dedup",
    epsilon: float = 0.5,
    seed: int = 0,
    value_handling: str = "fold",
) -> ReducedInstance:
    """Reduce predicate constraints via their lowest-degree witness.

    Each constraint's witness coordinates form a noisy parity of the observed
    value. ``value_handling="fold"`` absorbs the value into the sign of the
    first restricted literal and keeps every constraint; ``"discard"`` keeps
    only value +1 constraints with all-positive literals. Either way the
    constraints become signed clauses reduced by ``csp_to_bipartite``.
    """
    _check_int(seed, "seed", 0)
    if report.r == 0:
        raise ReductionError("constant predicate carries no information")
    if not report.identifiable:
        raise ReductionError("predicate has no usable witness subset")
    if report.r == 1:
        raise ReductionError("witness size 1: use the majority-vote solver")
    return csp_to_bipartite(
        _signed_clauses(instance, report, value_handling), report, thinning, epsilon, seed
    )


def _sign_or_coin(score: np.ndarray, seed: int) -> tuple[np.ndarray, int]:
    """The int64 sign of each score, a seeded +/-1 coin where it is zero,
    and the number of zero scores."""
    coin = np.random.default_rng(np.random.SeedSequence(seed)).integers(0, 2, size=len(score)) * 2 - 1
    signs = np.where(score > 0, 1, np.where(score < 0, -1, coin)).astype(np.int64)
    return signs, int((score == 0).sum())


def partition_to_assignment(result: np.ndarray, seed: int = 0) -> tuple[np.ndarray, int]:
    """Collapse a sign vector over 2n literals to one over n variables.

    Per variable the positive-literal sign votes against the negated one;
    zero scores fall back to a seeded coin. Returns the assignment and the
    number of inconsistent literal pairs (both literals on the same side),
    a cheap quality diagnostic.
    """
    _check_int(seed, "seed", 0)
    message = "expected a +1/-1 sign vector over 2n literals"
    result = _signs(result, message, np.size(result))
    if len(result) % 2:
        raise ValueError(message)
    return _sign_or_coin(result[0::2] - result[1::2], seed)
