"""Subsampled power iteration and baselines.

The solver never forms the n1 x n2 matrix. Each of the T edge-disjoint
sub-graphs stores the left endpoint of each edge, the sorted set of right
vertices it touches (its support) and each edge's index into that set, so
every right endpoint is stored once; the per-edge right ids are derived on
demand as ``support[col_rank]``. The centered products are computed
implicitly:

    y = (A - qJ)^T x  is carried as (yhat on the support, L = sum(x)),
        the full vector being yhat - q L everywhere;
    x' = (A - qJ) y   expands to  A yhat - q (sum yhat) - q L deg + q^2 L n2,

so one iteration costs O(edges + support + n1) regardless of n2: no array
the solver allocates has n2 entries. The split holds one sorted packed key
per edge, and each read of a sub-graph decodes it anew from its slice of
those keys, so the solve, which uses each sub-graph once, holds the keys
and one pair of decoded sub-graphs at a time.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .instances import (
    _CHUNK_ROWS, _INT64_MAX, BipartiteGraph, PlantedCspInstance, _is_number, _key_dtype, _number_list, _ranks,
    _run_starts,
)
from .reduction import _check_clauses, _sign_or_coin

__all__ = [
    "SubGraph",
    "SplitGraphs",
    "SparseRightVec",
    "SolverConfig",
    "RecoveryResult",
    "SolverError",
    "split_edges",
    "apply_mt",
    "apply_m",
    "right_norm",
    "spi_solve",
    "majority_vote_r1",
    "power_iteration_baseline",
]

# Any intermediate with norm below this aborts the solve.
NORM_ABORT = 1e-12


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Edge splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubGraph:
    """One sub-matrix: left endpoints per edge, the right support, each
    edge's index into it, and the row degrees."""

    rows: np.ndarray
    support: np.ndarray  # sorted unique right endpoints
    col_rank: np.ndarray  # per-edge index into support
    row_degrees: np.ndarray  # length n1

    @property
    def cols(self) -> np.ndarray:
        """The right endpoint of each edge, gathered anew on every read."""
        return self.support[self.col_rank]

    @property
    def num_edges(self) -> int:
        return len(self.rows)


class _Buckets(Sequence):
    """The sub-graphs of one split, held as its sorted packed keys: entry t
    is decoded from the keys of bucket t anew on every read."""

    def __init__(self, key: np.ndarray, bounds: list[int], n1: int, n2: int, present):
        self._key, self._bounds, self._n1, self._n2, self._present = key, bounds, n1, n2, present

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, t: int) -> SubGraph:
        t = range(len(self))[t]  # IndexError past either end, as a list gives
        n1 = self._n1
        key = self._key[self._bounds[t] : self._bounds[t + 1]]
        # dividing the rows out leaves t * n2 + col, in fresh arrays: the
        # shared keys are never written; a multiply-subtract gives the rows
        # faster than np.remainder
        col_key = key // n1
        rows = np.multiply(col_key, n1, out=np.empty(len(key), dtype=np.int64))
        np.subtract(key, rows, out=rows)
        # one support entry per run of equal columns
        new_col = _run_starts(col_key)
        support = np.subtract(np.compress(new_col, col_key), t * self._n2, dtype=np.int64)
        col_rank = np.cumsum(new_col, dtype=np.int64)
        col_rank -= 1
        if self._present is not None:
            support = self._present[support]
        degrees = np.bincount(rows, minlength=n1).astype(np.float64)
        return SubGraph(rows, support, col_rank, degrees)


@dataclass(frozen=True)
class SplitGraphs:
    """The split's parameters and its T sub-graphs. ``subs`` is a read-only
    sequence that holds only the sorted packed keys; reading ``subs[t]``
    decodes sub-graph t anew, so a caller that walks the sub-graphs once
    holds one at a time."""

    n1: int
    n2: int
    T: int
    q: float
    subs: Sequence[SubGraph]


def _sub_graphs(n1: int, n2: int, edges: np.ndarray, T: int, rng) -> _Buckets:
    """Sub-graph t holds the edges whose bucket id, drawn by ``rng`` (all 0
    when T is 1), is t, sorted by (col, row).

    Each edge is packed into the key (bucket * n2 + col) * n1 + row, and one
    sort orders every sub-graph at once. The keys are uint32 under
    ``_key_dtype``'s rule (T * n2 * n1 <= 2^32, each size below 2^32),
    which halves the bytes the sort moves; otherwise they are int64. The
    bucket ids are drawn straight into the key's dtype: a range below 2^32
    draws the same values and leaves the generator in the same state in
    either dtype. The bucket bounds are
    searched in the sorted keys, and the result holds those keys and
    bounds alone (``_Buckets`` decodes each sub-graph when it is read).
    When the keys would overflow int64, the right ids are first replaced by
    their ranks among the ids present, and each support is mapped back.
    """
    m = len(edges)
    cols, present = edges[:, 1], None
    if T * n2 * n1 > _INT64_MAX:
        present, cols = _ranks(cols)
        present = present.astype(np.int64, copy=False)  # supports are int64 whatever the edges' dtype
        n2 = len(present)
        if T * n2 * n1 > _INT64_MAX:
            raise ValueError(f"{T} buckets x {n2} right x {n1} left ids overflow int64 keys")
    dtype = _key_dtype(n1, n2, T)
    key = rng.integers(0, T, size=m, dtype=dtype) if T > 1 else np.zeros(m, dtype=dtype)
    key *= n2
    np.add(key, cols, out=key, casting="unsafe")
    key *= n1
    np.add(key, edges[:, 0], out=key, casting="unsafe")
    del cols
    key.sort()
    # bucket t starts at the first key >= t * n2 * n1; the needles stop short
    # of T * n2 * n1, so they fit the key dtype, though n2 * n1 alone may not
    starts = np.searchsorted(key, (np.arange(1, T) * (n2 * n1)).astype(key.dtype))
    return _Buckets(key, [0, *starts.tolist(), m], n1, n2, present)


def split_edges(graph: BipartiteGraph, T: int, seed, p: float | None = None) -> SplitGraphs:
    """Assign each edge to one of T sub-graphs uniformly and independently.
    Within a sub-graph the edges are sorted by (col, row). The result holds
    one sorted packed key per edge; each read of ``subs[t]`` decodes
    sub-graph t from its slice of those keys.

    The centering constant is q = p / T with p the given overall density or,
    when omitted, the observed density m / (n1 n2).
    """
    if T < 2:
        raise ValueError("need T >= 2")
    subs = _sub_graphs(graph.n1, graph.n2, graph.edges, T, np.random.default_rng(seed))
    return SplitGraphs(graph.n1, graph.n2, T, _density(graph, p) / T, subs)


def _density(graph: BipartiteGraph, p: float | None) -> float:
    """p when given, else the observed density m / (n1 n2)."""
    return graph.num_edges / (graph.n1 * graph.n2) if p is None else p


# ---------------------------------------------------------------------------
# Implicit centered products
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseRightVec:
    """Values on a sorted support; the represented full vector is
    values - q*L on the support and -q*L elsewhere."""

    support: np.ndarray
    values: np.ndarray


def _weighted_bincount(idx, weights, minlength):
    # bincount of an empty index array yields int64 even with float weights
    out = np.bincount(idx, weights=weights, minlength=minlength)
    return out.astype(np.float64, copy=False)


def apply_mt(sub: SubGraph, x: np.ndarray, q: float) -> tuple[SparseRightVec, float]:
    """(A - qJ)^T x without touching n2: returns (yhat, L)."""
    vals = _weighted_bincount(sub.col_rank, x[sub.rows], len(sub.support))
    return SparseRightVec(sub.support, vals), float(x.sum())


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed in an order that does not depend on the BLAS thread
    count, so a seed gives the same traces under any thread setting."""
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def right_norm(yhat: SparseRightVec, L: float, q: float, n2: int) -> float:
    """2-norm of the full vector yhat - q L 1."""
    on = yhat.values - q * L
    off = q * L
    return math.sqrt(_dot(on, on) + (n2 - len(yhat.values)) * off * off)


def right_dot(
    yhat: SparseRightVec, L: float, q: float, dense: np.ndarray, dense_sum: float | None = None
) -> float:
    """Dot product of the represented vector with a full dense vector; only
    support-sized slices of ``dense`` are materialized."""
    if dense_sum is None:
        dense_sum = float(dense.sum())
    return _dot(yhat.values, dense[yhat.support].astype(np.float64)) - q * L * dense_sum


def _lookup(yhat: SparseRightVec, sub: SubGraph) -> np.ndarray:
    """yhat's value at each edge's right endpoint (0 off yhat's support),
    looked up once per support vertex of ``sub`` and expanded to its edges."""
    if len(yhat.support) == 0:
        return np.zeros(sub.num_edges)
    pos = np.searchsorted(yhat.support, sub.support)
    np.minimum(pos, len(yhat.support) - 1, out=pos)
    hit = yhat.support[pos] == sub.support
    return np.where(hit, yhat.values[pos], 0.0)[sub.col_rank]


def apply_m(
    sub: SubGraph, yhat: SparseRightVec, L: float, q: float, n2_nominal: int
) -> np.ndarray:
    """(A - qJ)(yhat - q L 1) as the exact four-term sum:

        A yhat - q (sum yhat) 1 - q L (A 1) + q^2 L n2 1

    Cost is linear in the sub-graph's edges plus the support of yhat plus n1.
    """
    vals_at_edges = _lookup(yhat, sub)
    n1 = len(sub.row_degrees)
    out = _weighted_bincount(sub.rows, vals_at_edges, n1)
    ssum = float(yhat.values.sum())
    out -= q * ssum
    out -= (q * L) * sub.row_degrees
    out += (q * q * L) * n2_nominal
    return out


# ---------------------------------------------------------------------------
# Subsampled power iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one solve. T = ceil(T_factor * ln n1), rounded up to even;
    the per-coordinate majority is voted over the window of iterates given as
    fractions of the iterate list (default: the second half)."""

    T_factor: float = 10.0
    majority_window: tuple[float, float] = (0.5, 1.0)
    seed: int = 0
    p_override: float | None = None

    def __post_init__(self):
        if not (_is_number(self.T_factor) and self.T_factor > 0):
            raise ValueError(f"T_factor must be finite and positive, got {self.T_factor!r}")
        w = self.majority_window
        if not (_number_list(w) and len(w) == 2 and 0.0 <= w[0] < w[1] <= 1.0):
            raise ValueError(f"majority_window must satisfy 0 <= lo < hi <= 1, got {w!r}")
        p = self.p_override
        # NaN compares false and passes: the solve then reports "degenerate"
        if p is not None and (isinstance(p, bool) or not isinstance(p, numbers.Real) or p < 0.0 or p > 1.0):
            raise ValueError(f"p_override must be a number in [0, 1], got {p!r}")

    def resolve_T(self, n1: int) -> int:
        """T for n1 left vertices. Raises ``ValueError`` naming ``T_factor``
        when T would pass 2^63, above which the split cannot draw bucket ids."""
        raw = self.T_factor * math.log(max(n1, 2))
        if not raw < 2.0**63:  # also false for an overflow to inf
            raise ValueError(
                f"T_factor = {self.T_factor!r} gives T = {raw:.3g} sub-graphs at n1 = {n1}, "
                "past the 2^63 the edge split can draw"
            )
        T = max(2, math.ceil(raw))
        return T + (T % 2)

    def window_slice(self, n_iterates: int) -> slice:
        lo, hi = self.majority_window
        start = int(math.floor(lo * n_iterates))
        stop = max(start + 1, int(math.ceil(hi * n_iterates)))
        return slice(start, min(stop, n_iterates))


@dataclass
class RecoveryResult:
    signs: np.ndarray | None
    status: str  # "ok" or "degenerate"
    overlap: float | None
    u_trace: list[float]
    v_trace: list[float] | None
    iterations: int
    edges_used: int
    T: int
    ops_edge_touches: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "signs": None if self.signs is None else [int(s) for s in self.signs],
            "status": self.status,
            "overlap": self.overlap,
            "U_trace": self.u_trace,
            "V_trace": self.v_trace,
            "iterations": self.iterations,
            "edges_used": self.edges_used,
            "T": self.T,
            "ops_edge_touches": self.ops_edge_touches,
        }


def _signs_of(x: np.ndarray) -> np.ndarray:
    """The int8 sign of each entry, with sgn(0) = +1: the one convention of
    the iterates, the vote and the baseline."""
    return np.where(x >= 0, 1, -1).astype(np.int8)


def _power_step(forward, backward, x: np.ndarray, q: float, n2: int):
    """One power-iteration round: y = forward(x) as (yhat, L), then
    x' = backward(yhat, L) normalized. Returns (x', yhat, L, |y|), or None
    when |y| or |x'| before normalization is below NORM_ABORT."""
    yhat, L = forward(x)
    ny = right_norm(yhat, L, q, n2)
    if not ny >= NORM_ABORT:  # NaN-safe
        return None
    xu = backward(yhat, L)
    nx = _norm(xu)
    if not nx >= NORM_ABORT * max(ny, 1.0):
        return None
    return xu / nx, yhat, L, ny


def spi_solve(
    graph: BipartiteGraph,
    config: SolverConfig | None = None,
    truth=None,
    x0: np.ndarray | None = None,
) -> RecoveryResult:
    """Recover the left partition by power iteration over fresh sub-matrices.

    Each round multiplies by a new centered sub-matrix transpose and then the
    next one forward, normalizing in between; the output is the per-coordinate
    majority of the sign vectors over the configured window. When ``truth``
    is given, the per-iteration correlations with the hidden labels are
    recorded (the right-side trace only when the right labels cover all of
    n2). A zero-norm or NaN intermediate aborts with status "degenerate".
    A given ``x0`` must hold n1 finite entries with a nonzero norm, else
    ``ValueError``.

    Seed substreams: 0 = edge split, 1 = initial vector.
    """
    config = config or SolverConfig()
    n1, n2, m = graph.n1, graph.n2, graph.num_edges
    T = config.resolve_T(n1)
    n_it = T // 2
    u = v = None
    if truth is not None:
        u = np.asarray(truth.u, dtype=np.float64)
        if len(truth.v) == n2:
            v = truth.v  # read support-sized slices only; never copied whole

    def failed(ops: int) -> RecoveryResult:
        return RecoveryResult(None, "degenerate", None, [], None if v is None else [],
                              0, m, T, ops)

    split_ss, x0_ss = np.random.SeedSequence(config.seed).spawn(2)
    if x0 is None:
        x = (np.random.default_rng(x0_ss).integers(0, 2, size=n1) * 2 - 1) / math.sqrt(n1)
    else:
        x = np.asarray(x0, dtype=np.float64)
        norm = _norm(x) if x.shape == (n1,) else 0.0
        if not 0.0 < norm < math.inf:  # also false for NaN or inf entries
            raise ValueError(f"x0 must have shape ({n1},) and a finite nonzero norm")
        x = x / norm

    if m == 0:
        return failed(0)

    split = split_edges(graph, T, split_ss, p=config.p_override)
    q = split.q
    ops = 2 * m  # split assignment + per-sub degree pre-computation

    u_trace: list[float] = []
    v_trace: list[float] = []
    zs = np.empty((n_it, n1), dtype=np.int8)
    vsum = float(v.sum()) if v is not None else 0.0

    for i in range(n_it):
        first, second = split.subs[2 * i], split.subs[2 * i + 1]
        ops += first.num_edges + second.num_edges
        step = _power_step(
            partial(apply_mt, first, q=q), partial(apply_m, second, q=q, n2_nominal=n2), x, q, n2
        )
        if step is None:
            return failed(ops)
        x, yhat, L, ny = step
        if v is not None:
            v_trace.append(right_dot(yhat, L, q, v, vsum) / ny)
        if u is not None:
            u_trace.append(_dot(u, x))
        zs[i] = _signs_of(x)

    window = config.window_slice(n_it)
    signs = _signs_of(zs[window].sum(axis=0, dtype=np.int64)).astype(np.int64)

    ov = None
    if u is not None:
        ov = float(abs(signs @ u) / n1)
    return RecoveryResult(signs, "ok", ov, u_trace, None if v is None else v_trace,
                          n_it, m, T, ops)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def majority_vote_r1(
    instance: PlantedCspInstance, subset, seed: int = 0
) -> tuple[np.ndarray, int]:
    """Witness-size-1 solver: each variable takes the sign it shows more
    often at the witness position; zero counts fall back to a seeded coin.
    Returns (assignment, number of coin flips). The assignment matches the
    planted one up to a global flip. A clause with a variable id outside
    [0, n), a sign other than +1/-1 or a repeated variable, at any position,
    raises ``ReductionError``; the clauses are checked a block of rows at a
    time, as the reduction checks them."""
    subset = tuple(subset)
    if len(subset) != 1:
        raise ValueError("majority vote needs a single witness position")
    cvars, csigns = instance.clause_vars, instance.clause_signs
    for a in range(0, instance.m, _CHUNK_ROWS):
        _check_clauses(instance.n, cvars[a : a + _CHUNK_ROWS], csigns[a : a + _CHUNK_ROWS], first_row=a)
    (j,) = subset
    counts = np.bincount(cvars[:, j], weights=csigns[:, j].astype(np.float64), minlength=instance.n)
    return _sign_or_coin(counts, seed)


def power_iteration_baseline(
    graph: BipartiteGraph, iterations: int, seed: int, p: float | None = None
) -> np.ndarray:
    """Plain power iteration on the full centered matrix (no subsampling):
    x <- normalize(M M^T x). Returns the signs of the final iterate.

    When (delta-1)^2 p n1 < 1 (below the spectral barrier) the ~p n2 noise on
    the diagonal of the centered M M^T squeezes its top-two eigenvalue ratio to
    ~1 + (delta-1)^2 p n1, so O(log n1) products barely move the start."""
    if iterations < 1:
        raise ValueError("need iterations >= 1")
    n1, n2, m = graph.n1, graph.n2, graph.num_edges
    if m == 0:
        raise SolverError("graph has no edges")
    q = _density(graph, p)
    sub = _sub_graphs(n1, n2, graph.edges, 1, None)[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = (rng.integers(0, 2, size=n1) * 2 - 1) / math.sqrt(n1)
    for _ in range(iterations):
        step = _power_step(partial(apply_mt, sub, q=q), partial(apply_m, sub, q=q, n2_nominal=n2), x, q, n2)
        if step is None:
            raise SolverError("zero-norm iterate")
        x = step[0]
    return _signs_of(x).astype(np.int64)
