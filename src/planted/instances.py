"""Seeded generators for bipartite block-model graphs, planted k-CSP formulas,
and predicate-constraint (PRG-style) instances, plus the overlap metric.

All randomness is driven by numpy's PCG64 generator. Every sampler takes a
single 64-bit seed and derives independent substreams with
``np.random.SeedSequence(seed).spawn(...)`` in a fixed, documented order, so
the same seed always reproduces the same instance byte for byte.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BipartiteGraph",
    "HiddenPartition",
    "BlockModelParams",
    "PlantingDistribution",
    "PlantedCspInstance",
    "GoldreichInstance",
    "sample_bipartite_block",
    "sample_planted_csp",
    "sample_goldreich",
    "overlap",
    "uniform_weights",
    "noisy_xor_weights",
    "sat_clause_weights",
    "parity_predicate",
    "majority_predicate",
    "constant_predicate",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64(x, what: str) -> np.ndarray:
    """``x`` as an int64 array, int64 input as it is (no copy, no scan); ``ValueError``
    naming ``what`` for an entry that is fractional, NaN, infinite, past int64 or not a number."""
    a = np.asarray(x)
    if np.can_cast(a.dtype, np.int64):  # bool and the integer types that fit
        return a.astype(np.int64, copy=False)
    try:  # through Python ints: NaN, infinities and ints past int64 raise, 1.5 truncates
        out = a.astype(object).astype(np.int64)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or a.dtype.kind not in "fuO" or not (out == a).all():
        raise ValueError(f"{what} must hold integers within int64")
    return out


def _compact(x, what: str, dtype: type) -> np.ndarray:
    """``x`` as an integer array in ``dtype`` (int32 ids, int8 signs) when every
    entry fits it, else int64: entries already in ``dtype`` or int64 are kept as
    they are (no copy, no scan), anything else goes through ``_int64`` and then
    ``_narrow``, so no entry wraps. int64 is kept because narrowing it would
    copy an array its caller still holds."""
    a = np.asarray(x)
    return a if a.dtype in (dtype, np.int64) else _narrow(_int64(a, what), dtype)


def _narrow(a: np.ndarray, dtype: type) -> np.ndarray:
    """int64 ``a`` cast to ``dtype`` when every entry fits it, else ``a`` itself."""
    info = np.iinfo(dtype)
    if a.size and not (info.min <= a.min() and a.max() <= info.max):
        return a
    return a.astype(dtype)


def _ids_dtype(n: int) -> type:
    """int32 when every id below ``n`` fits it, else int64."""
    return np.int32 if n <= 2**31 else np.int64


def _signs(x, message: str, length: int | None = None, dtype: type = np.int64) -> np.ndarray:
    """``x`` as +1 and -1 entries, checked as given, so 1.5 is not truncated to 1, and
    1-D of ``length`` when that is given; ``ValueError(message)`` otherwise. Entries
    already in ``dtype`` or int64 are kept as they are, others are cast to ``dtype``."""
    a = np.asarray(x)
    if (length is not None and a.shape != (length,)) or not ((a == 1) | (a == -1)).all():
        raise ValueError(message)
    return a if a.dtype in (dtype, np.int64) else a.astype(dtype)


def _check_int(value, name: str, low: int) -> int:
    """``value`` as a Python int when it is an integer >= ``low``, a Python or
    numpy int of any size but not a bool; else ``ValueError`` naming ``name``.
    Every seed, size and count is checked here: a seed of ``None`` would draw
    fresh entropy in ``SeedSequence``, and a size of 10.0 or 2.5 fails only
    inside numpy or in a file reader. The int lets a size product past int64
    be compared exactly."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_real(value, name: str, rule: str, ok) -> float:
    """``value`` as a float when it is a Python or numpy real, not a bool,
    whose float ``ok`` accepts; else ``ValueError`` saying ``name`` must
    ``rule``. The real twin of ``_check_int``: every real-valued argument is
    checked here, so ``True`` is not 1.0, ``"0.5"`` or ``None`` fails as a
    bad value and an int past the float range fails too."""
    try:
        real = None if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:
        real = None
    if real is None or not ok(real):
        raise ValueError(f"{name} must {rule}, got {value!r}")
    return real


def _check_delta(delta) -> float:
    """The block models' delta: a real in [0, 2] other than 1."""
    return _check_real(delta, "delta", "lie in [0, 2] and differ from 1", lambda d: 0.0 <= d <= 2.0 and d != 1.0)


def _predicate_table(table, k: int | None = None) -> tuple[np.ndarray, int]:
    """``(table, k)``: a +/-1 table of 2^k entries, k >= 1, as int64, and k,
    read from the length when not given. Raises ``ValueError`` otherwise."""
    t = np.asarray(table)
    width = len(t).bit_length() - 1 if t.ndim == 1 else 0
    message = "predicate must be a +/-1 table of length 2^k with k >= 1" + ("" if k is None else f", for k = {k}")
    if width < 1 or len(t) != 2**width or k not in (None, width):
        raise ValueError(message)
    return _signs(t, message), width


def _sigma(sigma, n: int) -> np.ndarray | None:
    """A planted assignment as int64 +/-1 entries, one per variable, or None."""
    return None if sigma is None else _signs(sigma, "sigma must have length n, with +1/-1 entries", n)


def _is_number(x, integer: bool = False) -> bool:
    """True for a finite real number, or with ``integer`` for an int that
    fits int64; a bool is neither."""
    kind, bound = (numbers.Integral, _INT64_MAX) if integer else (numbers.Real, sys.float_info.max)
    return isinstance(x, kind) and not isinstance(x, bool) and abs(x) <= bound


def _number_list(value, integer: bool = False) -> bool:
    """True for a list or tuple whose entries all pass ``_is_number``: the
    check for number tables read from JSON or TOML, where ``true``, ``null``
    and ``"1"`` are not numbers and ``1.5`` is not an integer."""
    return isinstance(value, (list, tuple)) and all(_is_number(x, integer) for x in value)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True at the first entry of every run of equal values."""
    starts = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, which is sorted in place."""
    a.sort()
    return a[_run_starts(a)]


def _pack(a: np.ndarray, a_size: int, b: np.ndarray, b_size: int):
    """``(key, size, unpack)``: keys ``a * b_size + b`` that sort as the pairs (a, b)
    do, their exclusive bound and their decoder to (len, 2) pairs in ``_ids_dtype``
    of the larger size as given, so a ranked id past int32 decodes to int64. Where
    the keys could pass int64, ``a`` and then, if still needed, ``b`` are ranked
    first; the keys take ``_key_dtype`` of the sizes after that."""
    a_values = b_values = None
    pairs_dtype = _ids_dtype(max(a_size, b_size))
    if a_size * b_size > _INT64_MAX:
        a_values, a = np.unique(a, return_inverse=True)
        a_size = len(a_values)
        if max(a_size, 1) * b_size > _INT64_MAX:  # with no ids at all, b_size must fit alone
            b_values, b = np.unique(b, return_inverse=True)
            b_size = len(b_values)

    def unpack(key: np.ndarray) -> np.ndarray:
        pairs = _unpack(key, b_size, pairs_dtype)
        for j, values in enumerate((a_values, b_values)):
            if values is not None:
                pairs[:, j] = values[pairs[:, j]]
        return pairs

    dtype = _key_dtype(a_size, b_size)
    # the ids are below the sizes, so the casts into the key dtype are exact
    key = np.multiply(a, b_size, dtype=dtype, casting="unsafe")
    np.add(key, b, out=key, dtype=dtype, casting="unsafe")
    return key, a_size * b_size, unpack


def _unpack(key: np.ndarray, b_size: int, dtype: type) -> np.ndarray:
    """The (len, 2) pairs (a, b) of the keys ``a * b_size + b``, in ``dtype``,
    which holds every a and b. One floor divide and a multiply-subtract in the
    keys' own dtype, where a * b_size <= key cannot wrap: faster than divmod."""
    pairs = np.empty((len(key), 2), dtype=dtype)
    a = key // b_size
    pairs[:, 0] = a
    a *= b_size
    np.subtract(key, a, out=pairs[:, 1], casting="unsafe")
    return pairs


def _key_dtype(*sizes: int) -> type:
    """uint32 when every key packed in mixed radix from ids below ``sizes`` fits
    in 32 bits, and so does every radix: each size is below 2^32 and their product
    at most 2^32. Else int64; decided in Python ints, for every packed key."""
    return np.uint32 if math.prod(sizes) <= 2**32 and max(sizes) < 2**32 else np.int64


@dataclass(frozen=True)
class BipartiteGraph:
    """Sparse bipartite graph: ``edges`` is an (m, 2) array of 0-based
    (left, right) pairs with no duplicates.

    ``edges`` is int32 when every id fits, int64 otherwise; int32 or int64
    arrays are kept as given, without a copy (``_compact``). The samplers,
    the reduction and the file reader give int32 edges, 8 bytes per edge,
    whenever n1 and n2 (for the reduction, 2n and the tuples it found) are
    at most 2^31."""

    n1: int
    n2: int
    edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n1", _check_int(self.n1, "n1", 1))
        object.__setattr__(self, "n2", _check_int(self.n2, "n2", 1))
        e = _compact(self.edges, "edges", np.int32).reshape(-1, 2)
        object.__setattr__(self, "edges", e)
        # one contiguous min covers both lower bounds; the columns are
        # looked at apart only to name the bad one
        if len(e) > 0 and (e.min() < 0 or e[:, 0].max() >= self.n1 or e[:, 1].max() >= self.n2):
            left = e[:, 0]
            if left.min() < 0 or left.max() >= self.n1:
                raise ValueError("left endpoint out of range")
            raise ValueError("right endpoint out of range")

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class HiddenPartition:
    """Ground-truth sign labels for the two vertex sets.

    The +/-1 labels are int8, as the block sampler draws them: ``v`` has n2
    entries, about as many as the edges when n2 >> n1. int8 or int64 arrays
    are kept as given, without a copy; other inputs are cast to int8."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _signs(self.u, "u entries must be +/-1", dtype=np.int8))
        object.__setattr__(self, "v", _signs(self.v, "v entries must be +/-1", dtype=np.int8))


@dataclass(frozen=True)
class BlockModelParams:
    n1: int
    n2: int
    delta: float
    p: float
    seed: int

    def validate(self, require_even: bool = True):
        _check_delta(self.delta)
        _check_real(self.p, "p", "be finite and nonnegative", lambda p: 0.0 <= p < math.inf)
        if self.delta * self.p > 1.0 or (2.0 - self.delta) * self.p > 1.0:
            raise ValueError("delta*p and (2-delta)*p must be probabilities")
        if _check_int(self.n1, "n1", 1) * _check_int(self.n2, "n2", 1) > _INT64_MAX:
            raise ValueError("n1 * n2 must not exceed the int64 maximum")
        if require_even and (self.n1 % 2 or self.n2 % 2):
            raise ValueError("n1 and n2 must be even to draw a balanced partition")
        _check_int(self.seed, "seed", 0)


@dataclass(frozen=True)
class PlantingDistribution:
    """Unnormalized weight table over literal-value patterns z in {+/-1}^k.

    Index encoding: bit i of the table index is 1 iff z_i = +1, so
    ``weights[0]`` is the all-false pattern and ``weights[2**k - 1]`` the
    all-true one. Weights may be any nonnegative reals; operations normalize.
    """

    k: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _check_int(self.k, "k", 1))
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (2**self.k,):
            raise ValueError(f"weights must have length 2^k = {2**self.k}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if w.sum() <= 0:
            raise ValueError("weight table must not be identically zero")
        object.__setattr__(self, "weights", w)

    def normalized(self) -> np.ndarray:
        return self.weights / self.weights.sum()


@dataclass(frozen=True)
class PlantedCspInstance:
    """m ordered k-clauses of literals over n variables.

    ``clause_vars[c, j]`` is the 0-based variable of the j-th literal of
    clause c and ``clause_signs[c, j]`` its sign (+1 positive, -1 negated).
    Variables never repeat within a clause. ``sigma`` is the planted
    assignment when known, int64.

    ``clause_vars`` is int32 and ``clause_signs`` int8 when every entry fits,
    int64 otherwise; int64 or compact arrays are kept as given, without a
    copy (``_compact``). The samplers and the file reader give compact
    arrays, 5k bytes per clause.
    """

    n: int
    sigma: np.ndarray | None
    clause_vars: np.ndarray
    clause_signs: np.ndarray

    def __post_init__(self):
        cv = _compact(self.clause_vars, "clause_vars", np.int32)
        cs = _compact(self.clause_signs, "clause_signs", np.int8)
        if cv.ndim != 2 or cv.shape != cs.shape:
            raise ValueError("clause_vars and clause_signs must be (m, k) arrays")
        object.__setattr__(self, "clause_vars", cv)
        object.__setattr__(self, "clause_signs", cs)
        object.__setattr__(self, "n", _check_int(self.n, "n", 1))
        object.__setattr__(self, "sigma", _sigma(self.sigma, self.n))

    @property
    def m(self) -> int:
        return self.clause_vars.shape[0]

    @property
    def k(self) -> int:
        return self.clause_vars.shape[1]


@dataclass(frozen=True)
class GoldreichInstance:
    """m predicate constraints: ordered tuples of distinct variables plus the
    predicate's observed value on the planted assignment.

    ``tuple_vars`` is int32 when every id fits, int64 otherwise, and the
    +/-1 ``values`` int8; int64 or compact arrays are kept as given, without
    a copy. The ``predicate`` table and ``sigma`` are int64."""

    n: int
    predicate: np.ndarray
    sigma: np.ndarray | None
    tuple_vars: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        tv = _compact(self.tuple_vars, "tuple_vars", np.int32)
        if tv.ndim != 2:
            raise ValueError("tuple_vars must be an (m, k) array")
        object.__setattr__(self, "tuple_vars", tv)
        values = _signs(self.values, "values must hold one +1 or -1 per tuple", len(tv), np.int8)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "predicate", _predicate_table(self.predicate, tv.shape[1])[0])
        object.__setattr__(self, "n", _check_int(self.n, "n", 1))
        object.__setattr__(self, "sigma", _sigma(self.sigma, self.n))

    @property
    def m(self) -> int:
        return self.tuple_vars.shape[0]

    @property
    def k(self) -> int:
        return self.tuple_vars.shape[1]


# ---------------------------------------------------------------------------
# Weight-table and predicate constructors
# ---------------------------------------------------------------------------


def uniform_weights(k: int) -> PlantingDistribution:
    """Flat table: the uninformative planting law."""
    k = _check_int(k, "k", 1)
    return PlantingDistribution(k, np.ones(2**k))


def noisy_xor_weights(k: int, eta: float) -> PlantingDistribution:
    """Parity-tilted table w(z) = 1 + eta * prod(z); induced bias is 1 + eta."""
    k = _check_int(k, "k", 1)
    _check_real(eta, "eta", "lie in [-1, 1]", lambda e: -1.0 <= e <= 1.0)
    z = _pattern_table(k)
    return PlantingDistribution(k, 1.0 + eta * z.prod(axis=1))


def sat_clause_weights(k: int) -> PlantingDistribution:
    """Uniform over the 2^k - 1 patterns with at least one true literal."""
    k = _check_int(k, "k", 1)
    w = np.ones(2**k)
    w[0] = 0.0  # index 0 is the all-false pattern
    return PlantingDistribution(k, w)


def parity_predicate(k: int) -> np.ndarray:
    return _pattern_table(_check_int(k, "k", 1)).prod(axis=1)


def majority_predicate(k: int) -> np.ndarray:
    if _check_int(k, "k", 1) % 2 == 0:
        raise ValueError("majority needs odd k")
    return np.where(_pattern_table(k).sum(axis=1) > 0, 1, -1).astype(np.int64)


def constant_predicate(k: int, value: int = 1) -> np.ndarray:
    if isinstance(value, bool) or value not in (-1, 1):  # True == 1, but is no sign
        raise ValueError("value must be +/-1")
    return np.full(2 ** _check_int(k, "k", 1), value, dtype=np.int64)


def _pattern_table(k: int) -> np.ndarray:
    """(2^k, k) array of +/-1 patterns; row index uses the bit encoding."""
    idx = np.arange(2**k)[:, None]
    return np.where((idx >> np.arange(k)) & 1, 1, -1).astype(np.int64)


def pattern_index(z: np.ndarray) -> np.ndarray:
    """Table index of each +/-1 row of z (bit i set iff z_i = +1)."""
    return _bit_index(np.asarray(z) > 0).astype(np.int64)[()]


def _bit_index(bits: np.ndarray) -> np.ndarray:
    """sum_j bits[..., j] << j over the last axis of a bool array, in the
    narrowest unsigned dtype that holds k bits (uint8 for k <= 8); built by
    OR-ing one byte column at a time."""
    k = bits.shape[-1]
    columns = bits.view(np.uint8)
    idx = np.zeros(bits.shape[:-1], dtype=np.min_scalar_type((1 << k) - 1))
    for j in range(k):
        idx |= np.left_shift(columns[..., j], j, dtype=idx.dtype)
    return idx


# ---------------------------------------------------------------------------
# Bipartite block model
# ---------------------------------------------------------------------------


def _geometric_gaps(prob: float, size: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """``np.minimum(rng.geometric(prob, size), cap)``: the same int64 values,
    and the generator left in the same state.

    For ``prob < 1/3`` numpy's geometric is ``ceil(-E / log1p(-prob))`` with E
    one ziggurat ``standard_exponential`` per draw, so the exponentials are
    drawn whole and the division, the cap and the ceiling run in float64;
    the ceiling of the capped value equals the capped ceiling because the cap
    is an integer. At ``prob >= 1/3`` numpy searches the CDF with one uniform
    per draw, and past ``cap = 2^53`` the float cap is not exact: both keep
    numpy's own draw."""
    if prob >= 1.0 / 3.0 or cap > 2**53:
        gaps = rng.geometric(prob, size=size)
        return np.minimum(gaps, cap, out=gaps)
    gaps = rng.standard_exponential(size)
    # at a denormal prob the quotient overflows to inf, which the cap absorbs
    with np.errstate(over="ignore"):
        gaps /= -math.log1p(-prob)
    np.minimum(gaps, cap, out=gaps)
    np.ceil(gaps, out=gaps)
    # cast in place: the overlap is exact, so each float is read before its
    # slot is rewritten
    hits = gaps.view(np.int64)
    np.copyto(hits, gaps, casting="unsafe")
    return hits


def _bernoulli_indices(length: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of successes of independent Bernoulli(prob) trials over
    range(length), by geometric gap skipping: expected O(length * prob) work."""
    if length <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(length, dtype=np.int64)
    chunks = []
    pos = 0
    while pos < length:
        mean = (length - pos) * prob
        n_draw = max(16, int(mean * 1.1 + 6.0 * math.sqrt(mean + 1.0)))
        # any gap past length lands outside just the same, and the cap keeps
        # the cumsum from wrapping
        hits = _geometric_gaps(prob, n_draw, length + 1, rng)
        np.cumsum(hits, out=hits)
        hits += pos - 1
        # gaps are at least 1, so the hits strictly increase
        inside = hits[: np.searchsorted(hits, length)]
        chunks.append(inside)
        if len(inside) < len(hits):
            break
        pos = int(hits[-1]) + 1
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _balanced_signs(n: int, rng: np.random.Generator) -> np.ndarray:
    """n/2 of each sign in uniformly random order, as int8: numpy's shuffle
    draws the same swaps whatever the item size."""
    return rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), n // 2))


def _pack_block(rows: np.ndarray, cols: np.ndarray, flat: np.ndarray, n2: int, out: np.ndarray):
    """Write the keys ``rows[i] * n2 + cols[j]`` of a block's flat pair
    indices ``i * len(cols) + j`` into ``out``, in its dtype, overwriting
    ``flat``. floor_divide by a scalar is far cheaper than divmod, and the
    indices are in range, so take may clip instead of checking them."""
    if len(flat) == 0:
        return
    r = np.floor_divide(flat, len(cols))
    np.take(np.multiply(rows, n2, dtype=out.dtype, casting="unsafe"), r, out=out, mode="clip")
    r *= len(cols)
    flat -= r  # now the column index
    # the columns are gathered into r's bytes, which hold a block of out's dtype
    out += np.take(cols.astype(out.dtype, copy=False), flat, out=r.view(out.dtype)[: len(r)], mode="clip")


def sample_bipartite_block(
    params: BlockModelParams,
    partition: HiddenPartition | None = None,
) -> tuple[BipartiteGraph, HiddenPartition]:
    """Draw a bipartite block-model graph.

    Each pair (i, j) appears independently: with probability delta*p when
    u_i = v_j and (2-delta)*p otherwise. When no partition is given a
    uniformly random balanced one is drawn first (n1, n2 must be even).

    Seed substreams, in order: 0 = partition, 1 = edges.
    """
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

    # Group rows/columns by label so each of the four probability blocks is a
    # contiguous grid; sample each block as a flat Bernoulli process, then
    # pack its edges into the row-major keys row * n2 + col (validate keeps
    # n1 * n2 within int64) in one preallocated buffer of _key_dtype's width.
    rng = np.random.default_rng(edge_ss)
    n2 = params.n2
    left = [np.flatnonzero(partition.u == 1), np.flatnonzero(partition.u == -1)]
    right = [np.flatnonzero(partition.v == 1), np.flatnonzero(partition.v == -1)]
    p_same, p_cross = params.delta * params.p, (2.0 - params.delta) * params.p
    blocks = [
        (rows, cols, _bernoulli_indices(len(rows) * len(cols), p_same if li == ri else p_cross, rng))
        for li, rows in enumerate(left)
        for ri, cols in enumerate(right)
    ]
    key = np.empty(sum(len(flat) for *_, flat in blocks), dtype=_key_dtype(params.n1, n2))
    end = 0
    while blocks:  # popped, so each block's gaps are freed once packed
        start, end = end, end + len(blocks[0][2])
        _pack_block(*blocks.pop(0), n2, key[start:end])
    # Each block is already in row-major order (flatnonzero gives ascending
    # rows and columns), so a stable sort of the distinct keys only merges
    # four sorted runs.
    key.sort(kind="stable")
    return BipartiteGraph(params.n1, n2, _unpack(key, n2, _ids_dtype(max(params.n1, n2)))), partition


# ---------------------------------------------------------------------------
# Planted CSP and predicate constraints
# ---------------------------------------------------------------------------


_CHUNK_ROWS = 1 << 15  # rows per cache-sized block: the samplers' proposals, the reduction's encoding
_CRAMPED_KEY_BYTES = 1 << 24  # bytes of float64 keys at most per chunk of the cramped proposals


def _cramped(n: int, k: int) -> bool:
    """True when k-tuples over n variables are proposed by permutation, not i.i.d. draws."""
    return n < 4 * k * k


def _proposals(n: int, k: int, rng: np.random.Generator):
    """Endless chunks of proposed ordered k-tuples of variables, uniform once
    the rows with a repeat (``_distinct_rows``) are dropped, read from ``rng``
    in order: the chunks are the rows of one whole draw, whatever their size.

    For n well above k the rows are i.i.d. draws, filtered for repeats by the
    caller; for cramped n every row is made distinct by taking the first k
    entries of a per-row argsort of random keys. The first chunk has 256
    rows and each next one twice as many, up to ``_CHUNK_ROWS`` rows, and
    for cramped n up to the rows whose keys fit ``_CRAMPED_KEY_BYTES``, so
    a small instance does not pay for a whole chunk. Proposals are int32
    when n <= 2^31 (``_ids_dtype``), the samplers' output dtype: numpy draws
    a range that fits 32 bits from the generator's own 32-bit stream
    whatever the output dtype, and ``rng.random`` fills rows in C order."""
    dtype, cramped = _ids_dtype(n), _cramped(n, k)
    most = min(_CHUNK_ROWS, max(1, _CRAMPED_KEY_BYTES // (8 * n))) if cramped else _CHUNK_ROWS
    rows = 256
    while True:
        rows = min(rows, most)
        if cramped:
            yield np.argsort(rng.random((rows, n)), axis=1, kind="stable")[:, :k].astype(dtype)
        else:
            yield rng.integers(0, n, size=(rows, k), dtype=dtype)
        rows *= 2


def _distinct_rows(cand: np.ndarray) -> np.ndarray:
    """Mask of the rows of `cand` with no repeated entry, from k(k-1)/2
    whole-column compares."""
    valid = np.ones(len(cand), dtype=bool)
    for a in range(cand.shape[1]):
        for b in range(a + 1, cand.shape[1]):
            valid &= cand[:, a] != cand[:, b]
    return valid


def _keep_first(mask: np.ndarray, need: int) -> int:
    """Clear every True of ``mask`` after its first ``need``; return how many
    stay."""
    hits = int(np.count_nonzero(mask))
    if hits <= need:
        return hits
    mask[np.flatnonzero(mask)[need]:] = False
    return need


def sample_planted_csp(
    q_dist: PlantingDistribution, n: int, m: int, seed: int
) -> PlantedCspInstance:
    """Draw a planted CSP: sigma uniform on {+/-1}^n, then m clauses i.i.d.
    with probability proportional to the weight of the literal-value pattern
    sigma induces on the clause.

    Rejection sampling: propose a uniform ordered distinct k-tuple with
    uniform signs, accept with probability w(pattern) / max(w). The proposal
    is uniform over all clauses, so accepted clauses follow the target law
    exactly.

    Seed substreams: 0 = sigma, 1 = tuples, 2 = signs, 3 = uniforms. Each
    is read in order, so proposal i takes the i-th tuple, the i-th k signs
    and the i-th uniform, however the proposals are chunked. The sampler
    walks the ``_proposals`` chunks until m clauses are accepted.
    """
    k = q_dist.k
    n, m = _check_int(n, "n", k), _check_int(m, "m", 0)
    _check_int(seed, "seed", 0)
    w = q_dist.weights
    wmax = float(w.max())
    sig_ss, tuple_ss, sign_ss, uniform_ss = np.random.SeedSequence(seed).spawn(4)
    sigma = np.random.default_rng(sig_ss).integers(0, 2, size=n) * 2 - 1
    proposals = _proposals(n, k, np.random.default_rng(tuple_ss))
    sign_rng, uniform_rng = np.random.default_rng(sign_ss), np.random.default_rng(uniform_ss)

    bit = (sigma > 0).astype(np.int8)
    out_vars = np.empty((m, k), dtype=_ids_dtype(n))
    out_signs = np.empty((m, k), dtype=np.int8)
    got = 0
    while got < m:
        c = next(proposals)
        # int32: an int8 draw splits 32-bit words within one call and drops
        # the rest, so its stream would depend on the chunk size
        s = sign_rng.integers(0, 2, size=c.shape, dtype=np.int32)  # 1 = positive
        draw = uniform_rng.random(len(c))
        draw *= wmax
        # the literal sigma_v * (2 * sign - 1) is true iff bit(sigma_v) == sign;
        # the ids are in range, and take skips the index conversion and
        # bounds check of fancy indexing
        idx = _bit_index(np.take(bit, c, mode="clip") == s)
        accept = draw < w[idx]
        accept &= _distinct_rows(c)
        kept = _keep_first(accept, m - got)
        out_vars[got : got + kept] = c.compress(accept, axis=0)
        out = out_signs[got : got + kept]
        np.multiply(s.compress(accept, axis=0), 2, out=out)
        out -= 1
        got += kept
    return PlantedCspInstance(n, sigma, out_vars, out_signs)


def sample_goldreich(
    predicate: np.ndarray, n: int, m: int, seed: int
) -> GoldreichInstance:
    """Draw m uniform ordered distinct k-tuples and record the predicate's
    value on the planted assignment at each tuple.

    Seed substreams: 0 = sigma, 1 = tuples. The tuples are the first m
    distinct ``_proposals`` rows, so they do not depend on the chunking.
    """
    table, k = _predicate_table(predicate)
    n, m = _check_int(n, "n", k), _check_int(m, "m", 0)
    _check_int(seed, "seed", 0)
    sig_ss, tup_ss = np.random.SeedSequence(seed).spawn(2)
    sigma = np.random.default_rng(sig_ss).integers(0, 2, size=n) * 2 - 1
    proposals = _proposals(n, k, np.random.default_rng(tup_ss))

    out = np.empty((m, k), dtype=_ids_dtype(n))
    got = 0
    while got < m:
        c = next(proposals)
        valid = _distinct_rows(c)
        kept = _keep_first(valid, m - got)
        out[got : got + kept] = c.compress(valid, axis=0)
        got += kept
    values = table.astype(np.int8)[_bit_index((sigma > 0)[out])]
    return GoldreichInstance(n, table, sigma, out, values)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def overlap(signs: np.ndarray, truth: np.ndarray) -> float:
    """|signs . truth| / n: 1.0 iff the vectors agree up to a global flip."""
    signs = np.asarray(signs, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if signs.shape != truth.shape:
        raise ValueError("length mismatch")
    return float(abs(signs @ truth) / len(truth))
