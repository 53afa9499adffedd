"""JSON-lines instance files and result serialization.

One JSON object per line: a typed header record first, then optional truth
records, then one record per edge / clause / constraint. Dict key order is
fixed so identical inputs serialize byte-identically.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .instances import (
    BipartiteGraph,
    GoldreichInstance,
    HiddenPartition,
    PlantedCspInstance,
    PlantingDistribution,
    _check_delta,
    _check_int,
    _check_real,
    _ids_dtype,
    _is_number,
    _narrow,
    _number_list,
    _pack,
    _predicate_table,
    _run_starts,
)
from .reduction import ReducedInstance

__all__ = [
    "SbmFile",
    "CspFile",
    "GoldreichFile",
    "write_sbm",
    "read_sbm",
    "read_constraints",
    "write_csp",
    "read_csp",
    "write_goldreich",
    "read_goldreich",
    "write_reduced",
]


def _dumps(obj) -> str:
    """``obj`` as compact JSON. A numpy scalar, such as a seed or size the
    integer rule accepts, is written as the Python value it holds; any other
    object json cannot write raises ``TypeError`` from ``np.generic.item``."""
    return json.dumps(obj, separators=(",", ":"), default=np.generic.item)


def _write_lines(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_dumps(rec))
            fh.write("\n")


def _open_text(path):
    """``path`` opened for reading as UTF-8 text, with each byte that is not
    UTF-8 kept as a lone surrogate for ``_utf8`` to report with its line."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _utf8(line: str, where: str) -> str:
    """``line``, read by ``_open_text``. Raises ``ValueError`` naming the
    line for one that holds a byte that is not UTF-8."""
    if not line.isascii():
        try:
            line.encode(errors="surrogateescape").decode()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{where}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    return line


def _loads(line: str, where: str) -> dict:
    """The JSON object on a line. Raises ``ValueError`` naming the line for
    one that is not UTF-8 or not a JSON object."""
    try:
        rec = json.loads(_utf8(line, where))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{where}: not a JSON object")
    return rec


def _records(path):
    """(position, record) for each non-empty line. Raises ``ValueError``
    naming the line for one that is not UTF-8 or not a JSON object."""
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                where = f"{path}, line {lineno}"
                yield where, _loads(line, where)


def _int_row(value, k: int, name: str, where: str) -> list:
    """A clause record's list of k JSON integers that fit int64, checked as
    ``read_sbm`` checks edge ids: ``true`` or ``1.0`` is not an integer."""
    if not (isinstance(value, list) and len(value) == k and all(_is_number(x, integer=True) for x in value)):
        ints = isinstance(value, list) and len(value) == k and all(type(x) is int for x in value)
        what = "integers within int64" if ints else f"a list of {k} integers"
        raise ValueError(f"{where}: {name} must be {what}, got {json.dumps(value)}")
    return value


def _check_sizes(header: dict, names: tuple, where: str):
    """Raises ``ValueError`` naming the header's line unless each of its
    ``names`` is a positive integer."""
    if not all(type(header.get(n)) is int and header[n] >= 1 for n in names):
        raise ValueError(f"{where}: {' and '.join(names)} must be positive integers")


def _check_seed(seed) -> int:
    return _check_int(seed, "seed", 0)


def _check_p(p) -> float:
    """A block-model file's density; NaN fails."""
    return _check_real(p, "p", "be a number in [0, 1]", lambda x: 0.0 <= x <= 1.0)


def _check_n1(n1: int) -> int:
    """A block-model file's n1, an int, must be below 2^63. n2 may pass
    int64: a reduced file's n2 = comb(2n, r-1) does at witness size 8."""
    if n1 > np.iinfo(np.int64).max:
        raise ValueError(f"n1 must be below 2^63, got {n1}")
    return n1


def _check_header(header: dict, name: str, check, where: str):
    """Applies ``check``, a rule whose ``ValueError`` reads "<name> must
    <rule>, got <value>", to the header's ``name`` when it is present. Raises
    the rule's error naming the header's line, with the value as the file
    spells it (``true``, ``"x"``, ``null``)."""
    if name in header:
        try:
            check(header[name])
        except ValueError as exc:
            rule = str(exc).partition(", got ")[0]
            raise ValueError(f"{where}: {rule}, got {json.dumps(header[name])}") from None


@dataclass
class SbmFile:
    graph: BipartiteGraph
    header: dict
    truth: HiddenPartition | None
    reduced_meta: dict | None  # sidecar record for CSP-reduced graphs


@dataclass
class CspFile:
    instance: PlantedCspInstance
    weights: PlantingDistribution
    header: dict


@dataclass
class GoldreichFile:
    instance: GoldreichInstance
    header: dict


# ---------------------------------------------------------------------------
# SBM files
# ---------------------------------------------------------------------------


# Edges formatted per byte buffer by write_sbm (about 1 MB of text).
_WRITE_CHUNK = 1 << 16
# Characters read_sbm reads per block, before it completes the block's last
# line: small enough that a block's text and byte masks stay in L2 cache.
_READ_BLOCK = 1 << 18

# An edge line exactly as write_sbm writes it, {"i":<i>,"j":<j>}\n, with its
# digits deleted. read_sbm parses the lines whose ids have at most 18 digits,
# which fit int64, in bulk, and sends longer ids and every other line through
# json.
_EDGE_LINE = b'{"i":,"j":}\n'
_MAX_BULK_DIGITS = 18
# _EDGE_LINE as the two little-endian words that start at its bytes 0 and 4.
_EDGE_WORDS = tuple(int.from_bytes(_EDGE_LINE[at : at + 8], "little") for at in (0, 4))
# _TOP[d] keeps the top d bytes of a little-endian word, 0 <= d <= 8.
_TOP = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * d) - 1) for d in range(9)], dtype=np.uint64)
# 10, 100, ..., 10^18: an id v >= 0 has 1 + (number of these <= v) digits.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


def _sbm_head(header, truth_u=None, truth_v=None, reduced_meta=None):
    yield header
    if reduced_meta is not None:
        yield {"meta": "reduced", **reduced_meta}
    if truth_u is not None:
        rec = {"truth_u": [int(x) for x in truth_u]}
        if truth_v is not None:
            rec["truth_v"] = [int(x) for x in truth_v]
        yield rec


def write_sbm(
    path,
    graph: BipartiteGraph,
    delta: float,
    p: float,
    seed: int,
    truth: HiddenPartition | None = None,
    include_truth_v: bool = True,
    reduced_meta: dict | None = None,
):
    # the header rules read_sbm applies
    _check_n1(graph.n1)
    _check_delta(delta)
    _check_p(p)
    _check_seed(seed)
    header = {
        "type": "sbm",
        "n1": graph.n1,
        "n2": graph.n2,
        "delta": delta,
        "p": p,
        "seed": seed,
    }
    tu = truth.u if truth is not None else None
    # read_sbm takes 0 or n2 right labels: a reduced truth labels only the tuples that occur
    tv = truth.v if truth is not None and include_truth_v and len(truth.v) == graph.n2 else None
    with open(path, "wb") as fh:
        for rec in _sbm_head(header, tu, tv, reduced_meta):
            fh.write(_dumps(rec).encode() + b"\n")
        edges = graph.edges
        for s in range(0, len(edges), _WRITE_CHUNK):
            fh.write(_edge_lines(edges[s : s + _WRITE_CHUNK]))


def _edge_lines(edges: np.ndarray) -> np.ndarray:
    """The canonical lines of a nonempty (k, 2) array of nonnegative ids, as
    one uint8 buffer."""
    digits = np.searchsorted(_POW10, edges, side="right") + 1
    template = np.frombuffer(_EDGE_LINE, dtype=np.uint8)
    width = int(digits.max())
    # row c holds byte c of every line, each line padded to the widest id as
    # {"i":<width>,"j":<width>}\n with both ids right-aligned; the rows are
    # transposed back into lines, without the padding, at the end
    text = np.empty((2 * width + 12, len(edges)), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    for side in range(2):
        at = side * (width + 5)
        text[at : at + 5] = template[5 * side : 5 * side + 5, None]
        values = edges[:, side]
        for k in range(width):  # from the last digit backwards
            quot = values // 10
            text[at + 4 + width - k] = values - quot * 10 + 48
            keep[at + 4 + width - k] = digits[:, side] > k
            values = quot
    text[-2:] = template[10:, None]
    return text.T[keep.T]


def write_reduced(path, reduced: ReducedInstance, seed: int):
    """Reduced instances serialize as ordinary SBM files plus a sidecar
    record, so the solve command consumes either kind identically. The header
    density is the realized edges/(n1*n2) (the solver's centering constant);
    the sidecar keeps the constraint-count density, and the witness bias as
    computed, for reference."""
    g = reduced.graph
    p_realized = g.num_edges / (g.n1 * g.n2)
    meta = {
        "delta": reduced.delta,
        "p_equiv": reduced.p_equiv,
        "n2_nominal": reduced.n2_nominal,
        "indexer_size": len(reduced.indexer),
    }
    write_sbm(
        path,
        g,
        # a witness bias lies in [0, 2] but can round past it: 1 - 1.0000000000000002 < 0
        delta=min(max(reduced.delta, 0.0), 2.0),
        p=p_realized,
        seed=seed,
        truth=reduced.truth,
        reduced_meta=meta,
    )


def _labels(value, sizes, name: str, where: str) -> list:
    """A truth record's label list, checked: +/-1 integers, length in sizes."""
    if not isinstance(value, list) or not all(type(x) is int and abs(x) == 1 for x in value):
        raise ValueError(f"{where}: {name} must be a list of +1/-1 integers")
    if len(value) not in sizes:
        raise ValueError(f"{where}: {name} has {len(value)} labels, expected {' or '.join(map(str, sizes))}")
    return value


def _first_repeat(edges: np.ndarray, n1: int, n2: int) -> int | None:
    """File index of the first edge equal to an earlier one, or None. Keys
    that strictly increase, as in every file write_sbm writes, need no sort."""
    key = _pack(edges[:, 0], n1, edges[:, 1], n2)[0]  # sorts as the edges do in row-major order
    if (key[1:] > key[:-1]).all() or _run_starts(np.sort(key)).all():
        return None
    order = np.argsort(key, kind="stable")
    return int(order[~_run_starts(key[order])].min())


def _words(data) -> np.ndarray:
    """The little-endian uint64 that starts at each byte of ``data`` with 8
    bytes to go, as an unaligned read-only view."""
    return np.ndarray((max(len(data) - 7, 0),), dtype="<u8", buffer=data, strides=(1,))


def _eight_digits(word: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """``word``, little-endian uint64 of decimal text, turned in place into the
    value of the top min(``digits``, 8) bytes of each, the top byte the least
    significant digit: the SWAR parse of Langdale and Lemire, "Parsing
    gigabytes of JSON per second", on the word masked to those bytes."""
    word ^= 0x3030303030303030  # '0'..'9' to 0..9
    word &= _TOP[np.minimum(digits, 8)]
    word *= 10 * 2**8 + 1  # byte pairs into 2-digit values
    word >>= 8
    word &= 0x00FF00FF00FF00FF
    word *= 100 * 2**16 + 1  # then 4-digit values
    word >>= 16
    word &= 0x0000FFFF0000FFFF
    word *= 10**4 * 2**32 + 1  # then the 8-digit value
    word >>= 32
    return word


def _canonical_edges(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line breaks of ``buf``, uint8 bytes of whole lines that each end in
    one, and its canonical edge lines: their indices among its lines, in
    order, and their (k, 2) int64 ids. A line is canonical when it is exactly
    ``{"i":<i>,"j":<j>}`` with ids of 1 to 18 digits and no leading zero.

    With its digits deleted a canonical line is ``_EDGE_LINE``; that, a colon
    4 bytes past the line's start and past its one comma, and a ``}`` just
    before its break leave digits only in the two id slots. Their lengths
    follow from the start, the comma and the break, and each id is read from
    the 8-byte words that end at its last digit. The arrays are
    position-major: row 0 of a (2, k) array is about i, row 1 about j."""
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends + 1))[:-1]
    # 7 bytes in front, so that each id has 8 bytes that end at its last
    # digit; the pad is digits, which the skeleton drops
    text = b"0000000" + buf.data
    skeleton = text.translate(None, b"0123456789")
    if skeleton == _EDGE_LINE * len(ends):  # every line a candidate
        lines, start, end = np.arange(len(ends)), starts, ends
        comma = np.flatnonzero(buf == 44)
    else:  # the lines whose own skeleton is _EDGE_LINE
        tails = np.flatnonzero(np.frombuffer(skeleton, dtype=np.uint8) == 10)
        lines = np.flatnonzero(np.diff(tails, prepend=-1) == len(_EDGE_LINE))
        at = tails[lines] + 1 - len(_EDGE_LINE)
        form = _words(skeleton)
        lines = lines[(form[at] == _EDGE_WORDS[0]) & (form[at + 4] == _EDGE_WORDS[1])]
        start, end = starts[lines], ends[lines]
        comma = np.flatnonzero(buf == 44)
        comma = comma[np.searchsorted(comma, start)]  # the line's one comma
    ok = (buf[start + 4] == 58) & (buf[comma + 4] == 58) & (buf[end - 1] == 125)  # ':' ':' '}'
    last = np.stack((comma - 1, end - 2))  # each id's last digit
    digits = last - np.stack((start + 4, comma + 4))
    lead = buf[last + 1 - digits]  # each id's first digit, if it has one
    ok &= ((digits >= 1) & (digits <= _MAX_BULK_DIGITS) & ((lead != 48) | (digits == 1))).all(axis=0)
    if not ok.all():
        lines, last, digits = lines[ok], last[:, ok], digits[:, ok]
    words = _words(text)  # word L ends at byte L of buf
    ids = _eight_digits(words[last], digits)
    for shift in (8, 16):  # the digits of longer ids, 8 at a time
        long = digits > shift
        if long.any():
            ids[long] += _eight_digits(words[last[long] - shift], digits[long] - shift) * 10**shift
    return ends, lines, ids.view(np.int64).T


def _sbm_header(line: str, where: str, path) -> dict:
    rec = _loads(line, where)
    if rec.get("type") != "sbm":
        raise ValueError(f"{path}: not an SBM instance file")
    _check_sizes(rec, ("n1", "n2"), where)
    for name, check in (("n1", _check_n1), ("delta", _check_delta), ("p", _check_p), ("seed", _check_seed)):
        _check_header(rec, name, check, where)
    return rec


def _sbm_blocks(path, found: dict):
    """Yield the edges of a block-model file block by block: each block's
    (k, 2) ids in file order, in ``_ids_dtype`` of the header's larger size,
    the index of each edge's line among the block's lines, and the file line
    number of the block's first line. The header goes into ``found["header"]``
    before the first block, and the truth and reduced records into
    ``found["truth"]`` and ``found["reduced"]``."""
    lineno = 0
    with _open_text(path) as fh:
        for line in fh:
            lineno += 1
            if line.strip():
                found["header"] = _sbm_header(line, f"{path}, line {lineno}", path)
                break
        else:
            raise ValueError(f"{path}: not an SBM instance file")
        n1, n2 = found["header"]["n1"], found["header"]["n2"]
        dtype = _ids_dtype(max(n1, n2))  # the ids are range-checked before they are narrowed
        j_end = min(n2, 2**63)  # an edge array holds no id past int64, whatever n2 allows
        # blocks of whole lines in text mode: universal newlines turn \r\n and
        # a lone \r into the \n that ends each line of the encoded bytes, and
        # a byte that is not UTF-8 comes back as itself, which no canonical
        # line holds, so the line that holds it reaches _loads
        for text in iter(lambda: fh.read(_READ_BLOCK) + fh.readline(), ""):
            raw = (text if text.endswith("\n") else text + "\n").encode(errors="surrogateescape")
            del text  # the block is parsed from its bytes alone
            ends, canon, ids = _canonical_edges(np.frombuffer(raw, dtype=np.uint8))
            breaks = np.concatenate(([-1], ends))  # line k ends at breaks[k + 1]
            other = np.ones(len(ends), dtype=bool)
            other[canon] = False
            bad = np.flatnonzero((ids[:, 0] >= n1) | (ids[:, 1] >= n2))
            # the other lines are decoded in file order up to the first
            # out-of-range canonical line, so the first error is the one raised
            stop = int(canon[bad[0]]) if len(bad) else len(other)
            rec_lines, rec_edges = [], []
            for k in np.flatnonzero(other[:stop]).tolist():
                line = raw[breaks[k] + 1 : breaks[k + 1]].decode(errors="surrogateescape").strip()
                if not line:
                    continue
                where = f"{path}, line {lineno + 1 + k}"
                rec = _loads(line, where)
                if "i" in rec or "j" in rec:
                    i, j = rec.get("i"), rec.get("j")
                    if not (type(i) is int and 0 <= i < n1 and type(j) is int and 0 <= j < j_end):
                        raise ValueError(f"{where}: edge ids must be integers in range, got {line}")
                    rec_lines.append(k)
                    rec_edges.append((i, j))
                elif "truth_u" in rec:
                    if found.get("truth") is not None:
                        raise ValueError(f"{where}: a second truth_u record")
                    # empty v marks "left labels only" (reduced files); the
                    # solver skips the right-side trace whenever len(v) != n2
                    tu = _labels(rec["truth_u"], (n1,), "truth_u", where)
                    tv = [] if rec.get("truth_v") is None else rec["truth_v"]
                    tv = _labels(tv, (0, n2), "truth_v", where)
                    found["truth"] = HiddenPartition(tu, tv)
                elif rec.get("meta") == "reduced":
                    found["reduced"] = {k: v for k, v in rec.items() if k != "meta"}
            if len(bad):
                raise ValueError(f"{path}, line {lineno + 1 + stop}: edge id out of range")
            if rec_edges:  # merge the records' edges into file order
                canon = np.concatenate((canon, rec_lines))
                order = np.argsort(canon, kind="stable")
                canon = canon[order]
                ids = np.concatenate((ids, np.array(rec_edges, dtype=np.int64)))[order]
            yield ids.astype(dtype, copy=False), canon, lineno + 1
            lineno += len(other)


def read_sbm(path) -> SbmFile:
    """Read a block-model file. Canonical edge lines, in the form
    ``write_sbm`` writes, are parsed in bulk; every other non-empty line is
    one JSON record. Raises ``ValueError`` naming the line for a line that is
    not UTF-8, a malformed record, an edge record without both ids or with an
    id that is not an integer in range (or past int64), a repeated edge, a
    second ``truth_u`` record, a header ``n1`` or ``n2`` that is not a
    positive integer, an ``n1`` past int64, a header density ``p`` that is
    not a number in [0, 1], a ``delta`` outside [0, 2] or equal to 1, a
    ``seed`` that is not an integer >= 0 (each when present), or truth
    labels whose count is not n1 (left) or 0 or n2 (right). No line number
    is kept per edge: a repeated edge is named by reading the blocks again
    up to it."""
    found = {}
    chunks = [ids for ids, *_ in _sbm_blocks(path, found)]  # (k, 2) edges in file order
    header = found["header"]
    n1, n2 = header["n1"], header["n2"]
    # C order, one row per edge: the blocks' ids are column-major
    edges = np.empty((sum(map(len, chunks)), 2), dtype=_ids_dtype(max(n1, n2)))
    if chunks:
        np.concatenate(chunks, out=edges)
    chunks.clear()  # freed before the duplicate check's keys are made
    k = _first_repeat(edges, n1, n2)
    if k is not None:
        i, j = edges[k]
        for ids, lines, first in _sbm_blocks(path, {}):
            if k < len(ids):
                raise ValueError(f"{path}, line {first + lines[k]}: duplicate edge ({i}, {j})")
            k -= len(ids)
        raise ValueError(f"{path}: duplicate edge ({i}, {j})")  # the file changed between the reads
    return SbmFile(BipartiteGraph(n1, n2, edges), header, found.get("truth"), found.get("reduced"))


# ---------------------------------------------------------------------------
# Constraint files: planted CSP ("csp") and predicate constraints ("goldreich")
# ---------------------------------------------------------------------------


# Per file type: what the file holds, its header's table, and the field each
# constraint record carries besides "vars".
_CONSTRAINT_KINDS = {
    "csp": ("CSP", "weights", "signs"),
    "goldreich": ("predicate-constraint", "predicate", "value"),
}


def _write_constraints(path, kind: str, instance, seed: int, table, tuple_vars, values):
    _check_seed(seed)  # as the reader requires
    _, table_name, field = _CONSTRAINT_KINDS[kind]
    header = {"type": kind, "n": instance.n, "k": instance.k, "m": instance.m, "seed": seed}

    def records():
        yield {**header, table_name: table.tolist()}
        if instance.sigma is not None:
            yield {"sigma": instance.sigma.tolist()}
        for vs, value in zip(tuple_vars.tolist(), values.tolist()):
            yield {"vars": vs, field: value}

    _write_lines(path, records())


def write_csp(path, instance: PlantedCspInstance, weights: PlantingDistribution, seed: int):
    _write_constraints(
        path, "csp", instance, seed, weights.weights, instance.clause_vars, instance.clause_signs
    )


def write_goldreich(path, instance: GoldreichInstance, seed: int):
    _write_constraints(
        path, "goldreich", instance, seed, instance.predicate, instance.tuple_vars, instance.values
    )


def read_constraints(path) -> CspFile | GoldreichFile:
    """Read a planted-CSP file (header ``type`` "csp") as a ``CspFile`` or a
    predicate-constraint file ("goldreich") as a ``GoldreichFile``. Raises
    ``ValueError`` naming the line for a line that is not UTF-8, a record
    that is not a JSON object, a header ``n`` or ``k`` that is not a positive
    integer, a header ``m`` or ``seed`` that is present but not an integer
    >= 0, a header ``m`` other than the number of constraint records, a
    header table (``weights`` or ``predicate``) that is missing or not a list
    of JSON numbers (integers for ``predicate``), or a constraint whose
    variable ids or signs are not k integers or whose value is not one
    integer; range checks are left to the reduction. Ids are held as int32
    and signs and values as int8 where every entry fits, else as int64."""
    return _read_constraints(path, tuple(_CONSTRAINT_KINDS))


def read_csp(path) -> CspFile:
    return _read_constraints(path, ("csp",))


def read_goldreich(path) -> GoldreichFile:
    return _read_constraints(path, ("goldreich",))


def _read_constraints(path, kinds: tuple) -> CspFile | GoldreichFile:
    records = _records(path)
    head, header = next(records, (None, {}))
    kind = header.get("type")
    if kind not in kinds:
        names = " or ".join(_CONSTRAINT_KINDS[t][0] for t in kinds)
        raise ValueError(f"{path}: not a {names} instance file")
    _, table_name, field = _CONSTRAINT_KINDS[kind]
    _check_sizes(header, ("n", "k"), head)
    _check_header(header, "m", lambda m: _check_int(m, "m", 0), head)
    _check_header(header, "seed", _check_seed, head)
    table = header.get(table_name)
    integer = kind == "goldreich"
    if not _number_list(table, integer):
        entries = "integers" if integer else "numbers"
        raise ValueError(f"{head}: the header needs a {table_name} list of {entries}")
    n, k = header["n"], header["k"]
    try:  # the table's own checks, reported at the header's line
        if kind == "csp":
            law = PlantingDistribution(k, np.array(table, dtype=np.float64))
        else:
            table = _predicate_table(table, k)[0]
    except ValueError as exc:
        raise ValueError(f"{head}: {exc}") from None
    sigma, cvars, values = None, [], []
    for where, rec in records:
        if "vars" in rec:
            cvars.append(_int_row(rec["vars"], k, "clause ids", where))
            value = rec.get(field)
            if field == "signs":
                value = _int_row(value, k, "clause signs", where)
            elif not _is_number(value, integer=True):
                what = "an integer within int64" if type(value) is int else "an integer"
                raise ValueError(f"{where}: value must be {what}, got {json.dumps(value)}")
            values.append(value)
        elif "sigma" in rec:
            sigma = _labels(rec["sigma"], (n,), "sigma", where)
    if header.get("m", len(cvars)) != len(cvars):  # a file that lost or gained records
        raise ValueError(f"{head}: header m = {header['m']}, but the file holds {len(cvars)} constraints")
    # the compact instance dtypes where every entry fits; past them int64, so the
    # reduction names the entry as it was written
    cvars = _narrow(np.array(cvars, dtype=np.int64).reshape(-1, k), np.int32)
    values = _narrow(np.array(values, dtype=np.int64), np.int8)
    if kind == "csp":
        instance = PlantedCspInstance(n, sigma, cvars, values.reshape(-1, k))
        return CspFile(instance, law, header)
    return GoldreichFile(GoldreichInstance(n, table, sigma, cvars, values), header)
