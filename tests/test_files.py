"""Block-model file I/O against the per-record reference in files_oracle:
byte-identical writes, and the same ``SbmFile`` from the reader on the
canonical file and on valid variants of it. Constraint files against pinned
bytes."""
import dataclasses
import json
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import files_oracle
from planted import files
from planted.cli import main
from planted.fourier import distribution_complexity
from planted.instances import (
    BipartiteGraph,
    BlockModelParams,
    GoldreichInstance,
    HiddenPartition,
    PlantedCspInstance,
    PlantingDistribution,
    noisy_xor_weights,
    parity_predicate,
    sample_bipartite_block,
    sample_goldreich,
    sample_planted_csp,
)
from planted.reduction import csp_to_bipartite
from planted.solver import SolverConfig, spi_solve

_META = {"delta": 2.0, "p_equiv": 0.0014124293785310734, "n2_nominal": 1770, "indexer_size": 215}
_BIG = 2**62  # ids of 19 digits: past the bulk edge pattern, still int64


@st.composite
def sbm_cases(draw):
    """(graph, truth, include_truth_v, reduced_meta, write chunk, read block)."""
    big = draw(st.booleans())
    n1, n2 = (draw(st.integers(1, _BIG if big else 40)) for _ in range(2))
    ids = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    if big:  # include the extreme ids
        ids = st.one_of(ids, st.just((n1 - 1, n2 - 1)), st.just((0, n2 - 1)))
    edges = draw(st.lists(ids, max_size=min(n1 * n2, 120), unique=True))
    truth = None
    if not big and draw(st.booleans()):
        signs = st.sampled_from([-1, 1])
        truth = HiddenPartition(draw(st.lists(signs, min_size=n1, max_size=n1)),
                                draw(st.lists(signs, min_size=n2, max_size=n2)))
    return (
        BipartiteGraph(n1, n2, np.array(edges, dtype=np.int64).reshape(-1, 2)),
        truth,
        draw(st.booleans()),
        draw(st.sampled_from([None, _META])),
        draw(st.sampled_from([1, 7, files._WRITE_CHUNK])),
        draw(st.sampled_from([1, 50, files._READ_BLOCK])),
    )


def _variant_text(text: str, draw) -> str:
    """The same records with blank lines, CRLF breaks, reordered keys and
    spaced edge records mixed in."""
    out = []
    for line in text.splitlines():
        if line.startswith('{"i":'):
            rec = line[1:-1].split(",")
            style = draw(st.sampled_from(["canonical", "reordered", "spaced"]))
            if style == "reordered":
                line = "{" + rec[1] + "," + rec[0] + "}"
            elif style == "spaced":
                line = "  { " + rec[0].replace(":", ": ") + " , " + rec[1] + " }\t"
        out.append(line + draw(st.sampled_from(["\n", "\r\n", "\n\n", "\r\n \r\n"])))
    return "".join(out)


def _assert_same_file(got, want):
    assert got.header == want.header
    assert got.reduced_meta == want.reduced_meta
    assert got.graph.n1 == want.graph.n1 and got.graph.n2 == want.graph.n2
    # the oracle reads int64 edges; read_sbm int32 where both sizes are at most 2^31
    assert got.graph.edges.dtype == (np.int32 if max(want.graph.n1, want.graph.n2) <= 2**31 else np.int64)
    assert np.array_equal(got.graph.edges, want.graph.edges)
    assert (got.truth is None) == (want.truth is None)
    if want.truth is not None:
        assert np.array_equal(got.truth.u, want.truth.u)
        assert np.array_equal(got.truth.v, want.truth.v)


_EMPTY = (BipartiteGraph(3, 5, np.empty((0, 2), dtype=np.int64)), None, True, None, 7, 50)
_ONE_PAST_CHUNK = (BipartiteGraph(4, 4, np.array([(i, j) for i in range(4) for j in range(4)][:15])),
                   HiddenPartition([1, -1, 1, -1], [1, 1, -1, -1]), True, _META, 7, 50)
# ids of 18 digits, the widest the bulk reader parses, and of 19, the first it
# leaves to json
_WIDEST_BULK = (BipartiteGraph(10**18, 10**18, np.array([(10**18 - 1, 0), (7, 10**18 - 1)])),
                None, True, None, 7, 50)
_FIRST_JSON = (BipartiteGraph(10**18 + 1, 10**18 + 1, np.array([(10**18, 10**18 - 1), (5, 10**18)])),
               None, True, None, 7, 50)


@settings(max_examples=150, deadline=None)
@given(case=sbm_cases(), data=st.data())
@example(case=_EMPTY, data=None)
@example(case=_ONE_PAST_CHUNK, data=None)
@example(case=_WIDEST_BULK, data=None)
@example(case=_FIRST_JSON, data=None)
def test_sbm_io_matches_per_record_oracle(tmp_path_factory, case, data):
    graph, truth, include_truth_v, meta, chunk, block = case
    tmp = tmp_path_factory.mktemp("sbm")
    new, ref = tmp / "new.jsonl", tmp / "ref.jsonl"
    args = dict(delta=1.8, p=0.25, seed=11, truth=truth, include_truth_v=include_truth_v,
                reduced_meta=meta)
    with mock.patch.object(files, "_WRITE_CHUNK", chunk), mock.patch.object(files, "_READ_BLOCK", block):
        files.write_sbm(new, graph, **args)
        files_oracle.write_sbm(ref, graph, **args)
        assert new.read_bytes() == ref.read_bytes()
        _assert_same_file(files.read_sbm(new), files_oracle.read_sbm(ref))
        if data is not None:
            variant = tmp / "variant.jsonl"
            variant.write_bytes(_variant_text(ref.read_text(), data.draw).encode())
            _assert_same_file(files.read_sbm(variant), files_oracle.read_sbm(variant))


def test_duplicate_check_does_not_wrap_on_huge_sizes(tmp_path):
    # packed as i * n2 + j in int64, (4, 0) would wrap onto (0, 0): 4 * 2^62 = 2^64
    f = tmp_path / "huge.jsonl"
    head = '{"type":"sbm","n1":5,"n2":4611686018427387904,"delta":1.8,"p":0.1,"seed":0}\n'
    f.write_text(head + '{"i":0,"j":0}\n{"i":4,"j":0}\n')
    assert files.read_sbm(f).graph.edges.tolist() == [[0, 0], [4, 0]]
    f.write_text(head + '{"i":4,"j":0}\n{"i":0,"j":0}\n{"i":4,"j":0}\n')
    with pytest.raises(ValueError, match=r"line 4: duplicate edge \(4, 0\)"):
        files.read_sbm(f)


@pytest.mark.parametrize("repeat", ['{"i":7,"j":3}', '{"j": 3, "i": 7}'], ids=["canonical", "record"])
def test_duplicate_in_a_later_block_names_its_line(tmp_path, repeat):
    # record lines in the first 256 KiB block shift the canonical lines'
    # numbers; the repeat of line 4's edge sits past the first block
    n = 30_000  # ~14 B a line, so the canonical lines span two blocks
    head = ['{"type":"sbm","n1":100000,"n2":100000,"delta":1.8,"p":0.1,"seed":0}',
            '{"i": 99999, "j": 0}', '', '{"i":7,"j":3}', '{"j": 5, "i": 99999}']
    body = [f'{{"i":{k // 1000 + 10},"j":{k % 1000}}}' for k in range(n)]
    lines = head + body + ['{"i":1,"j":1}', repeat]
    f = tmp_path / "dup.jsonl"
    f.write_text("\n".join(lines) + "\n")
    assert len("\n".join(lines[: len(head) + 1])) < files._READ_BLOCK < len("\n".join(lines))
    with pytest.raises(ValueError, match=rf"line {len(lines)}: duplicate edge \(7, 3\)$"):
        files.read_sbm(f)


@pytest.mark.parametrize("block", [files._READ_BLOCK, 20, 1], ids=["one-block", "two-lines-a-block", "line-a-block"])
@pytest.mark.parametrize(
    "lines, message",
    [
        (['{"i":0,"j":1}', '{"i":2,"j":4}', '{"j":2,"i":1}', '{"i":1,"j":}'], "line 3: edge id out of range"),
        (['{"i":0,"j":1}', '{"i":1,"j":}', '{"j":2,"i":1}', '{"i":2,"j":4}'], "line 3: Expecting value"),
    ],
    ids=["out-of-range-first", "malformed-first"],
)
def test_first_error_in_file_order_is_reported(tmp_path, lines, message, block):
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join(['{"type":"sbm","n1":3,"n2":4,"delta":1.8,"p":0.5,"seed":0}', *lines]) + "\n")
    with mock.patch.object(files, "_READ_BLOCK", block), pytest.raises(ValueError, match=re.escape(message)):
        files.read_sbm(f)


# Bytes the mutations insert: those of the canonical template, digits, and
# the whitespace and breaks a hand-edited file may hold.
_MUTATION_BYTES = b'{"ij:,} \r\n0123456789'
# Near-canonical lines the bulk parser must leave to json.
_NEAR_MISSES = [b'{"i"2:1,"j":370}', b'{"i":1,"j"3:370}', b'x{"i":1,"j":2}', b'{"i":1,"j":2} ',
                b'{"i":01,"j":2}', b'{"i":1,"j":00}', b'{"i":,"j":2}', b'{"i":1,"j":}', b'{"i":1 ,"j":2}',
                b'{"j":1,"i":2}', b'{"i":1:,"j":2}', b'{"i":1,"j":2}}', b'{"i":1,,"j":2}', b'{"i":1,"j":2,}',
                b'{"i":1,"j":%d}' % 10**18, b'{"i":1,"j":2\r}', b'{"i":1,"j":2}\r', b'{"i" :1,"j":2}',
                b'{"i",1,"j":2}', b'{"i":1,"j",2}', b'{"i"}1,"j":2}', b'{"i":1,"j":2:']


@st.composite
def mutated_blocks(draw):
    """A block of canonical edge lines with bytes inserted, deleted or
    replaced, ending in a line break."""
    ids = st.one_of(st.integers(0, 999), st.integers(0, 2 * 10**18))
    text = bytearray(b"".join(b'{"i":%d,"j":%d}\n' % (draw(ids), draw(ids))
                              for _ in range(draw(st.integers(1, 12)))))
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(_MUTATION_BYTES))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or at == len(text):
            text.insert(at, byte)
        elif op == "delete":
            del text[at]
        else:
            text[at] = byte
    return bytes(text if text.endswith(b"\n") else text + b"\n")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(block=mutated_blocks())
@example(block=b"".join(line + b'\n{"i":4,"j":5}\n' for line in _NEAR_MISSES))
@example(block=b"".join(b'{"i":4,"j":5}\n' + line + b"\n" for line in _NEAR_MISSES))
@example(block=b'{"i":,"j":}\n')  # no digit to read anywhere in the block
def test_bulk_parser_takes_exactly_the_canonical_lines(block):
    lines = block.split(b"\n")[:-1]
    want = [(k, ids) for k, line in enumerate(lines) if (ids := files_oracle.canonical_edge(line)) is not None]
    ends, canon, ids = files._canonical_edges(np.frombuffer(block, dtype=np.uint8))
    assert ends.tolist() == [m.start() for m in re.finditer(b"\n", block)]
    assert canon.tolist() == [k for k, _ in want]
    assert ids.dtype == np.int64 and ids.tolist() == [list(edge) for _, edge in want]


def _assert_bulk_parse_matches_oracle(block: bytes, shortcut: bool):
    """``_canonical_edges`` takes exactly the lines ``canonical_edge`` takes,
    with their ids; ``shortcut`` says whether the block's skeleton, its bytes
    without digits, is ``_EDGE_LINE`` once a line, the parser's whole-block
    shortcut."""
    lines = block.split(b"\n")[:-1]
    assert (block.translate(None, b"0123456789") == files._EDGE_LINE * len(lines)) is shortcut
    want = [(k, ids) for k, line in enumerate(lines) if (ids := files_oracle.canonical_edge(line)) is not None]
    ends, canon, ids = files._canonical_edges(np.frombuffer(block, dtype=np.uint8))
    assert ends.tolist() == [m.start() for m in re.finditer(b"\n", block)]
    assert canon.tolist() == [k for k, _ in want]
    assert ids.dtype == np.int64 and ids.tolist() == [list(edge) for _, edge in want]


def _ids_of_width(width: int) -> list[int]:
    """The smallest and largest ids of ``width`` decimal digits, and some
    between them: inner zeros, all ten digits, and random ones."""
    low, high = (0 if width == 1 else 10 ** (width - 1)), 10**width - 1
    rng = random.Random(width)
    return [low, high, low + 9, int("9876543210123456789"[:width]), *(rng.randint(low, high) for _ in range(3))]


_RECORD = b'{"j": 1, "i": 2}\n'  # a line the bulk parser leaves to json


@pytest.mark.parametrize("shortcut", [True, False], ids=["all-canonical", "with-a-record"])
@pytest.mark.parametrize("width", range(1, 20))
def test_bulk_parser_reads_ids_of_every_width(width, shortcut):
    # ids of 1 to 18 digits are parsed in 8-digit words: 8/9 and 16/17 digits
    # are where a second and a third word start, and ids of 19 digits are left
    # to json; each width meets every other in both slots of a line
    others = [i for w in range(1, 20) for i in _ids_of_width(w)[:2]]
    lines = [b'{"i":%d,"j":%d}\n' % pair for i in _ids_of_width(width) for j in others for pair in ((i, j), (j, i))]
    if not shortcut:
        lines.insert(len(lines) // 2, _RECORD)
    block = b"".join(lines)
    _assert_bulk_parse_matches_oracle(block, shortcut)


# a digit put before each byte of a canonical line and after its last: in
# the id slots the line stays canonical, anywhere else only the skeleton does
_DIGIT_PUT_IN = [b'{"i":1,"j":2}'[:at] + b"7" + b'{"i":1,"j":2}'[at:] for at in range(14)]
# the lines whose bytes without digits are _EDGE_LINE's
_EDGE_SKELETON = [line for line in [*_NEAR_MISSES, *_DIGIT_PUT_IN]
                  if (line + b"\n").translate(None, b"0123456789") == files._EDGE_LINE]


@pytest.mark.parametrize("line", _EDGE_SKELETON, ids=[line.decode() for line in _EDGE_SKELETON])
@pytest.mark.parametrize("shortcut", [True, False], ids=["all-canonical", "with-a-record"])
def test_lines_with_the_edge_skeleton_parse_as_the_oracle_says(line, shortcut):
    # among canonical lines the block's skeleton is _EDGE_LINE once a line,
    # so only the slot and digit checks can tell the line apart
    around = b'{"i":4,"j":5}\n{"i":123,"j":45678}\n'
    block = around + line + b"\n" + (around if shortcut else _RECORD + around)
    _assert_bulk_parse_matches_oracle(block, shortcut)


def test_one_block_of_canonical_lines_peaks_below_3_mib_above_its_input():
    # 256 KiB of short lines, ~14.8k of them: the parser's temporaries and
    # its result come to about 2.2 MiB
    edges = np.random.default_rng(0).integers(0, 1000, size=(40_000, 2))
    text = files._edge_lines(edges).tobytes()
    buf = np.frombuffer(text[: text.index(b"\n", files._READ_BLOCK) + 1], dtype=np.uint8)
    tracemalloc.start()
    try:
        ends, canon, ids = files._canonical_edges(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(canon) == len(ends) > 14_000
    assert np.array_equal(ids, edges[: len(ends)])
    assert peak <= 3 * 2**20


def test_read_sbm_traced_peak_per_edge(tmp_path):
    # ~271k edges, past the point where the temporaries of one 256 KiB block
    # stop setting the peak: 16 B per edge for the edges and 16 for the
    # blocks' ids while they are joined make 32; no line number is kept per
    # edge
    graph, truth = sample_bipartite_block(BlockModelParams(1000, 1000, 1.8, 0.27, 3))
    f = tmp_path / "g.jsonl"
    files.write_sbm(f, graph, delta=1.8, p=0.27, seed=3, truth=truth)
    tracemalloc.start()
    try:
        data = files.read_sbm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.graph.num_edges == graph.num_edges > 2**18
    assert peak <= 48 * graph.num_edges


def test_read_sbm_holds_int32_edges_at_its_traced_peak(tmp_path):
    # the 271k-edge file above: the blocks' ids are narrowed to int32 as they
    # are parsed, so the joined edges and the blocks hold 16 B per edge, not
    # 32; what is left is the temporaries of one 256 KiB block
    graph, truth = sample_bipartite_block(BlockModelParams(1000, 1000, 1.8, 0.27, 3))
    f = tmp_path / "g.jsonl"
    files.write_sbm(f, graph, delta=1.8, p=0.27, seed=3, truth=truth)
    tracemalloc.start()
    try:
        data = files.read_sbm(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * graph.num_edges
    assert data.graph.edges.dtype == np.int32 and np.array_equal(data.graph.edges, graph.edges)


def test_an_id_past_int32_keeps_int64_edges_through_read_solve_and_write(tmp_path):
    edges = [[0, 2**31], [1, 2**40 - 1], [2, 5], [3, 2**31 - 1], [3, 2**35]]
    graph = BipartiteGraph(4, 2**40, edges)
    assert graph.edges.dtype == np.int64
    f, again = tmp_path / "g.jsonl", tmp_path / "again.jsonl"
    files.write_sbm(f, graph, delta=1.8, p=0.5, seed=1)
    assert '{"i":0,"j":2147483648}' in f.read_text().splitlines()
    data = files.read_sbm(f)
    assert data.graph.edges.dtype == np.int64 and data.graph.edges.tolist() == edges
    res = spi_solve(data.graph, SolverConfig(seed=2))
    assert res.edges_used == len(edges) and res.to_dict() == spi_solve(graph, SolverConfig(seed=2)).to_dict()
    files.write_sbm(again, data.graph, delta=1.8, p=0.5, seed=1)
    assert again.read_bytes() == f.read_bytes()


@pytest.mark.parametrize("k, n, m, full", [(3, 12, 300, False), (2, 3, 200, True)],
                         ids=["173-of-276-tuples", "every-tuple"])
def test_reduced_graph_written_with_its_truth_reads_back(tmp_path, capsys, k, n, m, full):
    """A reduced truth labels the tuples that occur, in id order: fewer than
    n2 = C(2n, r-1) of them leave truth_v out of the file, since read_sbm
    takes 0 or n2 right labels; all n2 of them are written."""
    q = noisy_xor_weights(k, 0.8)
    red = csp_to_bipartite(sample_planted_csp(q, n, m, seed=5), distribution_complexity(q))
    g = red.graph
    assert (len(red.truth.v) == g.n2) is full
    f = tmp_path / "r.jsonl"
    files.write_sbm(f, g, delta=red.delta, p=g.num_edges / (g.n1 * g.n2), seed=5, truth=red.truth)
    data = files.read_sbm(f)
    assert np.array_equal(data.graph.edges, g.edges) and np.array_equal(data.truth.u, red.truth.u)
    assert data.truth.v.tolist() == (red.truth.v.tolist() if full else [])
    assert main(["solve", "-i", str(f), "-q"]) == 0
    capsys.readouterr()


_CSP = PlantedCspInstance(4, np.array([1, -1, 1, -1]), np.array([[0, 1, 2], [3, 1, 0]]),
                          np.array([[1, -1, 1], [-1, -1, 1]]))
_CSP_WEIGHTS = PlantingDistribution(3, np.array([1, 1, 1, 1, 1, 1, 1, 2]))
_GOLDREICH = GoldreichInstance(4, np.array([1, -1, -1, 1]), None, np.array([[0, 1], [2, 3]]), np.array([1, -1]))


@pytest.mark.parametrize(
    "write, text, reader, other_reader, message",
    [
        (lambda f: files.write_csp(f, _CSP, _CSP_WEIGHTS, seed=7),
         '{"type":"csp","n":4,"k":3,"m":2,"seed":7,"weights":[1.0,1.0,1.0,1.0,1.0,1.0,1.0,2.0]}\n'
         '{"sigma":[1,-1,1,-1]}\n'
         '{"vars":[0,1,2],"signs":[1,-1,1]}\n'
         '{"vars":[3,1,0],"signs":[-1,-1,1]}\n',
         files.read_csp, files.read_goldreich, "not a predicate-constraint instance file"),
        (lambda f: files.write_goldreich(f, _GOLDREICH, seed=3),
         '{"type":"goldreich","n":4,"k":2,"m":2,"seed":3,"predicate":[1,-1,-1,1]}\n'
         '{"vars":[0,1],"value":1}\n'
         '{"vars":[2,3],"value":-1}\n',
         files.read_goldreich, files.read_csp, "not a CSP instance file"),
    ],
    ids=["csp", "goldreich"],
)
def test_constraint_file_bytes_and_roundtrip(tmp_path, write, text, reader, other_reader, message):
    f = tmp_path / "c.jsonl"
    write(f)
    assert f.read_text() == text
    data = files.read_constraints(f)
    assert type(data) is type(reader(f))
    assert data.header == json.loads(text.splitlines()[0])
    want = _CSP if isinstance(data, files.CspFile) else _GOLDREICH
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(data.instance, field.name), getattr(want, field.name)), field.name
    if want is _CSP:
        assert np.array_equal(data.weights.weights, _CSP_WEIGHTS.weights)
    with pytest.raises(ValueError, match=re.escape(message)):
        other_reader(f)


@pytest.mark.parametrize("writer", ["sbm", "csp", "goldreich", "reduced"])
def test_writers_take_numpy_seeds_and_sizes(tmp_path, writer):
    # json.dumps once refused a numpy seed: "Object of type uint32 is not JSON serializable"
    q = noisy_xor_weights(3, 0.8)

    def write(f, i):
        if writer == "sbm":
            g, part = sample_bipartite_block(BlockModelParams(i(20), i(20), 1.8, 0.3, i(7)))
            files.write_sbm(f, BipartiteGraph(i(g.n1), i(g.n2), g.edges), 1.8, 0.3, seed=i(7), truth=part)
        elif writer == "csp":
            files.write_csp(f, sample_planted_csp(q, i(12), i(300), i(7)), q, i(7))
        elif writer == "goldreich":
            files.write_goldreich(f, sample_goldreich(parity_predicate(i(3)), i(12), i(300), i(7)), i(7))
        else:
            inst = sample_planted_csp(q, i(12), i(300), i(7))
            files.write_reduced(f, csp_to_bipartite(inst, distribution_complexity(q), seed=i(7)), i(7))
        return f

    numpy_file, python_file = write(tmp_path / "numpy.jsonl", np.uint32), write(tmp_path / "python.jsonl", int)
    assert numpy_file.read_bytes() == python_file.read_bytes()
    read = files.read_sbm if writer in ("sbm", "reduced") else files.read_constraints
    seed = read(numpy_file).header["seed"]
    assert type(seed) is int and seed == 7


def test_read_constraints_rejects_other_files(tmp_path):
    f = tmp_path / "sbm.jsonl"
    f.write_text('{"type":"sbm","n1":1,"n2":1,"delta":1.8,"p":0.5,"seed":0}\n')
    with pytest.raises(ValueError, match="not a CSP or predicate-constraint instance file"):
        files.read_constraints(f)


@pytest.mark.parametrize("text", ['{"type":"csp","n":4,"k":2,"m":0,"seed":0,"weights":[1,1,1,1]}\n', "", "\n  \n\n"],
                         ids=["csp-header", "empty", "blank-lines"])
def test_read_sbm_rejects_other_files(tmp_path, text):
    f = tmp_path / "other.jsonl"
    f.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{f}: not an SBM instance file")):
        files.read_sbm(f)


_DELTA_RULE = "delta must lie in [0, 2] and differ from 1, got "
_SEED_RULE = "seed must be an integer >= 0, got "


@pytest.mark.parametrize(
    "graph, delta, message",
    [(BipartiteGraph(3, 4, [[0, 1]]), d, _DELTA_RULE) for d in (5.0, -0.5, 1.0, 1, float("nan"), True, "x", None)]
    + [(BipartiteGraph(2**63, 4, [[0, 1]]), 1.8, f"n1 must be below 2^63, got {2**63}")],
)
def test_write_sbm_refuses_a_header_read_sbm_refuses(tmp_path, graph, delta, message):
    f = tmp_path / "g.jsonl"
    with pytest.raises(ValueError, match=re.escape(message)):
        files.write_sbm(f, graph, delta, 0.3, 0)
    assert not f.exists()


@pytest.mark.parametrize("seed", [-1, 2.5, True, "x", None, np.float64(3.0)])
@pytest.mark.parametrize("writer", ["sbm", "csp", "goldreich", "reduced"])
def test_writers_refuse_a_seed_their_readers_refuse(tmp_path, writer, seed):
    f = tmp_path / "w.jsonl"
    with pytest.raises(ValueError, match=re.escape(_SEED_RULE)):
        if writer == "sbm":
            files.write_sbm(f, BipartiteGraph(3, 4, [[0, 1]]), 1.8, 0.3, seed)
        elif writer == "csp":
            files.write_csp(f, _CSP, _CSP_WEIGHTS, seed)
        elif writer == "goldreich":
            files.write_goldreich(f, _GOLDREICH, seed)
        else:
            q = noisy_xor_weights(3, 0.8)
            reduced = csp_to_bipartite(sample_planted_csp(q, 12, 300, 7), distribution_complexity(q), seed=7)
            files.write_reduced(f, reduced, seed)
    assert not f.exists()
