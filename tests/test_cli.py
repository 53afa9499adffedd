"""CLI tests: determinism, round-trips, exit codes, file formats."""
import builtins
import contextlib
import gc
import hashlib
import io
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

from planted import files
from planted.cli import _sweep_spec_from_config, main
from planted.fourier import distribution_complexity
from planted.harness import SweepSpec, solve_goldreich_end_to_end
from planted.instances import (
    BlockModelParams,
    PlantingDistribution,
    majority_predicate,
    noisy_xor_weights,
    parity_predicate,
    sample_bipartite_block,
    sample_goldreich,
    sample_planted_csp,
    sat_clause_weights,
)
from planted.fourier import predicate_lowest_degree
from planted.reduction import csp_to_bipartite, goldreich_to_bipartite
from planted.solver import SolverConfig, spi_solve


def _run(*argv):
    return main(list(argv))


def test_gen_sbm_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert _run("gen-sbm", "--n1", "100", "--n2", "100", "--delta", "1.8",
                    "--p", "0.2", "--seed", "7", "-o", str(path), "-q") == 0
    assert a.read_bytes() == b.read_bytes()
    data = files.read_sbm(a)
    assert data.graph.n1 == 100 and data.truth is not None


def _sha(*parts) -> str:
    """The first 16 hex digits of the sha256 of byte strings and of arrays
    with their dtypes."""
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            h.update(part.dtype.str.encode())
            part = np.ascontiguousarray(part).tobytes()
        h.update(part)
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed, digests", [
    (3, ("a750ec12791ddc6f", "5a69b8d42c3e2de4", "774a31d8f55d6d7c", "8f7f30cfd0461795")),
    (11, ("4e10248c32d85d99", "3795c47501465192", "1c9f1ffb30c335ec", "e0dea3beab06d767")),
])
def test_block_model_path_keeps_its_per_seed_digests(tmp_path, seed, digests):
    # the block sampler, the split and the iterations, the file writer, and
    # the reader behind `planted solve`, on a file of three read blocks
    graph, truth = sample_bipartite_block(BlockModelParams(300, 300, 1.8, 0.5, seed))
    res = spi_solve(graph, SolverConfig(seed=seed + 1))
    f, out = tmp_path / "g.jsonl", tmp_path / "s.json"
    assert _run("gen-sbm", "--n1", "300", "--n2", "300", "--delta", "1.8", "--p", "0.5",
                "--seed", str(seed), "-o", str(f), "-q") == 0
    assert _run("solve", "-i", str(f), "--seed", str(seed + 1), "-o", str(out), "-q") == 0
    assert f.stat().st_size > 2 * files._READ_BLOCK
    solve = json.loads(out.read_text())
    assert solve["status"] == "ok" and solve["overlap"] == 1.0
    # the truth traces are float sums: rounded, so that a platform whose
    # summation differs in the last bits keeps the digest
    for key in ("U_trace", "V_trace"):
        solve[key] = [round(x, 9) for x in solve[key]]
    got = (_sha(graph.edges, truth.u, truth.v), _sha(res.signs, np.array([res.ops_edge_touches])),
           _sha(f.read_bytes()), _sha(json.dumps(solve).encode()))
    assert got == digests


def test_analyze_q_uniform_reports_inf(tmp_path, capsys):
    assert _run("analyze-q", "--preset", "uniform", "--k", "3") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == "inf"


def test_analyze_q_explicit_weights(capsys):
    assert _run("analyze-q", "--weights", "0,1,1,1,1,1,1,1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r"] == 1 and out["S"] == [0]
    assert out["delta"] == pytest.approx(8 / 7)


def test_gen_csp_solve_csp_roundtrip(tmp_path, capsys):
    n = 200
    m = int(100 * n * math.log(n))
    f = tmp_path / "csp.jsonl"
    assert _run("gen-csp", "--n", str(n), "--m", str(m), "--preset", "noisy-xor",
                "--k", "2", "--eta", "0.9", "--seed", "3", "-o", str(f), "-q") == 0
    assert _run("solve-csp", "-i", str(f), "--seed", "5", "--t-factor", "3.0", "-q") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "ok"
    assert rep["overlap"] == 1.0


def test_reduce_then_solve_matches_in_memory(tmp_path, capsys):
    n = 200
    m = int(100 * n * math.log(n))
    csp_f = tmp_path / "csp.jsonl"
    red_f = tmp_path / "reduced.jsonl"
    _run("gen-csp", "--n", str(n), "--m", str(m), "--preset", "noisy-xor",
         "--k", "2", "--eta", "0.9", "--seed", "3", "-o", str(csp_f), "-q")
    assert _run("reduce", "-i", str(csp_f), "--seed", "4", "-o", str(red_f), "-q") == 0
    assert _run("solve", "-i", str(red_f), "--seed", "6", "--t-factor", "3.0", "-q") == 0
    cli_res = json.loads(capsys.readouterr().out)
    assert cli_res["status"] == "ok"

    # in-memory replica: same instance, reduction seed, and solver settings
    q = noisy_xor_weights(2, 0.9)
    inst = sample_planted_csp(q, n, m, seed=3)
    red = csp_to_bipartite(inst, distribution_complexity(q), seed=4)
    p_realized = red.graph.num_edges / (red.graph.n1 * red.graph.n2)
    mem = spi_solve(
        red.graph,
        SolverConfig(T_factor=3.0, seed=6, p_override=p_realized),
        truth=red.truth,
    )
    assert cli_res["signs"] == [int(s) for s in mem.signs]
    assert cli_res["U_trace"] == mem.u_trace

    meta = files.read_sbm(red_f).reduced_meta
    assert meta is not None
    assert meta["n2_nominal"] == red.n2_nominal
    assert meta["indexer_size"] == len(red.indexer)


def test_gen_sbm_solve_matches_in_memory(tmp_path, capsys):
    from planted.instances import BlockModelParams, sample_bipartite_block

    f = tmp_path / "sbm.jsonl"
    params = BlockModelParams(200, 200, 1.8, 0.3, 11)
    _run("gen-sbm", "--n1", "200", "--n2", "200", "--delta", "1.8", "--p", "0.3",
         "--seed", "11", "-o", str(f), "-q")
    assert _run("solve", "-i", str(f), "--seed", "13", "-q") == 0
    cli_res = json.loads(capsys.readouterr().out)

    g, part = sample_bipartite_block(params)
    mem = spi_solve(g, SolverConfig(seed=13, p_override=params.p), truth=part)
    assert cli_res["signs"] == [int(s) for s in mem.signs]
    assert cli_res["overlap"] == mem.overlap
    assert cli_res["V_trace"] == mem.v_trace


def test_reduce_rejects_majority_route(tmp_path):
    f = tmp_path / "sat.jsonl"
    _run("gen-csp", "--n", "30", "--m", "100", "--preset", "sat", "--k", "3",
         "--seed", "1", "-o", str(f), "-q")
    assert _run("reduce", "-i", str(f), "-o", str(tmp_path / "x.jsonl"), "-q") == 2


def test_reduce_rejects_malformed_clause(tmp_path, capsys):
    q = noisy_xor_weights(3, 0.8)
    inst = sample_planted_csp(q, 10, 50, seed=0)
    inst.clause_vars[7] = [4, 4, 4]  # one variable three times
    f = tmp_path / "bad.jsonl"
    files.write_csp(f, inst, q, seed=0)
    assert _run("reduce", "-i", str(f), "-o", str(tmp_path / "x.jsonl"), "-q") == 2
    err = capsys.readouterr().err
    assert "cannot reduce: clause 7" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.jsonl").exists()


def test_gen_goldreich_roundtrip(tmp_path):
    f = tmp_path / "g.jsonl"
    assert _run("gen-goldreich", "--n", "20", "--m", "200",
                "--predicate", ",".join(["1", "-1", "-1", "1"]),
                "--seed", "2", "-o", str(f), "-q") == 0
    data = files.read_goldreich(f)
    assert data.instance.m == 200 and data.instance.k == 2
    expect = data.instance.sigma[data.instance.tuple_vars].prod(axis=1)
    assert np.array_equal(data.instance.values, expect)  # parity table


def test_gen_goldreich_predicate_starting_with_minus_one(tmp_path):
    pred = parity_predicate(3)  # -1,1,1,-1,1,-1,-1,1
    f = tmp_path / "g.jsonl"
    assert _run("gen-goldreich", "--n", "20", "--m", "100",
                "--predicate", ",".join(str(v) for v in pred),
                "--seed", "2", "-o", str(f), "-q") == 0
    assert files.read_goldreich(f).header["predicate"] == [int(v) for v in pred]


def test_reduce_goldreich_then_solve_matches_in_memory(tmp_path, capsys):
    pred = parity_predicate(3)
    g_f, red_f = tmp_path / "g.jsonl", tmp_path / "reduced.jsonl"
    assert _run("gen-goldreich", "--n", "100", "--m", "60000",
                "--predicate", ",".join(str(v) for v in pred),
                "--seed", "6", "-o", str(g_f), "-q") == 0
    assert _run("reduce", "-i", str(g_f), "--seed", "4", "-o", str(red_f), "-q") == 0
    assert _run("solve", "-i", str(red_f), "--seed", "7", "--t-factor", "3.0", "-q") == 0
    cli_res = json.loads(capsys.readouterr().out)
    assert cli_res["status"] == "ok" and cli_res["overlap"] == 1.0

    inst = sample_goldreich(pred, 100, 60_000, seed=6)
    red = goldreich_to_bipartite(inst, predicate_lowest_degree(pred), seed=4)
    data = files.read_sbm(red_f)
    assert np.array_equal(data.graph.edges, red.graph.edges)
    assert np.array_equal(data.truth.u, red.truth.u)
    assert data.reduced_meta["indexer_size"] == len(red.indexer)
    p_realized = red.graph.num_edges / (red.graph.n1 * red.graph.n2)
    mem = spi_solve(red.graph, SolverConfig(T_factor=3.0, seed=7, p_override=p_realized),
                    truth=red.truth)
    assert cli_res["signs"] == [int(s) for s in mem.signs]
    assert cli_res["U_trace"] == mem.u_trace


_SBM_HEAD = '{"type":"sbm","n1":3,"n2":4,"delta":1.8,"p":0.5,"seed":0}'


@pytest.mark.parametrize("p", ["-0.5", "5.0", "true", '"0.5"', "null"],
                         ids=["negative", "above-one", "bool", "string", "null"])
def test_solve_rejects_header_density_outside_unit_interval(tmp_path, capsys, p):
    f = tmp_path / "bad.jsonl"
    f.write_text(_SBM_HEAD.replace('"p":0.5', f'"p":{p}') + '\n{"i":0,"j":1}\n')
    message = f"line 1: p must be a number in [0, 1], got {p}"
    with pytest.raises(ValueError, match=re.escape(message)):
        files.read_sbm(f)
    assert _run("solve", "-i", str(f), "-o", str(tmp_path / "r.json"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


_INT64_PAST = 2**63  # one past the int64 maximum
_BIG_HEAD = _SBM_HEAD.replace('"n2":4', f'"n2":{2**62}')


@pytest.mark.parametrize(
    "head, lines, message",
    [
        (_SBM_HEAD, ['{"i":0.5,"j":1}'], "line 2: edge ids must be integers"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":true,"j":1}'], "line 3: edge ids must be integers"),
        (_SBM_HEAD, ['{"i":"1","j":1}'], "line 2: edge ids must be integers"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":2,"j":3}', "", '{"j":1,"i":0}'], "line 5: duplicate edge (0, 1)"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":2,"j":3}', '{"i":0,"j":1}'], "line 4: duplicate edge (0, 1)"),
        (_SBM_HEAD, ['{"truth_u":[1,-1]}', '{"i":0,"j":1}'], "line 2: truth_u has 2 labels, expected 3"),
        (_SBM_HEAD, ['{"truth_u":[1,-1,1],"truth_v":[1,1]}'], "line 2: truth_v has 2 labels, expected 0 or 4"),
        (_SBM_HEAD, ['{"i":0,"j":0}', '{"j":1}'], 'line 3: edge ids must be integers in range, got {"j":1}'),
        (_SBM_HEAD, ['{"truth_u":[1,-1,1]}', '{"i":0,"j":1}', '{"truth_u":[1,1,1]}'],
         "line 4: a second truth_u record"),
        (_SBM_HEAD.replace('"n1":3', f'"n1":{_INT64_PAST}'), ['{"i":0,"j":1}'],
         f"line 1: n1 must be below 2^63, got {_INT64_PAST}"),
        (_BIG_HEAD, ['{"i":0,"j":1}', f'{{"i":0,"j":{_INT64_PAST}}}'],
         "line 3: edge ids must be integers in range"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":01,"j":1}'], "line 3: Expecting ',' delimiter"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":,"j":1}'], "line 3: Expecting value"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":1,"j2":2}'], "line 3: edge ids must be integers in range"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '7{"i":1,"j":2}'], "line 3: Extra data"),
        (_SBM_HEAD, ['{"i":0,"j":1}', '{"i":2,"j":3}', '{"i":1,"j":4}'], "line 4: edge id out of range"),
        (_SBM_HEAD.replace('"n2":4', f'"n2":{2**64}'), [f'{{"i":1,"j":{_INT64_PAST + 5}}}'],
         "line 2: edge ids must be integers in range"),
    ],
    ids=["float-id", "bool-id", "string-id", "duplicate-mixed", "duplicate-canonical",
         "short-truth-u", "short-truth-v", "edge-without-i", "second-truth-u", "n1-past-int64",
         "id-past-int64", "leading-zero-id", "empty-id", "digit-in-key", "digit-before-brace", "canonical-out-of-range",
         "id-past-int64-below-n2"],
)
def test_solve_rejects_malformed_sbm_file(tmp_path, capsys, head, lines, message):
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([head, *lines]) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        files.read_sbm(f)
    assert _run("solve", "-i", str(f), "-o", str(tmp_path / "r.json"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_solve_names_the_file_when_n1_cannot_be_allocated(tmp_path, capsys):
    # numpy refuses vectors of 2^62 float64 entries without allocating anything
    n1 = 2**62
    f = tmp_path / "huge.jsonl"
    f.write_text(_SBM_HEAD.replace('"n1":3', f'"n1":{n1}') + '\n{"i":0,"j":1}\n{"i":1,"j":2}\n')
    assert _run("solve", "-i", str(f), "-o", str(tmp_path / "r.json"), "-q") == 1
    err = capsys.readouterr().err
    assert f"{f}: cannot solve with n1 = {n1}: " in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_solve_csp_names_the_file_when_2n_cannot_be_allocated(tmp_path, capsys):
    # five clauses reduce fine; the solver's vectors over 2n = 2^62 literals do not fit
    n = 2**61
    head = '{"type":"csp","n":%d,"k":3,"m":5,"seed":0,"weights":[0.5,1.5,1.5,0.5,1.5,0.5,0.5,1.5]}' % n
    clauses = [[1, 3, 8], [5, 4, 2], [5, 4, 6], [5, 8, 0], [5, 8, 3]]
    f = tmp_path / "huge.jsonl"
    f.write_text("\n".join([head, *(json.dumps({"vars": v, "signs": [1, -1, 1]}) for v in clauses)]) + "\n")
    assert _run("solve-csp", "-i", str(f), "-o", str(tmp_path / "r.json"), "-q") == 1
    err = capsys.readouterr().err
    assert f"{f}: cannot solve with n = {n}: " in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "weights", [sat_clause_weights(3), noisy_xor_weights(3, 0.8)], ids=["majority", "spi"]
)
def test_solve_csp_rejects_malformed_clause(tmp_path, capsys, weights):
    inst = sample_planted_csp(weights, 10, 50, seed=0)
    inst.clause_vars[7] = [10, 3, 4]  # id == n at the witness position
    f = tmp_path / "bad.jsonl"
    files.write_csp(f, inst, weights, seed=0)
    assert _run("solve-csp", "-i", str(f), "-o", str(tmp_path / "r.json"), "-q") == 2
    err = capsys.readouterr().err
    assert "cannot reduce: clause 7" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def _xor3_file(path, n, clauses):
    """A noisy 3-XOR file with header ``n`` and all-positive clauses."""
    head = {"type": "csp", "n": n, "k": 3, "m": len(clauses), "seed": 0,
            "weights": noisy_xor_weights(3, 0.8).weights.tolist()}
    lines = [json.dumps(head)] + [json.dumps({"vars": c, "signs": [1, 1, 1]}) for c in clauses]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n", [2**62, 2**62 + 10])
@pytest.mark.parametrize("command", ["solve-csp", "reduce"])
def test_n_past_2_to_62_cannot_reduce(tmp_path, capsys, command, n):
    """n1 = 2n literals fit int64 only below n = 2^62; at n = 2^62 `reduce`
    wrote a graph file whose n1 the reader rejects."""
    f = tmp_path / "huge.jsonl"
    _xor3_file(f, n, [[n - 5, 0, 1]])
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 2
    err = capsys.readouterr().err
    assert f"cannot reduce: n = {n} variables" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_reduce_keeps_distinct_tuples_apart_at_n_2_to_61(tmp_path):
    """Tails (2k, 2^62 - 2) pack past int64 even after the first column is
    ranked; keys that wrapped merged two of the five tuples."""
    f, out = tmp_path / "wide.jsonl", tmp_path / "red.jsonl"
    _xor3_file(f, 2**61, [[10, k, 2**61 - 1] for k in range(5)])
    assert _run("reduce", "-i", str(f), "-o", str(out), "-q") == 0
    data = files.read_sbm(out)
    assert data.graph.num_edges == 5 and data.reduced_meta["indexer_size"] == 5


@pytest.mark.parametrize("command", ["solve", "solve-csp", "reduce"])
def test_non_object_first_line_exits_1(tmp_path, capsys, command):
    f = tmp_path / "list.jsonl"
    f.write_text("[1,2]\n")
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert "line 1: not a JSON object" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


_CSP_HEAD = '{"type":"csp","n":4,"k":3,"m":2,"seed":0,"weights":[1,1,1,1,1,1,1,2]}'
_GOLDREICH_HEAD = '{"type":"goldreich","n":4,"k":3,"m":2,"seed":0,"predicate":[1,-1,-1,1,-1,1,1,-1]}'


@pytest.mark.parametrize(
    "head, clause, bad, message",
    [
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"vars":[0.5,1,2],"signs":[1,1,1]}',
         "line 3: clause ids must be a list of 3 integers, got [0.5, 1, 2]"),
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"vars":[0,true,2],"signs":[1,1,1]}',
         "line 3: clause ids must be a list of 3 integers, got [0, true, 2]"),
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"vars":[0,1,"2"],"signs":[1,1,1]}',
         'line 3: clause ids must be a list of 3 integers, got [0, 1, "2"]'),
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"vars":[0,1,2],"signs":[1,1.0,1]}',
         "line 3: clause signs must be a list of 3 integers, got [1, 1.0, 1]"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', '{"vars":[0.5,1,2],"value":1}',
         "line 3: clause ids must be a list of 3 integers, got [0.5, 1, 2]"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', '{"vars":[true,1,2],"value":1}',
         "line 3: clause ids must be a list of 3 integers, got [true, 1, 2]"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', '{"vars":["0",1,2],"value":1}',
         'line 3: clause ids must be a list of 3 integers, got ["0", 1, 2]'),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', '{"vars":[0,1,3],"value":true}',
         "line 3: value must be an integer, got true"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', '{"vars":[0,1,3],"value":0}',
         "values must hold one +1 or -1 per tuple"),
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"sigma":[1,-1,1.0,1]}',
         "line 3: sigma must be a list of +1/-1 integers"),
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"sigma":[1,-1,1]}',
         "line 3: sigma has 3 labels, expected 4"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', '{"sigma":[1,true,1,-1]}',
         "line 3: sigma must be a list of +1/-1 integers"),
        # entries past int64 ended in an OverflowError traceback from numpy
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', f'{{"vars":[{2**63},6,3],"signs":[1,1,1]}}',
         f"line 3: clause ids must be integers within int64, got [{2**63}, 6, 3]"),
        (_CSP_HEAD, '{"vars":[0,1,2],"signs":[1,-1,1]}', f'{{"vars":[0,1,2],"signs":[1,{-2**64},1]}}',
         f"line 3: clause signs must be integers within int64, got [1, {-2**64}, 1]"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', f'{{"vars":[0,1,{2**64}],"value":1}}',
         f"line 3: clause ids must be integers within int64, got [0, 1, {2**64}]"),
        (_GOLDREICH_HEAD, '{"vars":[0,1,2],"value":1}', f'{{"vars":[0,1,3],"value":{2**63}}}',
         f"line 3: value must be an integer within int64, got {2**63}"),
    ],
    ids=["csp-float-id", "csp-bool-id", "csp-string-id", "csp-float-sign",
         "goldreich-float-id", "goldreich-bool-id", "goldreich-string-id", "goldreich-bool-value",
         "goldreich-zero-value",
         "csp-float-sigma", "csp-short-sigma", "goldreich-bool-sigma",
         "csp-id-past-int64", "csp-sign-past-int64", "goldreich-id-past-int64", "goldreich-value-past-int64"],
)
@pytest.mark.parametrize("command", ["solve-csp", "reduce"])
def test_malformed_clause_ids_exit_1(tmp_path, capsys, head, clause, bad, message, command):
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([head, clause, bad]) + "\n")
    reader = files.read_csp if head is _CSP_HEAD else files.read_goldreich
    with pytest.raises(ValueError, match=re.escape(message)):
        reader(f)
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_XOR3_HEAD = json.dumps({"type": "csp", "n": 10, "k": 3, "m": 3, "seed": 0,
                         "weights": noisy_xor_weights(3, 0.8).weights.tolist()})
_PARITY3_HEAD = json.dumps({"type": "goldreich", "n": 10, "k": 3, "m": 3, "seed": 0,
                            "predicate": parity_predicate(3).tolist()})
_XOR3_CLAUSE, _PARITY3_CLAUSE = '{"vars":[0,1,2],"signs":[1,-1,1]}', '{"vars":[0,1,2],"value":1}'


@pytest.mark.parametrize(
    "head, good, bad, code, message",
    [
        (_XOR3_HEAD, _XOR3_CLAUSE, f'{{"vars":[{2**31},1,2],"signs":[1,1,1]}}', 2,
         "cannot reduce: clause 2 (vars [2147483648, 1, 2], signs [1, 1, 1])"),
        (_XOR3_HEAD, _XOR3_CLAUSE, f'{{"vars":[0,{-2**31 - 1},2],"signs":[1,1,1]}}', 2,
         "cannot reduce: clause 2 (vars [0, -2147483649, 2], signs [1, 1, 1])"),
        (_XOR3_HEAD, _XOR3_CLAUSE, '{"vars":[3,1,2],"signs":[1,300,1]}', 2,
         "cannot reduce: clause 2 (vars [3, 1, 2], signs [1, 300, 1])"),
        (_XOR3_HEAD, _XOR3_CLAUSE, '{"vars":[3,1,2],"signs":[1,1,-129]}', 2,
         "cannot reduce: clause 2 (vars [3, 1, 2], signs [1, 1, -129])"),
        (_XOR3_HEAD, _XOR3_CLAUSE, '{"vars":[3,1,2],"signs":[128,1,1]}', 2,
         "cannot reduce: clause 2 (vars [3, 1, 2], signs [128, 1, 1])"),
        (_PARITY3_HEAD, _PARITY3_CLAUSE, f'{{"vars":[{2**31},1,2],"value":1}}', 2,
         "cannot reduce: clause 2 (vars [2147483648, 1, 2], signs [1, 1, 1])"),
        (_PARITY3_HEAD, _PARITY3_CLAUSE, '{"vars":[3,1,2],"value":300}', 1,
         "error: values must hold one +1 or -1 per tuple"),
    ],
    ids=["id-2^31", "id-below-int32", "sign-300", "sign-minus-129", "sign-128", "goldreich-id-2^31",
         "goldreich-value-300"],
)
@pytest.mark.parametrize("command", ["reduce", "solve-csp"])
def test_entries_past_the_compact_dtypes_are_named_as_written(tmp_path, capsys, head, good, bad, code, message, command):
    # the reader keeps such entries int64, so the exit code and the whole
    # message are those of a reader that never narrows
    f = tmp_path / "wide.jsonl"
    f.write_text("\n".join([head, good, good, bad]) + "\n")
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == code
    tail = " needs distinct variable ids in [0, 10) and signs +1/-1" if code == 2 else ""
    assert capsys.readouterr().err == message + tail + "\n"
    assert not (tmp_path / "out").exists()


# laws whose witness leaves clause positions out: 3-SAT, witness (0,); a CSP
# law built on positions 1 and 2, witness (1, 2); majority-3, witness (0,);
# the parity of the first two of three entries, witness (0, 1)
_SAT3_HEAD = json.dumps({"type": "csp", "n": 10, "k": 3, "m": 3, "seed": 0,
                         "weights": sat_clause_weights(3).weights.tolist()})
_TAIL2_HEAD = json.dumps({"type": "csp", "n": 10, "k": 3, "m": 3, "seed": 0,
                          "weights": [1.8, 1.8, 0.2, 0.2, 0.2, 0.2, 1.8, 1.8]})
_MAJ3_HEAD = json.dumps({"type": "goldreich", "n": 10, "k": 3, "m": 3, "seed": 0,
                         "predicate": majority_predicate(3).tolist()})
_PAR01_HEAD = json.dumps({"type": "goldreich", "n": 10, "k": 3, "m": 3, "seed": 0,
                          "predicate": [1, -1, -1, 1, 1, -1, -1, 1]})
_OFF_WITNESS = [
    (_SAT3_HEAD, (0,), f'{{"vars":[3,{2**31},2],"signs":[-1,1,300]}}', "vars [3, 2147483648, 2], signs [-1, 1, 300]"),
    (_SAT3_HEAD, (0,), '{"vars":[5,5,5],"signs":[-1,1,-1]}', "vars [5, 5, 5], signs [-1, 1, -1]"),
    (_TAIL2_HEAD, (1, 2), '{"vars":[10,1,2],"signs":[1,1,1]}', "vars [10, 1, 2], signs [1, 1, 1]"),
    (_TAIL2_HEAD, (1, 2), '{"vars":[2,1,2],"signs":[-1,1,1]}', "vars [2, 1, 2], signs [-1, 1, 1]"),
    (_TAIL2_HEAD, (1, 2), '{"vars":[0,1,2],"signs":[2,1,1]}', "vars [0, 1, 2], signs [2, 1, 1]"),
    (_MAJ3_HEAD, (0,), '{"vars":[3,10,2],"value":1}', "vars [3, 10, 2], signs [1, 1, 1]"),
    (_MAJ3_HEAD, (0,), '{"vars":[3,2,3],"value":-1}', "vars [3, 2, 3], signs [-1, 1, 1]"),
    (_PAR01_HEAD, (0, 1), '{"vars":[0,1,10],"value":-1}', "vars [0, 1, 10], signs [-1, 1, 1]"),
    (_PAR01_HEAD, (0, 1), '{"vars":[4,1,4],"value":1}', "vars [4, 1, 4], signs [1, 1, 1]"),
]


@pytest.mark.parametrize(
    "head, witness, bad, named", _OFF_WITNESS,
    ids=["sat-id-2^31-sign-300", "sat-repeats", "csp-r2-id-10", "csp-r2-repeat", "csp-r2-sign-2",
         "majority-id-10", "majority-repeat", "parity-r2-id-10", "parity-r2-repeat"],
)
def test_a_bad_entry_off_the_witness_exits_2_naming_the_clause(tmp_path, capsys, head, witness, bad, named):
    # clause 2 is faulty only at positions its law's witness leaves out: the
    # majority vote (witness size 1, solve-csp) and the reduction (r = 2,
    # reduce and solve-csp) check all k
    header = json.loads(head)
    if header["type"] == "csp":
        report = distribution_complexity(PlantingDistribution(3, np.array(header["weights"])))
        good = '{"vars":[0,1,2],"signs":[1,-1,1]}'
    else:
        report = predicate_lowest_degree(header["predicate"])
        good = '{"vars":[0,1,2],"value":1}'
    assert report.identifiable and report.subset == witness
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([head, good, good, bad]) + "\n")
    for command in ["solve-csp"] + (["reduce"] if report.r > 1 else []):
        assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 2, command
        assert capsys.readouterr().err == (
            f"cannot reduce: clause 2 ({named}) needs distinct variable ids in [0, 10) and signs +1/-1\n"
        )
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad, named", [
    ('{"vars":[188,2147483648,28],"signs":[-1,1,300]}', "vars [188, 2147483648, 28], signs [-1, 1, 300]"),
    ('{"vars":[188,188,188],"signs":[-1,1,-1]}', "vars [188, 188, 188], signs [-1, 1, -1]"),
], ids=["id-2^31-sign-300", "one-variable-three-times"])
def test_sat_file_with_a_bad_clause_off_the_witness_exits_2(tmp_path, capsys, bad, named):
    # a generated 3-SAT file (witness (0,)) with clause 1234 replaced
    f = tmp_path / "sat.jsonl"
    assert _run("gen-csp", "--preset", "sat", "--n", "200", "--m", "3000", "-o", str(f), "-q") == 0
    lines = f.read_text().splitlines()
    assert json.loads(lines[1]).keys() == {"sigma"}
    lines[2 + 1234] = bad
    f.write_text("\n".join(lines) + "\n")
    assert _run("solve-csp", "-i", str(f), "-q") == 2
    assert capsys.readouterr().err == (
        f"cannot reduce: clause 1234 ({named}) needs distinct variable ids in [0, 200) and signs +1/-1\n"
    )


def _edges_past_a_block() -> bytes:
    """A complete 300 x 300 block-model file whose only fault, a byte that
    is not UTF-8 on line 80002, lies past the reader's first block."""
    lines = [b'{"type":"sbm","n1":300,"n2":300,"delta":1.8,"p":0.5,"seed":0}']
    lines += [b'{"i":%d,"j":%d}' % (i, j) for i in range(300) for j in range(300)]
    lines[80001] = b'{"i":266,"j":\xff}'
    assert len(b"\n".join(lines[:80001])) > files._READ_BLOCK
    return b"\n".join(lines) + b"\n"


_SBM_BAD_HEAD = _SBM_HEAD.encode().replace(b'"seed":0', b'"seed":0,"note":"\xff"') + b'\n{"i":0,"j":1}\n'
_CSP_CLAUSE = b'{"vars":[0,1,2],"signs":[1,-1,1]}\n'
_CSP_BAD_HEAD = _CSP_HEAD.encode().replace(b'"seed":0', b'"seed":\xff0') + b"\n" + _CSP_CLAUSE
_CSP_BAD_CLAUSE = _CSP_HEAD.encode() + b"\n" + _CSP_CLAUSE + b'{"vars":[3,1,0],"signs":[-1,-1,1],"note":"\xc3"}\n'


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("solve", _SBM_BAD_HEAD, "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        ("solve", _edges_past_a_block, "line 80002: byte 0xff is not UTF-8 (invalid start byte)"),
        ("solve-csp", _CSP_BAD_HEAD, "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        ("reduce", _CSP_BAD_HEAD, "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
        ("solve-csp", _CSP_BAD_CLAUSE, "line 3: byte 0xc3 is not UTF-8 (invalid continuation byte)"),
        ("reduce", _CSP_BAD_CLAUSE, "line 3: byte 0xc3 is not UTF-8 (invalid continuation byte)"),
    ],
    ids=["solve-header", "solve-edge-past-first-block", "solve-csp-header", "reduce-header",
         "solve-csp-clause", "reduce-clause"],
)
def test_byte_that_is_not_utf8_names_file_and_line(tmp_path, capsys, command, text, message):
    f = tmp_path / "bad.jsonl"
    f.write_bytes(text() if callable(text) else text)
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert f"{f}, {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_SIZES = "line 1: n and k must be positive integers"
_TABLE = "line 1: the header needs a {table} list"


@pytest.mark.parametrize(
    "old, new, clauses, message",
    [('"k":3', '"k":"3"', 0, _SIZES), ('"n":4', '"n":"4"', 1, _SIZES), ('"k":3,', "", 0, _SIZES),
     ('"n":4', '"n":0', 1, _SIZES), (r',"\w+":\[.*\]', "", 1, _TABLE), (r'\[.*\]', '"1,-1"', 0, _TABLE),
     (r"\[1,", "[null,", 1, _TABLE), (r"\[1,", "[true,", 1, _TABLE), (r"\[1,", '["1",', 1, _TABLE),
     (r"\[1,", "[NaN,", 1, _TABLE)],
    ids=["string-k", "string-n", "missing-k", "zero-n", "missing-table", "string-table", "null-entry",
         "bool-entry", "string-entry", "nan-entry"],
)
@pytest.mark.parametrize("head", [_CSP_HEAD, _GOLDREICH_HEAD], ids=["csp", "goldreich"])
@pytest.mark.parametrize("command", ["solve-csp", "reduce"])
def test_bad_header_sizes_exit_1(tmp_path, capsys, old, new, clauses, message, head, command):
    clause = '{"vars":[0,1,2],"signs":[1,-1,1]}' if head is _CSP_HEAD else '{"vars":[0,1,2],"value":1}'
    f = tmp_path / "bad.jsonl"
    f.write_text("\n".join([re.sub(old, new, head), *[clause] * clauses]) + "\n")
    message = message.format(table="weights" if head is _CSP_HEAD else "predicate")
    reader = files.read_csp if head is _CSP_HEAD else files.read_goldreich
    with pytest.raises(ValueError, match=re.escape(message)):
        reader(f)
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve-csp", "reduce"])
def test_fractional_predicate_entry_exits_1(tmp_path, capsys, command):
    f = tmp_path / "bad.jsonl"
    f.write_text(_GOLDREICH_HEAD.replace("[1,", "[1.5,") + '\n{"vars":[0,1,2],"value":1}\n')
    message = "line 1: the header needs a predicate list of integers"
    with pytest.raises(ValueError, match=re.escape(message)):
        files.read_goldreich(f)
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "head, table, message",
    [(_CSP_HEAD, "[1,1,1,1]", "weights must have length 2^k = 8"),
     (_CSP_HEAD, "[1,1,1,1,1,1,1,-2]", "weights must be nonnegative"),
     (_CSP_HEAD, "[0,0,0,0,0,0,0,0]", "weight table must not be identically zero"),
     (_GOLDREICH_HEAD, "[1,-1,-1,1,-1,1,1,2]", "predicate must be a +/-1 table of length 2^k")],
    ids=["weights-length", "negative-weight", "zero-weights", "predicate-entry-2"],
)
@pytest.mark.parametrize("command", ["solve-csp", "reduce"])
def test_bad_header_table_values_name_file_and_line(tmp_path, capsys, head, table, message, command):
    clause = '{"vars":[0,1,2],"signs":[1,-1,1]}' if head is _CSP_HEAD else '{"vars":[0,1,2],"value":1}'
    f = tmp_path / "bad.jsonl"
    f.write_text(re.sub(r"\[.*\]", table, head) + "\n" + clause + "\n")
    message = f"{f}, line 1: {message}"
    with pytest.raises(ValueError, match=re.escape(message)):
        files.read_constraints(f)
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "nan"], "p must be finite"),
     (["gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "inf"], "p must be finite"),
     (["gen-sbm", "--n1", "10", "--n2", "10", "--delta", "nan", "--p", "0.1"], "delta must lie in [0, 2]"),
     (["gen-csp", "--n", "10", "--m", "-5", "--preset", "noisy-xor"], "m must be an integer >= 0, got -5"),
     (["gen-goldreich", "--n", "10", "--m", "-3", "--predicate", "1,-1,-1,1"], "m must be an integer >= 0, got -3"),
     (["gen-csp", "--n", "10", "--m", "5", "--weights", "inf,1,1,1"], "weights must be finite"),
     (["analyze-q", "--weights", "nan,1,1,1"], "weights must be finite"),
     (["gen-goldreich", "--n", "10", "--m", "5", "--predicate", "1"], "length 2^k with k >= 1"),
     (["gen-csp", "--n", "10", "--m", "5", "--preset", "uniform", "--k", "-1"], "k must be an integer >= 1, got -1"),
     (["gen-csp", "--n", "10", "--m", "5", "--preset", "noisy-xor", "--k", "-2"], "k must be an integer >= 1, got -2"),
     (["analyze-q", "--preset", "sat", "--k", "-1"], "k must be an integer >= 1, got -1"),
     (["analyze-q", "--preset", "uniform", "--k", "0"], "k must be an integer >= 1, got 0")],
    ids=["nan-p", "inf-p", "nan-delta", "negative-csp-m", "negative-goldreich-m", "inf-weight",
         "nan-weight", "goldreich-k-zero", "gen-csp-uniform-negative-k", "gen-csp-noisy-xor-negative-k",
         "analyze-q-sat-negative-k", "analyze-q-uniform-zero-k"],
)
def test_bad_generator_parameters_exit_1(tmp_path, capsys, argv, message):
    assert _run(*argv, "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, preset",
    [(["analyze-q", "--preset", "uniform", "--k", "36"], "uniform_weights"),
     (["gen-csp", "--n", "50", "--m", "10", "--preset", "sat", "--k", "40"], "sat_clause_weights")],
    ids=["analyze-q-uniform", "gen-csp-sat"],
)
def test_weight_preset_too_large_to_allocate_exits_1(tmp_path, capsys, monkeypatch, argv, preset):
    # the preset raises as numpy does when it refuses a 2^k table; no real
    # allocation is tried, since a host that overcommits would not refuse it
    def refuse(k, *rest):
        raise MemoryError(f"Unable to allocate {2**k * 8} bytes for a weight table")

    monkeypatch.setattr(f"planted.cli.{preset}", refuse)
    assert _run(*argv, "-o", str(tmp_path / "out"), "-q") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["csp", "goldreich"])
@pytest.mark.parametrize("command", ["reduce", "solve-csp"])
def test_constraint_commands_open_their_input_once(tmp_path, monkeypatch, kind, command):
    f = tmp_path / "in.jsonl"
    gen = ["gen-csp", "--k", "2", "--preset", "noisy-xor", "--eta", "0.8"]
    if kind == "goldreich":
        gen = ["gen-goldreich", "--predicate=1,-1,-1,1"]
    assert _run(*gen, "--n", "20", "--m", "2000", "-o", str(f), "-q") == 0
    opened, real_open = [], builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    assert _run(command, "-i", str(f), "-o", str(tmp_path / "out"), "-q") in (0, 2)
    monkeypatch.undo()
    assert opened.count(str(f)) == 1


def test_gen_goldreich_solve_csp_matches_in_memory(tmp_path, capsys):
    pred = parity_predicate(3)
    f = tmp_path / "g.jsonl"
    assert _run("gen-goldreich", "--n", "100", "--m", "60000",
                "--predicate=" + ",".join(str(v) for v in pred),
                "--seed", "6", "-o", str(f), "-q") == 0
    assert _run("solve-csp", "-i", str(f), "--seed", "7", "--t-factor", "3.0", "-q") == 0
    cli_res = json.loads(capsys.readouterr().out)
    assert cli_res["overlap"] == 1.0

    inst = sample_goldreich(pred, 100, 60_000, seed=6)
    assignment, rep = solve_goldreich_end_to_end(inst, seed=7, config=SolverConfig(T_factor=3.0))
    assert cli_res == {**rep.to_dict(), "assignment": [int(a) for a in assignment]}


def test_exit_codes(tmp_path):
    assert _run("no-such-command") == 1
    assert _run("gen-sbm", "--bogus-flag") == 1
    assert _run("solve", "-i", str(tmp_path / "missing.jsonl")) == 3
    # degenerate solve: zero-density graph
    f = tmp_path / "empty.jsonl"
    _run("gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.0",
         "--seed", "0", "-o", str(f), "-q")
    assert _run("solve", "-i", str(f), "-q", "-o", str(tmp_path / "r.json")) == 2


def test_solve_csp_unidentifiable_exits_2(tmp_path):
    f = tmp_path / "uniform.jsonl"
    _run("gen-csp", "--n", "20", "--m", "100", "--preset", "uniform", "--k", "3",
         "--seed", "1", "-o", str(f), "-q")
    assert _run("solve-csp", "-i", str(f), "-q", "-o", str(tmp_path / "r.json")) == 2
    assert json.loads((tmp_path / "r.json").read_text())["status"] == "unidentifiable"


def test_sweep_cli_toml_and_determinism(tmp_path):
    cfg = tmp_path / "sweep.toml"
    cfg.write_text(
        'family = "sbm"\nmultipliers = [2.0, 12.0]\ntrials = 3\nseed = 5\n'
        "n1 = 128\nn2 = 128\ndelta = 1.8\n\n[solver]\nT_factor = 5.0\n"
    )
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert _run("sweep", "-c", str(cfg), "-o", str(out1), "-q") == 0
    assert _run("sweep", "-c", str(cfg), "-o", str(out2), "-q") == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "multiplier,trials,exact_rate,mean_overlap,mean_runtime_ms,mean_edges"
    assert len(lines) == 3


def test_sweep_cli_json_config_fallback(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "family": "sbm", "multipliers": [10.0], "trials": 2, "seed": 1,
        "n1": 128, "n2": 128, "delta": 1.8, "solver": {"T_factor": 5.0},
    }))
    out = tmp_path / "s.csv"
    assert _run("sweep", "-c", str(cfg), "-o", str(out), "-q") == 0
    assert out.exists()


def test_format_flag_only_on_sweep(tmp_path):
    assert _run("gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.1",
                "--format", "json", "-o", str(tmp_path / "x.jsonl")) == 1
    assert not (tmp_path / "x.jsonl").exists()
    cfg = tmp_path / "sweep.toml"
    cfg.write_text('family = "sbm"\nmultipliers = [2.0, 12.0]\ntrials = 2\nn1 = 64\nn2 = 64\n')
    out = tmp_path / "s.json"
    assert _run("sweep", "-c", str(cfg), "-o", str(out), "--format", "json", "-q") == 0
    rows = json.loads(out.read_text())
    assert [r["multiplier"] for r in rows] == [2.0, 12.0]
    assert set(rows[0]) == {"multiplier", "trials", "exact_rate", "mean_overlap",
                            "mean_runtime_ms", "mean_edges"}


@pytest.mark.parametrize("argv", [["analyze-q", "--preset", "sat"], ["sweep", "--print-config"]],
                         ids=["analyze-q", "sweep"])
def test_seed_flag_rejected_where_nothing_reads_it(capsys, argv):
    assert _run(*argv, "--seed", "99") == 1
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err


@pytest.mark.parametrize("window, message", [("0.9,0.2", "majority_window must satisfy 0 <= lo < hi <= 1"),
                                             ("0.9", "--window must be two fractions lo,hi, got '0.9'")],
                         ids=["reversed", "one-value"])
@pytest.mark.parametrize("command", ["solve", "solve-csp"])
def test_bad_window_exits_1_before_reading_the_input(tmp_path, capsys, window, message, command):
    # the input does not exist: reading it would exit 3
    assert _run(command, "-i", str(tmp_path / "missing.jsonl"), f"--window={window}", "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "n1" not in err and "Traceback" not in err


def test_solve_rejects_mode_flag(tmp_path):
    f = tmp_path / "sbm.jsonl"
    assert _run("gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.3",
                "-o", str(f), "-q") == 0
    assert _run("solve", "-i", str(f), "--mode", "implicit_sparse", "-q") == 1


@pytest.mark.parametrize("t_factor", ["inf", "-inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", ["solve", "solve-csp"])
def test_bad_t_factor_exits_1(tmp_path, capsys, t_factor, command):
    f = tmp_path / "in.jsonl"
    if command == "solve":
        _run("gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.3", "-o", str(f), "-q")
    else:
        _run("gen-csp", "--n", "10", "--m", "50", "--preset", "noisy-xor", "-o", str(f), "-q")
    capsys.readouterr()
    assert _run(command, "-i", str(f), f"--t-factor={t_factor}", "-o", str(tmp_path / "r.json"), "-q") == 1
    err = capsys.readouterr().err
    assert "T_factor must be finite and positive" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("t_factor", ["1e300", "1.7e308"])
@pytest.mark.parametrize("command", ["solve", "solve-csp"])
def test_t_factor_too_large_to_split_by_exits_1_naming_it(tmp_path, capsys, t_factor, command):
    # solve used to blame n1: "cannot solve with n1 = 10: high is out of bounds for int64"
    f = tmp_path / "in.jsonl"
    if command == "solve":
        _run("gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.3", "-o", str(f), "-q")
    else:
        _run("gen-csp", "--n", "10", "--m", "50", "--preset", "noisy-xor", "-o", str(f), "-q")
    capsys.readouterr()
    assert _run(command, "-i", str(f), f"--t-factor={t_factor}", "-o", str(tmp_path / "r.json"), "-q") == 1
    err = capsys.readouterr().err
    assert f"error: T_factor = {float(t_factor)!r} gives T = " in err
    assert "past the 2^63 the edge split can draw" in err
    assert "n1 = " in err and "cannot solve" not in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def _inputs(tmp_path):
    sbm, csp = tmp_path / "sbm.jsonl", tmp_path / "csp.jsonl"
    _run("gen-sbm", "--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.3", "-o", str(sbm), "-q")
    _run("gen-csp", "--n", "30", "--m", "2000", "--preset", "noisy-xor", "--k", "2", "-o", str(csp), "-q")
    return sbm, csp


_GEN_ARGS = {
    "gen-sbm": ["--n1", "10", "--n2", "10", "--delta", "1.8", "--p", "0.3"],
    "gen-csp": ["--n", "10", "--m", "50", "--preset", "noisy-xor"],
    "gen-goldreich": ["--n", "10", "--m", "50", "--predicate=1,-1,-1,1"],
}


@pytest.mark.parametrize("command", ["gen-sbm", "gen-csp", "gen-goldreich", "reduce", "solve", "solve-csp"])
def test_negative_seed_exits_1_naming_the_flag(tmp_path, capsys, command):
    sbm, csp = _inputs(tmp_path)
    args = _GEN_ARGS.get(command) or ["-i", str(sbm if command == "solve" else csp)]
    capsys.readouterr()
    out = tmp_path / "out"
    assert _run(command, *args, "--seed", "-1", "-o", str(out), "-q") == 1
    err = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got -1" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["2", "nan", "-3", "inf"])
@pytest.mark.parametrize("command", ["reduce", "solve-csp"])
def test_epsilon_outside_unit_interval_exits_1_naming_the_flag(tmp_path, capsys, epsilon, command):
    _, csp = _inputs(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["-i", str(csp), "--thinning", "poisson", f"--epsilon={epsilon}", "-o", str(out), "-q"]
    assert _run(command, *argv) == 1
    err = capsys.readouterr().err
    assert f"argument --epsilon: must be a number in [0, 1], got {epsilon}" in err
    assert not out.exists()


def test_reduce_solve_past_int64_right_side(tmp_path, capsys):
    # Witness size 8: n2 = comb(2n, 7) > 2^63. The reduced file carries the
    # exact n2, read_sbm's duplicate check packs id ranks since n1 * n2
    # overflows int64, and the distinct tuples leave every right vertex with
    # one edge, so consecutive sub-graphs share no support and the solve
    # reports degenerate.
    csp, red, out = tmp_path / "csp.jsonl", tmp_path / "red.jsonl", tmp_path / "r.json"
    assert _run("gen-csp", "--n", "1000", "--k", "8", "--preset", "noisy-xor", "--eta", "0.8",
                "--m", "20000", "--seed", "3", "-o", str(csp), "-q") == 0
    assert _run("reduce", "-i", str(csp), "-o", str(red), "-q") == 0
    data = files.read_sbm(red)
    n2 = math.comb(2000, 7)
    assert n2 > 2**63
    assert data.header["n2"] == data.graph.n2 == data.reduced_meta["n2_nominal"] == n2
    assert data.graph.n1 * data.graph.n2 > np.iinfo(np.int64).max
    assert data.graph.num_edges == 20_000
    assert _run("solve", "-i", str(red), "-o", str(out), "-q") == 2
    assert json.loads(out.read_text())["status"] == "degenerate"


def test_sweep_cli_malformed_toml_exits_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.toml"
    cfg.write_text('family = "sbm"\ntrials = \n')
    with pytest.raises(tomllib.TOMLDecodeError) as parse:
        tomllib.loads(cfg.read_text())
    assert _run("sweep", "-c", str(cfg), "-o", str(tmp_path / "s.csv"), "-q") == 1
    assert str(parse.value) in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_closes_its_config_file(tmp_path, monkeypatch):
    # an unclosed file warns from its finalizer, where an error is unraisable
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    cfg = tmp_path / "sweep.toml"
    cfg.write_text('family = "sbm"\nmultipliers = [4.0]\ntrials = 1\nn1 = 32\nn2 = 32\n')
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert _run("sweep", "-c", str(cfg), "-o", str(tmp_path / "s.csv"), "-q") == 0
        gc.collect()
    assert [u.exc_value for u in unraisable] == []


_SWEEP_BASE = {"multipliers": "[4.0]", "trials": "1", "n": "20", "n1": "32", "n2": "32"}


@pytest.mark.parametrize(
    "text, message",
    [('family = "csp"\n', "family 'csp' needs weights"),
     ('family = "goldreich"\n', "family 'goldreich' needs a predicate"),
     ("trails = 1\n", "sweep config: unknown key 'trails'"),
     ("[solver]\nT_fator = 3.0\n", "sweep config: unknown key 'solver.T_fator'"),
     ("solver = 3\n", "sweep config: the config and its [solver] must be tables"),
     ("multipliers = 3\n", "multipliers must be a non-empty list of positive numbers, got 3"),
     ("[solver]\nmajority_window = 0.5\n", "majority_window must satisfy 0 <= lo < hi <= 1, got 0.5"),
     ("trials = true\n", "trials must be an integer >= 1, got True"),
     ("trials = 1.9\n", "trials must be an integer >= 1, got 1.9"),
     ('seed = "7"\n', "seed must be an integer >= 0, got '7'"),
     ('family = "goldreich"\npredicate = [1.5, -1, -1, 1]\n', "predicate must be a list of integers"),
     ("n1 = 0\n", "n1 must be an integer >= 1, got 0"),
     ("delta = 1.0\n", "delta must lie in [0, 2] and differ from 1, got 1.0"),
     ('[solver]\nT_factor = "3"\n', "T_factor must be finite and positive, got '3'"),
     ('family = "csp"\nweights = [true, 1, 1, 1]\n',
      "weights must be a list of numbers, got [True, 1, 1, 1]")],
    ids=["csp-without-weights", "goldreich-without-predicate", "unknown-key", "unknown-solver-key",
         "solver-not-a-table", "multipliers-not-a-list", "window-not-a-list", "bool-trials",
         "float-trials", "string-seed", "float-predicate", "zero-n1", "delta-one", "string-t-factor",
         "bool-weight"],
)
def test_sweep_config_errors_exit_1(tmp_path, capsys, text, message):
    cfg = tmp_path / "sweep.toml"
    # a case's own top-level keys replace the base's (TOML refuses a key twice)
    base = [f"{k} = {v}\n" for k, v in _SWEEP_BASE.items() if not re.search(rf"^{k} =", text, re.M)]
    cfg.write_text("".join(base) + text)
    assert _run("sweep", "-c", str(cfg), "-o", str(tmp_path / "s.csv"), "-q") == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_json_runtime_zeroed_unless_timed(tmp_path):
    cfg = tmp_path / "sweep.toml"
    cfg.write_text('family = "sbm"\nmultipliers = [2.0, 12.0]\ntrials = 2\nn1 = 64\nn2 = 64\n')
    a, b, wall = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "wall.json"
    for out in (a, b):
        assert _run("sweep", "-c", str(cfg), "-o", str(out), "--format", "json", "-q") == 0
    assert a.read_bytes() == b.read_bytes()
    assert [r["mean_runtime_ms"] for r in json.loads(a.read_text())] == [0.0, 0.0]
    assert _run("sweep", "-c", str(cfg), "-o", str(wall), "--format", "json", "--timing", "wall", "-q") == 0
    assert all(r["mean_runtime_ms"] > 0 for r in json.loads(wall.read_text()))


def test_sweep_print_config(capsys):
    assert _run("sweep", "--print-config") == 0
    cfg = json.loads(capsys.readouterr().out)
    assert "multipliers" in cfg and "family" in cfg


def test_sweep_print_config_reads_back_as_the_default_spec(capsys):
    assert _run("sweep", "--print-config") == 0
    assert _sweep_spec_from_config(json.loads(capsys.readouterr().out)) == SweepSpec()


def test_sweep_requires_config():
    assert _run("sweep") == 1


def test_csp_file_roundtrip(tmp_path):
    q = noisy_xor_weights(3, 0.5)
    inst = sample_planted_csp(q, 15, 50, seed=9)
    f = tmp_path / "c.jsonl"
    files.write_csp(f, inst, q, seed=9)
    back = files.read_csp(f)
    assert back.instance.n == 15
    assert np.array_equal(back.instance.clause_vars, inst.clause_vars)
    assert np.array_equal(back.instance.clause_signs, inst.clause_signs)
    assert np.array_equal(back.instance.sigma, inst.sigma)
    assert np.array_equal(back.weights.weights, q.weights)


# ---------------------------------------------------------------------------
# Generated mutations at the compact dtypes' edges
# ---------------------------------------------------------------------------

# the ends of int8 (signs, values) and int32 (ids), one past each, and one past int64
_DTYPE_EDGES = [127, 128, -128, -129, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**63]


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    """The records of three generated files at n = 200, where the ids 127
    and 128 are in range: noisy 3-XOR (the spi route), 3-SAT (the majority
    route of solve-csp) and 3-parity predicate constraints."""
    tmp = tmp_path_factory.mktemp("edges")
    for name, q in (("xor", noisy_xor_weights(3, 0.8)), ("sat", sat_clause_weights(3))):
        files.write_csp(tmp / name, sample_planted_csp(q, 200, 40, seed=1), q, seed=1)
    files.write_goldreich(tmp / "parity", sample_goldreich(parity_predicate(3), 200, 40, seed=1), seed=1)
    return {name: [json.loads(line) for line in (tmp / name).read_text().splitlines()]
            for name in ("xor", "sat", "parity")}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["xor", "sat", "parity"]), data=st.data())
def test_constraint_files_with_entries_at_the_dtype_edges_exit_cleanly(edge_files, tmp_path_factory, kind, data):
    records = json.loads(json.dumps(edge_files[kind]))
    for _ in range(data.draw(st.integers(1, 3))):
        rec = records[data.draw(st.integers(2, len(records) - 1))]  # past the header and sigma
        field = data.draw(st.sampled_from([f for f in ("vars", "signs", "value") if f in rec]))
        value = data.draw(st.sampled_from(_DTYPE_EDGES))
        if field == "value":
            rec[field] = value
        else:
            rec[field][data.draw(st.integers(0, 2))] = value
    f = tmp_path_factory.mktemp("mutated") / "in.jsonl"
    f.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    for command in ("reduce", "solve-csp"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = _run(command, "-i", str(f), "-o", str(f.with_suffix(".out")), "-q")
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
