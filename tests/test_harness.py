"""End-to-end pipeline and sweep tests."""
import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from planted import files, harness
from planted.fourier import distribution_complexity, distribution_witnesses, predicate_lowest_degree
from planted.harness import (
    CSV_HEADER,
    SweepSpec,
    run_sweep,
    solve_csp_end_to_end,
    solve_goldreich_end_to_end,
    threshold_density,
    write_sweep_csv,
)
from planted.instances import (
    GoldreichInstance,
    PlantedCspInstance,
    PlantingDistribution,
    _pattern_table,
    majority_predicate,
    noisy_xor_weights,
    parity_predicate,
    sample_goldreich,
    sample_planted_csp,
    sat_clause_weights,
    uniform_weights,
)
from planted.reduction import ReductionError, csp_to_bipartite, goldreich_to_bipartite
from planted.solver import SolverConfig, majority_vote_r1


def test_end_to_end_noisy_2xor():
    n = 200
    q = noisy_xor_weights(2, 0.9)
    inst = sample_planted_csp(q, n, int(100 * n * math.log(n)), seed=0)
    assignment, rep = solve_csp_end_to_end(inst, q, seed=1, config=SolverConfig(T_factor=3.0))
    assert rep.status == "ok" and rep.route == "spi"
    assert (rep.r, rep.subset) == (2, (0, 1))
    assert rep.delta == pytest.approx(1.9)
    assert rep.overlap == 1.0
    assert rep.solver is not None and rep.solver.ok


def test_a_numpy_seed_at_its_dtypes_top_decodes_as_its_python_int():
    # the decode's coin takes seed + 1, which must not wrap to 0 in uint32
    q = noisy_xor_weights(2, 0.9)
    inst = sample_planted_csp(q, 60, int(100 * 60 * math.log(60)), seed=2)
    config = SolverConfig(T_factor=3.0)
    _same_solve(*(solve_csp_end_to_end(inst, q, seed=s, config=config) for s in (np.uint32(2**32 - 1), 2**32 - 1)))


@pytest.mark.parametrize("pipeline", ["csp", "goldreich"])
def test_the_pipelines_seed_replaces_the_configs_seed(pipeline):
    # config.seed 99, 4 and 5 give one solve: the split and start vector take seed = 4
    n, q = 40, noisy_xor_weights(3, 0.8)
    configs = [SolverConfig(T_factor=6.0, seed=s) for s in (99, 4, 5)]
    if pipeline == "csp":
        inst = sample_planted_csp(q, n, math.floor(50 * n**1.5 * math.log(n)), seed=3)
        solves = [solve_csp_end_to_end(inst, q, seed=4, config=config) for config in configs]
    else:
        inst = sample_goldreich(parity_predicate(3), n, 30_000, seed=3)
        solves = [solve_goldreich_end_to_end(inst, seed=4, config=config) for config in configs]
    _same_solve(solves[0], solves[1])
    _same_solve(solves[0], solves[2])
    assert solves[0][1].route == "spi"


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
    (3, ("fb08502a7e13d6e3", "75a8e4dda6e704a0")),
    (11, ("d2a8dd5680d9bbda", "87e2c9f42e6e6868")),
])
def test_csp_route_keeps_its_per_seed_digests(seed, digests):
    # the reduction's edges, and the reduce-split-iterate-decode stream behind
    # solve_csp_end_to_end, on noisy 3-XOR with n = 60 (95k clauses)
    n, q = 60, noisy_xor_weights(3, 0.8)
    inst = sample_planted_csp(q, n, math.floor(50 * n**1.5 * math.log(n)), seed)
    reduced = csp_to_bipartite(inst, distribution_complexity(q), seed=seed + 1)
    assignment, rep = solve_csp_end_to_end(inst, q, seed=seed + 1, config=SolverConfig(T_factor=6.0))
    report = rep.to_dict()
    assert report["status"] == "ok" and report["overlap"] == 1.0
    # the truth trace is a float sum: rounded, so that a platform whose
    # summation differs in the last bits keeps the digest
    report["solver"]["U_trace"] = [round(x, 9) for x in report["solver"]["U_trace"]]
    assert (_sha(reduced.graph.edges), _sha(json.dumps(report).encode(), assignment)) == digests


def test_end_to_end_majority_route():
    n = 200
    q = sat_clause_weights(3)
    inst = sample_planted_csp(q, n, int(130 * n * math.log(n)), seed=2)
    assignment, rep = solve_csp_end_to_end(inst, q, seed=3)
    assert rep.route == "majority" and rep.r == 1
    assert rep.overlap == 1.0


def test_end_to_end_uniform_is_unidentifiable():
    inst = sample_planted_csp(uniform_weights(3), 20, 100, seed=0)
    assignment, rep = solve_csp_end_to_end(inst, uniform_weights(3), seed=1)
    assert assignment is None and rep.status == "unidentifiable"
    assert rep.to_dict()["r"] == "inf"


@pytest.mark.parametrize(
    "weights", [sat_clause_weights(3), noisy_xor_weights(3, 0.8)], ids=["majority", "spi"]
)
@pytest.mark.parametrize(
    "vars_row, signs_row",
    [([10, 3, 4], [1, 1, 1]), ([3, 4, 5], [0, 1, 1])],  # id == n; zero sign
)
def test_end_to_end_rejects_malformed_witness_literal(weights, vars_row, signs_row):
    good = sample_planted_csp(weights, 10, 50, seed=0)
    inst = PlantedCspInstance(
        10,
        good.sigma,
        np.vstack([good.clause_vars, [vars_row]]),
        np.vstack([good.clause_signs, [signs_row]]),
    )
    with pytest.raises(ReductionError, match=r"^clause 50 \("):
        solve_csp_end_to_end(inst, weights, seed=1)


def test_end_to_end_try_all_witnesses():
    n = 200
    q = noisy_xor_weights(2, 0.9)
    inst = sample_planted_csp(q, n, int(100 * n * math.log(n)), seed=4)
    a1, rep1 = solve_csp_end_to_end(inst, q, seed=5, config=SolverConfig(T_factor=3.0))
    a2, rep2 = solve_csp_end_to_end(
        inst, q, seed=5, config=SolverConfig(T_factor=3.0), try_all_witnesses=True
    )
    assert rep2.overlap == 1.0
    assert rep2.subset == rep1.subset  # single witness here


def _two_witness_law() -> PlantingDistribution:
    """1 + 0.45 z0 z1 + 0.45 z1 z2 over k = 3: witnesses (0, 1) and (1, 2)."""
    z = np.array([[1 if idx >> i & 1 else -1 for i in range(3)] for idx in range(8)])
    return PlantingDistribution(3, 1 + 0.45 * z[:, 0] * z[:, 1] + 0.45 * z[:, 1] * z[:, 2])


@pytest.mark.parametrize("m, seed", [(3000, 3), (1000, 6)], ids=["second-fewer", "first-fewer"])
def test_try_all_witnesses_keeps_the_decoding_with_the_fewest_inconsistent_pairs(m, seed):
    q = _two_witness_law()
    witnesses = distribution_witnesses(q)
    assert [w.subset for w in witnesses] == [(0, 1), (1, 2)]
    inst = sample_planted_csp(q, 60, m, seed=seed)
    config = SolverConfig(T_factor=3.0)
    each = [harness._solve_clauses(inst, w, [w], 5, "dedup", 0.5, config) for w in witnesses]
    assert all(rep.status == "ok" for _, rep in each)
    want = min(each, key=lambda run: run[1].inconsistent_pairs)
    assignment, rep = solve_csp_end_to_end(inst, q, seed=5, config=config, try_all_witnesses=True)
    assert rep.to_dict() == want[1].to_dict() and np.array_equal(assignment, want[0])


@pytest.mark.parametrize(
    "bads, chosen, status",
    [((3, 3), (0, 1), "ok"), ((5, 2), (1, 2), "ok"), ((None, 4), (1, 2), "ok"), ((4, None), (0, 1), "ok"),
     ((None, None), (0, 1), "degenerate")],
    ids=["tie", "second-fewer", "first-degenerate", "second-degenerate", "all-degenerate"],
)
def test_try_all_witnesses_takes_the_first_of_the_fewest_and_a_degenerate_try_last(monkeypatch, bads, chosen, status):
    # each try's decoding is stubbed: None is a degenerate solve
    q = _two_witness_law()
    inst = sample_planted_csp(q, 20, 200, seed=0)
    tries = dict(zip(((0, 1), (1, 2)), bads))

    def run_reduced(witness, seed, config):
        bad = tries[witness.subset]
        return (None, ("solve", witness.subset), 0) if bad is None else (inst.sigma, ("solve", witness.subset), bad)

    monkeypatch.setattr(harness, "csp_to_bipartite", lambda instance, witness, **kw: witness)
    monkeypatch.setattr(harness, "_run_reduced", run_reduced)
    assignment, rep = solve_csp_end_to_end(inst, q, seed=1, try_all_witnesses=True)
    assert (rep.subset, rep.status, rep.route, rep.solver) == (chosen, status, "spi", ("solve", chosen))
    assert rep.inconsistent_pairs == (tries[chosen] or 0)
    assert (assignment is None) == (status == "degenerate")


def test_a_degenerate_solve_of_the_reduced_graph_is_reported():
    # a NaN density leaves every iterate at zero norm
    q = noisy_xor_weights(2, 0.9)
    inst = sample_planted_csp(q, 30, 2000, seed=0)
    assignment, rep = solve_csp_end_to_end(inst, q, seed=1, config=SolverConfig(p_override=math.nan))
    assert assignment is None
    assert (rep.status, rep.route, rep.overlap, rep.inconsistent_pairs) == ("degenerate", "spi", None, 0)
    assert rep.solver is not None and not rep.solver.ok


def test_goldreich_end_to_end_parity():
    pred = parity_predicate(3)
    inst = sample_goldreich(pred, 100, 60_000, seed=6)
    assignment, rep = solve_goldreich_end_to_end(inst, seed=7, config=SolverConfig(T_factor=3.0))
    assert rep.route == "spi" and rep.r == 3
    assert rep.overlap == 1.0


def test_goldreich_end_to_end_majority():
    pred = majority_predicate(3)
    n = 300
    inst = sample_goldreich(pred, n, int(60 * n * math.log(n)), seed=8)
    assignment, rep = solve_goldreich_end_to_end(inst, seed=9)
    assert rep.route == "majority" and rep.r == 1
    assert rep.overlap == 1.0


def _same_reduction(a, b):
    assert (a.graph.n1, a.graph.n2, a.delta, a.p_equiv) == (b.graph.n1, b.graph.n2, b.delta, b.p_equiv)
    for x, y in ((a.graph.edges, b.graph.edges), (a.indexer.materialized(), b.indexer.materialized()),
                 (a.truth.u, b.truth.u), (a.truth.v, b.truth.v)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def _same_solve(a, b):
    (x, rep_x), (y, rep_y) = a, b
    assert rep_x.status == "ok" and np.array_equal(x, y) and rep_x.to_dict() == rep_y.to_dict()


def _head(instance, *names, m=3000):
    """``instance`` with only its first m constraints, each array in its own dtype."""
    return replace(instance, **{name: getattr(instance, name)[:m] for name in names})


def _shuffled(instance, seed: int):
    """``instance`` with its constraints in a seeded random order."""
    order = np.random.default_rng(seed).permutation(instance.m)
    names = ("clause_vars", "clause_signs") if isinstance(instance, PlantedCspInstance) else ("tuple_vars", "values")
    return replace(instance, **{name: getattr(instance, name)[order] for name in names})


@pytest.mark.parametrize("pipeline", ["csp", "goldreich"])
def test_a_dedup_reduction_and_solve_are_functions_of_the_clause_multiset(pipeline):
    # the tuples are numbered in lexicographic order, not in order of first appearance
    n, q, config = 40, noisy_xor_weights(3, 0.8), SolverConfig(T_factor=6.0)
    if pipeline == "csp":
        inst = sample_planted_csp(q, n, math.floor(50 * n**1.5 * math.log(n)), seed=3)
        reductions = [lambda x: csp_to_bipartite(x, distribution_complexity(q))]
        solve = lambda x: solve_csp_end_to_end(x, q, seed=4, config=config)
    else:
        inst = sample_goldreich(parity_predicate(3), n, 30_000, seed=3)
        witness = predicate_lowest_degree(inst.predicate)
        reductions = [lambda x, h=h: goldreich_to_bipartite(x, witness, value_handling=h) for h in ("fold", "discard")]
        solve = lambda x: solve_goldreich_end_to_end(x, seed=4, config=config)
    rows = reductions[0](inst).indexer.materialized()
    assert rows.tolist() == sorted(rows.tolist()) and len(np.unique(rows, axis=0)) == len(rows)
    for seed in (0, 1):
        shuffled = _shuffled(inst, seed)
        for reduce in reductions:
            _same_reduction(reduce(shuffled), reduce(inst))
        _same_solve(solve(shuffled), solve(inst))


def test_a_witness_past_the_clause_width_is_a_reduction_error_end_to_end():
    # a 4-wide law with witness (2, 3) on 3-wide clauses: r = 2 <= k, but position 3 is past the clause
    w4 = PlantingDistribution(4, 1.0 + 0.8 * _pattern_table(4)[:, 2:].prod(axis=1))
    assert distribution_complexity(w4).subset == (2, 3)
    inst = sample_planted_csp(noisy_xor_weights(3, 0.8), 10, 50, seed=0)
    with pytest.raises(ReductionError, match="witness position 3 lies outside the clauses' width k = 3"):
        solve_csp_end_to_end(inst, w4)


def test_compact_and_int64_instances_reduce_solve_and_write_alike(tmp_path):
    # a sampler-made instance (int32 ids, int8 signs and values) and an int64
    # rebuild of the same arrays, through every consumer of those arrays
    n = 60
    q = noisy_xor_weights(3, 0.8)
    report = distribution_complexity(q)
    csp = sample_planted_csp(q, n, math.floor(60 * n**1.5 * math.log(n)), seed=11)
    wide = PlantedCspInstance(n, csp.sigma, csp.clause_vars.astype(np.int64), csp.clause_signs.astype(np.int64))
    assert (csp.clause_vars.dtype, csp.clause_signs.dtype) == (np.int32, np.int8)
    assert wide.clause_vars.dtype == wide.clause_signs.dtype == np.int64
    for kw in ({}, {"thinning": "poisson", "left_literal": "random", "seed": 3}):
        _same_reduction(csp_to_bipartite(csp, report, **kw), csp_to_bipartite(wide, report, **kw))
    config = SolverConfig(T_factor=3.0)
    _same_solve(*(solve_csp_end_to_end(x, q, seed=12, config=config) for x in (csp, wide)))
    for subset in ((0,), (2,)):
        got, want = majority_vote_r1(csp, subset, seed=13), majority_vote_r1(wide, subset, seed=13)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    # the first 3000 clauses keep the file writes short
    files.write_csp(tmp_path / "compact.jsonl", _head(csp, "clause_vars", "clause_signs"), q, seed=11)
    files.write_csp(tmp_path / "wide.jsonl", _head(wide, "clause_vars", "clause_signs"), q, seed=11)
    assert (tmp_path / "compact.jsonl").read_bytes() == (tmp_path / "wide.jsonl").read_bytes()
    back = files.read_csp(tmp_path / "wide.jsonl").instance
    for name, dtype in (("clause_vars", np.int32), ("clause_signs", np.int8)):
        assert getattr(back, name).dtype == dtype and np.array_equal(getattr(back, name), getattr(csp, name)[:3000])

    pred = parity_predicate(3)
    tuples = sample_goldreich(pred, n, 40_000, seed=14)
    wide = GoldreichInstance(n, pred, tuples.sigma, tuples.tuple_vars.astype(np.int64), tuples.values.astype(np.int64))
    assert (tuples.tuple_vars.dtype, tuples.values.dtype, wide.values.dtype) == (np.int32, np.int8, np.int64)
    witness = predicate_lowest_degree(pred)
    for handling in ("fold", "discard"):
        got, want = (goldreich_to_bipartite(x, witness, value_handling=handling) for x in (tuples, wide))
        _same_reduction(got, want)
    _same_solve(*(solve_goldreich_end_to_end(x, seed=15, config=config) for x in (tuples, wide)))
    files.write_goldreich(tmp_path / "compact.jsonl", _head(tuples, "tuple_vars", "values"), seed=14)
    files.write_goldreich(tmp_path / "wide.jsonl", _head(wide, "tuple_vars", "values"), seed=14)
    assert (tmp_path / "compact.jsonl").read_bytes() == (tmp_path / "wide.jsonl").read_bytes()
    back = files.read_goldreich(tmp_path / "wide.jsonl").instance
    for name, dtype in (("tuple_vars", np.int32), ("values", np.int8)):
        assert getattr(back, name).dtype == dtype and np.array_equal(getattr(back, name), getattr(tuples, name)[:3000])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_threshold_density_formula():
    assert threshold_density(100, 10_000, 1.8) == pytest.approx(
        math.log(100) / (0.64 * 1000)
    )


def _sbm_spec(**kw):
    base = dict(
        family="sbm",
        multipliers=(2, 4, 6, 8, 10, 12, 14, 16),
        trials=10,
        seed=7,
        n1=256,
        n2=256,
        delta=1.8,
        solver=SolverConfig(T_factor=5.0),
    )
    base.update(kw)
    return SweepSpec(**base)


def test_sweep_contrast_between_extreme_multipliers():
    rows = run_sweep(_sbm_spec(multipliers=(0.2, 30.0), n1=500, n2=500))
    assert rows[1].exact_rate > rows[0].exact_rate
    assert rows[0].exact_rate == 0.0


def test_sweep_monotonicity_spearman():
    rows = run_sweep(_sbm_spec())
    rho, p = stats.spearmanr([r.multiplier for r in rows], [r.exact_rate for r in rows])
    assert rho > 0 and p < 0.01


def test_sweep_single_cell():
    rows = run_sweep(_sbm_spec(multipliers=(8.0,), trials=1))
    assert len(rows) == 1
    assert rows[0].exact_rate in (0.0, 1.0)
    assert rows[0].trials == 1


def test_sweep_csp_family():
    rows = run_sweep(
        SweepSpec(
            family="csp",
            multipliers=(0.1, 6.0),
            trials=3,
            seed=1,
            n=60,
            weights=noisy_xor_weights(2, 0.9),
            solver=SolverConfig(T_factor=3.0),
        )
    )
    assert rows[1].mean_overlap > rows[0].mean_overlap


def test_sweep_goldreich_family():
    rows = run_sweep(
        SweepSpec(
            family="goldreich",
            multipliers=(0.1, 6.0),
            trials=3,
            seed=2,
            n=40,
            predicate=tuple(parity_predicate(2).tolist()),
            solver=SolverConfig(T_factor=3.0),
        )
    )
    assert rows[1].mean_overlap > rows[0].mean_overlap


@pytest.mark.parametrize("family, message", [("csp", "family 'csp' needs weights"),
                                             ("goldreich", "family 'goldreich' needs a predicate")])
def test_sweep_spec_requires_the_family_table(family, message):
    with pytest.raises(ValueError, match=message):
        run_sweep(SweepSpec(family=family, multipliers=(1.0,), trials=1, n=20))


def test_sweep_workers_match_sequential(tmp_path):
    spec = _sbm_spec(multipliers=(4.0, 12.0), trials=4)
    seq = run_sweep(spec)
    par = run_sweep(_sbm_spec(multipliers=(4.0, 12.0), trials=4, workers=2))
    for a, b in zip(seq, par):
        assert (a.multiplier, a.exact_rate, a.mean_overlap, a.mean_edges) == (
            b.multiplier,
            b.exact_rate,
            b.mean_overlap,
            b.mean_edges,
        )


class _RecordingPool:
    """An in-process stand-in for ProcessPoolExecutor that records the pool
    size it was asked for and starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, trials, pool", [(64, 1, 2), (3, 1, 2), (3, 2, 3)])
def test_sweep_pool_is_no_larger_than_its_cell_count(monkeypatch, workers, trials, pool):
    # a fork pool starts every worker at its first submit, so 64 workers on 2 cells forked 64
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    rows = run_sweep(_sbm_spec(multipliers=(4.0, 12.0), trials=trials, n1=32, n2=32, workers=workers))
    assert _RecordingPool.sizes == [pool] and [r.trials for r in rows] == [trials, trials]


def test_witness_size_1_clause_budget_is_n_ln_n():
    # the majority vote's budget: n ln n / (delta - 1)^2 clauses at multiplier 1
    spec = SweepSpec(family="csp", weights=sat_clause_weights(3), n=50)
    m, report = harness._csp_clause_budget(spec, 2.0)
    assert report.r == 1
    assert m == round(2.0 * 50 * math.log(50) / (report.delta - 1.0) ** 2)


def test_sweep_csv_schema(tmp_path):
    rows = run_sweep(_sbm_spec(multipliers=(8.0,), trials=2))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert float(fields[0]) == 8.0 and int(fields[1]) == 2

    # timing suppressed -> byte-identical reruns
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, p1, include_timing=False)
    write_sweep_csv(run_sweep(_sbm_spec(multipliers=(8.0,), trials=2)), p2, include_timing=False)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "spec, message",
    [(SweepSpec(family="csp", weights=[1, 1, 1, 2]), "weights must be a PlantingDistribution, got [1, 1, 1, 2]"),
     (SweepSpec(solver={"T_factor": 3.0}), "solver must be a SolverConfig, got {'T_factor': 3.0}")],
    ids=["weights-list", "solver-dict"],
)
def test_sweep_spec_refuses_fields_of_the_wrong_type(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_sweep(spec)


@pytest.mark.parametrize("family, table", [("csp", {"weights": uniform_weights(3)}),
                                           ("goldreich", {"predicate": (1, 1, 1, 1)})], ids=["csp", "goldreich"])
def test_a_sweep_over_an_unidentifiable_law_is_refused(family, table):
    with pytest.raises(ValueError, match="sweep family has an unidentifiable planting law"):
        run_sweep(SweepSpec(family=family, multipliers=(1.0,), trials=1, n=20, **table))


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        run_sweep(_sbm_spec(multipliers=()))
    with pytest.raises(ValueError):
        run_sweep(_sbm_spec(trials=0))
    with pytest.raises(ValueError):
        run_sweep(_sbm_spec(family="bogus"))
