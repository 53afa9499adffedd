"""Acceptance suite: one test per shipped criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(run ``pytest tests/test_acceptance.py -v -s`` to see them all). Recovery
constants were calibrated once by pilot sweeps and are frozen here.
"""
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from planted.cli import main as cli_main
from planted.fourier import all_coefficients, distribution_complexity
from planted.instances import (
    BipartiteGraph,
    BlockModelParams,
    PlantingDistribution,
    noisy_xor_weights,
    overlap,
    sample_bipartite_block,
    sample_planted_csp,
    sat_clause_weights,
)
from planted.harness import solve_csp_end_to_end
from planted.reduction import (
    literal_codes,
    literal_truth_labels,
    tuple_truth_labels,
)
from planted.solver import (
    SolverConfig,
    apply_m,
    apply_mt,
    majority_vote_r1,
    power_iteration_baseline,
    spi_solve,
)
from planted.instances import pattern_index
from solver_oracle import _make_sub

# Frozen calibration (desk-scale pilot sweeps; see README for the protocol):
C_SQUARE = 30.0        # criterion 4; pilots: 16/20 at C=20, 20/20 at C>=25
C_LOPSIDED = 20.0      # criterion 5 (n1=30, n2=2e6, T_factor 3); pilots on seeds 0-19:
                       # spi 20/20 at 16 and 20, baseline mean overlap 0.100 at 20
XOR2 = dict(eta=0.8, C=100.0, t_factor=3.0)   # criterion 6a
XOR3 = dict(eta=0.8, C=50.0, t_factor=3.0)    # criterion 6b
C_MAJORITY = 130.0     # criterion 7 exact-recovery clause
C_MAJORITY_SQRT = 10.0  # criterion 7 partial-recovery clause


def _verdict(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_dense_oracle_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n1, n2 = rng.integers(2, 51, 2)
        mask = rng.random((n1, n2)) < rng.uniform(0.05, 0.5)
        r, c = np.nonzero(mask)
        sub = _make_sub(int(n1), r.astype(np.int64), c.astype(np.int64))
        A = mask.astype(float)
        q = rng.uniform(0.0, 0.2)
        x = rng.normal(size=n1)

        yhat, L = apply_mt(sub, x, q)
        y_ref = (A - q).T @ x
        y_full = np.full(n2, -q * L)
        y_full[yhat.support] += yhat.values
        err_t = np.linalg.norm(y_full - y_ref) / max(np.linalg.norm(y_ref), 1e-30)

        x_ref = (A - q) @ y_ref
        x_got = apply_m(sub, yhat, L, q, int(n2))
        err_m = np.linalg.norm(x_got - x_ref) / max(np.linalg.norm(x_ref), 1e-30)
        worst = max(worst, err_t, err_m)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _verdict(1, ok, f"1000 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_fourier_oracle():
    rng = np.random.default_rng(200)

    def brute(values, k):
        for size in range(1, k + 1):
            for subset in itertools.combinations(range(k), size):
                c = 0.0
                for z in range(2**k):
                    chi = 1
                    for i in subset:
                        chi *= 1 if (z >> i) & 1 else -1
                    c += values[z] * chi
                c /= 2**k
                if abs(c) > 1e-9:
                    return size, subset, c
        return None

    mismatches = 0
    tables = 0
    for k in (2, 3, 4, 5):
        for _ in range(50):
            w = rng.random(2**k)
            if rng.random() < 0.4:
                w = w + w[::-1]  # kills odd-size coefficients
            q = PlantingDistribution(k, w)
            rep = distribution_complexity(q)
            ref = brute(q.normalized(), k)
            good = (ref is None and rep.r is None) or (
                ref is not None
                and (rep.r, rep.subset) == ref[:2]
                and abs(rep.coefficient - ref[2]) < 1e-12
            )
            mismatches += not good
            tables += 1

    worst_parseval = 0.0
    for k in (3, 5, 8):
        for _ in range(20):
            t = rng.integers(0, 2, 2**k) * 2 - 1
            coefs = all_coefficients(t, k)
            worst_parseval = max(worst_parseval, abs(float((coefs**2).sum()) - 1.0))

    ok = mismatches == 0 and worst_parseval < 1e-12
    _verdict(2, ok, f"{tables} tables, {mismatches} scan mismatches, "
                    f"Parseval worst |err| {worst_parseval:.2e}")


def test_criterion_3_reduction_law():
    q = noisy_xor_weights(3, 0.5)  # delta = 1.5
    report = distribution_complexity(q)
    assert report.delta == pytest.approx(1.5)
    m = 50_000
    inst = sample_planted_csp(q, 30, m, seed=300)

    positions = sorted(report.subset)
    codes = literal_codes(inst.clause_vars[:, positions], inst.clause_signs[:, positions])
    u = literal_truth_labels(inst.sigma)
    v = tuple_truth_labels(codes[:, 1:], inst.sigma)
    frac = float((u[codes[:, 0]] == v).mean())
    se = math.sqrt(0.75 * 0.25 / m)
    side_ok = abs(frac - 0.75) < 3 * se

    z = inst.sigma[inst.clause_vars] * inst.clause_signs
    pvals = []
    for sub in itertools.combinations(positions, 2):
        counts = np.bincount(pattern_index(z[:, sub]), minlength=4)
        pvals.append(stats.chisquare(counts).pvalue)
    proj_ok = min(pvals) > 0.001

    ok = side_ok and proj_ok
    _verdict(3, ok, f"same-side {frac:.4f} vs 0.75 (3se={3*se:.4f}), "
                    f"min projection chi2 p={min(pvals):.3f}")


def test_criterion_4_sbm_recovery_square():
    n, delta = 1000, 1.8
    p = C_SQUARE * math.log(n) / ((delta - 1) ** 2 * n)
    wins, worst_t = 0, 0.0
    for s in range(20):
        g, part = sample_bipartite_block(BlockModelParams(n, n, delta, p, s))
        t0 = time.monotonic()
        res = spi_solve(g, SolverConfig(seed=s + 1000, p_override=p), truth=part)
        worst_t = max(worst_t, time.monotonic() - t0)
        wins += res.ok and res.overlap == 1.0
    ok = wins >= 18 and worst_t < 1.0
    _verdict(4, ok, f"C={C_SQUARE:g}: exact {wins}/20, slowest solve {worst_t:.2f}s")


def test_criterion_5_lopsided_recovery_beyond_spectral_barrier():
    # The spectral barrier for the centered M = A - qJ sits at
    # x = (delta-1)^2 p n1 = 1: there the planted eigenvalue of M M^T,
    # (delta-1)^2 p^2 n1 n2, equals the ~p n2 that the noise puts on its
    # diagonal, so the ratio of its top two eigenvalues is ~1 + x. Below the
    # barrier (x = 0.263 here; diagonal ~27,000) the baseline's T/2 = 6 full
    # products amplify the planted direction only ~3.9x and the signs of the
    # random start survive, while SPI multiplies independent sub-matrices whose
    # products carry no such diagonal. The exact top eigenvector of M M^T still
    # recovers at this size, so the clause is about matched-budget power
    # iteration (already T times the edge touches of SPI), not exact SVD.
    n1, n2, delta = 30, 2_000_000, 1.8
    p = C_LOPSIDED * math.log(n1) / ((delta - 1) ** 2 * math.sqrt(n1 * n2))
    x = (delta - 1) ** 2 * p * n1
    assert x < 1, f"criterion 5 instance is not below the spectral barrier: x={x:.3f}"
    t0 = time.monotonic()
    wins = 0
    base_ovs = []
    for s in range(20):
        g, part = sample_bipartite_block(BlockModelParams(n1, n2, delta, p, s))
        res = spi_solve(g, SolverConfig(T_factor=3.0, seed=s + 1000, p_override=p),
                        truth=part)
        wins += res.ok and res.overlap == 1.0
        base = power_iteration_baseline(g, res.T // 2, seed=s + 2000, p=p)
        base_ovs.append(overlap(base, part.u))
    elapsed = time.monotonic() - t0
    base_mean = float(np.mean(base_ovs))
    spi_ok = wins >= 18
    base_ok = base_mean < 0.5
    ok = spi_ok and base_ok and elapsed < 60.0
    _verdict(5, ok, f"C={C_LOPSIDED:g}, x={x:.3f}: spi exact {wins}/20 (need >=18), "
                    f"baseline mean overlap {base_mean:.3f} (need <0.5), {elapsed:.0f}s")


def test_criterion_6_planted_csp_end_to_end():
    n2x = 300
    q2 = noisy_xor_weights(2, XOR2["eta"])
    m2 = int(XOR2["C"] * n2x * math.log(n2x))
    cfg2 = SolverConfig(T_factor=XOR2["t_factor"])
    wins2 = 0
    for s in range(20):
        inst = sample_planted_csp(q2, n2x, m2, seed=s)
        _, rep = solve_csp_end_to_end(inst, q2, seed=s + 600, config=cfg2)
        wins2 += rep.status == "ok" and rep.overlap == 1.0

    n3x = 100
    q3 = noisy_xor_weights(3, XOR3["eta"])
    m3 = int(XOR3["C"] * n3x**1.5 * math.log(n3x))
    cfg3 = SolverConfig(T_factor=XOR3["t_factor"])
    wins3 = 0
    for s in range(20):
        inst = sample_planted_csp(q3, n3x, m3, seed=s)
        _, rep = solve_csp_end_to_end(inst, q3, seed=s + 700, config=cfg3)
        wins3 += rep.status == "ok" and rep.overlap == 1.0

    ok = wins2 >= 18 and wins3 >= 18
    _verdict(6, ok, f"2-XOR (m={m2}): {wins2}/20; 3-XOR (m={m3}): {wins3}/20")


def test_criterion_7_majority_vote_path():
    n = 500
    q = sat_clause_weights(3)
    report = distribution_complexity(q)
    assert report.r == 1

    m_exact = int(C_MAJORITY * n * math.log(n))
    wins = 0
    for s in range(20):
        inst = sample_planted_csp(q, n, m_exact, seed=s)
        assignment, _ = majority_vote_r1(inst, report.subset, seed=s + 800)
        wins += overlap(assignment, inst.sigma) == 1.0

    m_sqrt = int(C_MAJORITY_SQRT * math.sqrt(n))
    agreements = []
    for s in range(40):
        inst = sample_planted_csp(q, n, m_sqrt, seed=s + 50)
        assignment, _ = majority_vote_r1(inst, report.subset, seed=s + 900)
        agreements.append(0.5 + overlap(assignment, inst.sigma) / 2)
    tt = stats.ttest_1samp(agreements, 0.5, alternative="greater")

    ok = wins >= 18 and tt.pvalue < 0.01
    _verdict(7, ok, f"exact {wins}/20 at m={m_exact}; agreement "
                    f"{np.mean(agreements):.4f} at m={m_sqrt}, one-sided p={tt.pvalue:.2e}")


def test_criterion_8_statistical_moments():
    rng = np.random.default_rng(800)
    n1, n2, delta, q = 40, 60, 1.6, 0.05
    from planted.instances import HiddenPartition

    part = HiddenPartition(
        rng.permutation(np.repeat([1, -1], n1 // 2)),
        rng.permutation(np.repeat([1, -1], n2 // 2)),
    )
    y = rng.normal(size=n2)
    y /= np.linalg.norm(y)
    u = part.u.astype(float)
    vals = []
    for s in range(500):
        g, _ = sample_bipartite_block(BlockModelParams(n1, n2, delta, q, s), part)
        a = np.zeros((n1, n2))
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        vals.append(float(u @ ((a - q) @ y)))
    vals = np.array(vals)
    target = (delta - 1) * n1 * q * float(part.v @ y)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    first_ok = abs(vals.mean() - target) < 4 * se

    m1, m2 = 10, 10
    dpart = HiddenPartition(
        rng.permutation(np.repeat([1, -1], 5)), rng.permutation(np.repeat([1, -1], 5))
    )
    p = 0.3
    acc = np.zeros((m1, m2))
    draws = 10_000
    for s in range(draws):
        g, _ = sample_bipartite_block(BlockModelParams(m1, m2, delta, p, s), dpart)
        a = np.zeros((m1, m2))
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        acc += a - p
    mean = acc / draws
    target_m = (delta - 1) * p * np.outer(dpart.u, dpart.v)
    probs = np.where(dpart.u[:, None] == dpart.v[None, :], delta * p, (2 - delta) * p)
    sd = np.sqrt(probs * (1 - probs) / draws)
    mean_ok = bool((np.abs(mean - target_m) < 4 * sd).all())

    ok = first_ok and mean_ok
    _verdict(8, ok, f"first moment |err|={abs(vals.mean()-target):.4f} (4se={4*se:.4f}); "
                    f"entrywise mean within 4sd: {mean_ok}")


def test_criterion_9_linear_time_contract():
    n1 = n2 = 500
    delta = 1.8
    cfg = lambda s, p: SolverConfig(seed=s, p_override=p, T_factor=4.0)
    ops = []
    for p in (0.01, 0.04, 0.16):
        g, part = sample_bipartite_block(BlockModelParams(n1, n2, delta, p, 90))
        res = spi_solve(g, cfg(91, p), truth=part)
        ops.append(res.ops_edge_touches)
    r1, r2 = ops[1] / ops[0], ops[2] / ops[1]
    ratio_ok = 3.5 <= r1 <= 6.5 and 3.5 <= r2 <= 6.5

    an1, an2 = 64, 10_000  # n2 > 100 * n1
    p = 25 * math.log(an1) / ((delta - 1) ** 2 * math.sqrt(an1 * an2))
    g, part = sample_bipartite_block(BlockModelParams(an1, an2, delta, p, 92))
    res = spi_solve(g, SolverConfig(seed=93, p_override=p), truth=part)
    recover_ok = res.overlap == 1.0

    # The same edges over n2 = 2^62 right vertices: numpy refuses any array
    # with n2 entries ("array is too big"), so finishing shows none is built.
    # The traced peak covers every numpy allocation; 40 B per edge measured
    # (the sub-graphs' rows, col_rank and supports, and the split's
    # packed keys while the ids are mapped back from their ranks).
    wide = BipartiteGraph(an1, 2**62, g.edges * np.array([1, 2**62 // an2]))
    tracemalloc.start()
    try:
        res = spi_solve(wide, SolverConfig(seed=93))
        per_edge = tracemalloc.get_traced_memory()[1] / g.num_edges
    finally:
        tracemalloc.stop()
    wide_ok = res.status == "ok" and res.iterations == res.T // 2
    memory_ok = per_edge <= 56

    ok = ratio_ok and recover_ok and wide_ok and memory_ok
    _verdict(9, ok, f"op ratios x4 edges: {r1:.2f}, {r2:.2f} (need [3.5, 6.5]); "
                    f"exact at n2={an2}: {recover_ok}; {res.iterations}/{res.T // 2} iterations "
                    f"at n2=2^62: {wide_ok}; traced peak {per_edge:.1f} B/edge (need <= 56)")


def test_criterion_10_cli_determinism(tmp_path):
    toml = tmp_path / "sweep.toml"
    toml.write_text(
        'family = "sbm"\nmultipliers = [4.0, 12.0]\ntrials = 2\nseed = 5\n'
        "n1 = 128\nn2 = 128\ndelta = 1.8\n\n[solver]\nT_factor = 5.0\n"
    )
    csp = tmp_path / "csp.jsonl"
    sbm = tmp_path / "sbm.jsonl"
    red = tmp_path / "red.jsonl"

    def commands(tag):
        d = tmp_path / tag
        d.mkdir()
        return [
            (["gen-sbm", "--n1", "60", "--n2", "60", "--delta", "1.8", "--p", "0.2",
              "--seed", "7", "-o", str(d / "sbm.jsonl"), "-q"], d / "sbm.jsonl"),
            (["gen-csp", "--n", "40", "--m", "4000", "--preset", "noisy-xor", "--k", "2",
              "--eta", "0.9", "--seed", "7", "-o", str(d / "csp.jsonl"), "-q"], d / "csp.jsonl"),
            (["gen-goldreich", "--n", "20", "--m", "300", "--predicate", "1,-1,-1,1",
              "--seed", "7", "-o", str(d / "g.jsonl"), "-q"], d / "g.jsonl"),
            (["analyze-q", "--preset", "sat", "--k", "3", "-o", str(d / "q.json"), "-q"],
             d / "q.json"),
            (["reduce", "-i", str(csp), "--seed", "8", "-o", str(d / "red.jsonl"), "-q"],
             d / "red.jsonl"),
            (["solve", "-i", str(sbm), "--seed", "9", "-o", str(d / "res.json"), "-q"],
             d / "res.json"),
            (["solve-csp", "-i", str(csp), "--seed", "9", "--t-factor", "3.0",
              "-o", str(d / "csp_res.json"), "-q"], d / "csp_res.json"),
            (["sweep", "-c", str(toml), "-o", str(d / "sweep.csv"), "-q"], d / "sweep.csv"),
        ]

    # shared inputs for reduce/solve/solve-csp
    assert cli_main(["gen-csp", "--n", "40", "--m", "4000", "--preset", "noisy-xor",
                     "--k", "2", "--eta", "0.9", "--seed", "7", "-o", str(csp), "-q"]) == 0
    assert cli_main(["gen-sbm", "--n1", "60", "--n2", "60", "--delta", "1.8", "--p", "0.2",
                     "--seed", "7", "-o", str(sbm), "-q"]) == 0

    diffs = []
    for (argv_a, out_a), (argv_b, out_b) in zip(commands("a"), commands("b")):
        code_a = cli_main(argv_a)
        code_b = cli_main(argv_b)
        assert code_a == code_b == 0, (argv_a, code_a, code_b)
        if out_a.read_bytes() != out_b.read_bytes():
            diffs.append(argv_a[0])
    ok = not diffs
    _verdict(10, ok, f"8 commands run twice; differing outputs: {diffs or 'none'}")
