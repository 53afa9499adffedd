"""The benchmark's workloads: one trial generates an instance from a seed,
recovers the planted partition through the public API of ``planted`` and
checks the result against the planted one.

Every call into ``planted`` goes through a module attribute
(``instances.sample_bipartite_block``, ``solver.spi_solve``, ...), so that a
traced trial reaches the wrappers ``spans.Tracer.patched`` installs there.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from planted import cli, harness, instances, solver

DELTA = 1.8


def block_density(n1: int, n2: int, C: float) -> float:
    """p = C ln n1 / ((delta - 1)^2 sqrt(n1 n2))."""
    return C * math.log(n1) / ((DELTA - 1.0) ** 2 * math.sqrt(n1 * n2))


def trial_seed(workload_seed: int, t: int) -> int:
    """Seed of trial t, drawn as run_sweep draws the seed of a cell."""
    return int(np.random.SeedSequence([workload_seed, t]).generate_state(1)[0])


def _digest(values) -> str:
    return hashlib.sha1(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()


@dataclass(frozen=True)
class Trial:
    """Outcome of one trial. ``fingerprint`` holds the counts and a digest of
    the recovered signs; a traced and an untraced trial on the same seed must
    give the same one."""

    exact: bool
    items: int
    solve_s: float | None
    fingerprint: tuple
    note: str = ""


@dataclass(frozen=True)
class BlockModel:
    """sample_bipartite_block, then spi_solve with truth and the default
    SolverConfig (seeded per trial)."""

    name: str
    n1: int
    n2: int
    C: float

    def run(self, seed: int, workdir: Path) -> Trial:
        params = instances.BlockModelParams(self.n1, self.n2, DELTA, block_density(self.n1, self.n2, self.C), seed)
        graph, truth = instances.sample_bipartite_block(params)
        t0 = time.perf_counter()
        res = solver.spi_solve(graph, solver.SolverConfig(seed=seed + 1), truth=truth)
        solve_s = time.perf_counter() - t0
        if not res.ok:
            return Trial(False, graph.num_edges, solve_s, (graph.num_edges, res.status), f"status {res.status}")
        agree = abs(int(res.signs @ truth.u))
        fingerprint = (graph.num_edges, res.ops_edge_touches, _digest(res.signs))
        return Trial(agree == self.n1, graph.num_edges, solve_s, fingerprint, f"overlap {agree / self.n1}")


@dataclass(frozen=True)
class NoisyXor:
    """sample_planted_csp on noisy 3-XOR with m = floor(100 n^1.5 ln n), then
    solve_csp_end_to_end with T_factor 6 and dedup thinning.

    C = 100 and T_factor 6 are twice the clauses and twice the iterations of
    acceptance criterion 6b (C = 50, T_factor 3), so each sub-graph is as
    dense as there. With T_factor 3 a start vector close to orthogonal to the
    planted one now and then converges only inside the vote window, and the
    vote gets a few variables wrong (1 trial in 73 at n = 200, C = 50);
    the longer run leaves nine iterations before the window."""

    name: str
    n: int
    eta: float = 0.8

    def run(self, seed: int, workdir: Path) -> Trial:
        weights = instances.noisy_xor_weights(3, self.eta)
        m = math.floor(100 * self.n**1.5 * math.log(self.n))
        inst = instances.sample_planted_csp(weights, self.n, m, seed)
        t0 = time.perf_counter()
        assignment, report = harness.solve_csp_end_to_end(
            inst, weights, seed=seed + 1, thinning="dedup", config=solver.SolverConfig(T_factor=6.0)
        )
        solve_s = time.perf_counter() - t0
        if report.status != "ok" or assignment is None:
            return Trial(False, inst.m, solve_s, (inst.m, report.status), f"status {report.status}")
        agree = abs(int(assignment @ inst.sigma))
        res = report.solver
        fingerprint = (inst.m, res.edges_used, res.ops_edge_touches, report.inconsistent_pairs, _digest(assignment))
        return Trial(agree == self.n, inst.m, solve_s, fingerprint, f"overlap {agree / self.n}")


@dataclass(frozen=True)
class CliFiles:
    """``planted gen-sbm`` with truth, then ``planted solve`` on that file,
    both through planted.cli.main in the run's temporary directory."""

    name: str
    n: int
    C: float

    def run(self, seed: int, workdir: Path) -> Trial:
        instance, result = workdir / "instance.jsonl", workdir / "solve.json"
        p = block_density(self.n, self.n, self.C)
        rc_gen = cli.main([
            "gen-sbm", "--n1", str(self.n), "--n2", str(self.n), "--delta", str(DELTA), "--p", repr(p),
            "--seed", str(seed), "--output", str(instance), "--quiet",
        ])
        t0 = time.perf_counter()
        rc_solve = cli.main(["solve", "--input", str(instance), "--seed", str(seed + 1), "--output", str(result), "--quiet"])
        solve_s = time.perf_counter() - t0
        if rc_gen != 0 or rc_solve != 0:
            return Trial(False, 0, solve_s, (rc_gen, rc_solve), f"exit codes {rc_gen}, {rc_solve}")
        out = json.loads(result.read_text())
        edges = out["edges_used"]
        fingerprint = (edges, out["ops_edge_touches"], _digest(out["signs"]))
        exact = out["status"] == "ok" and out["overlap"] == 1.0
        return Trial(exact, edges, solve_s, fingerprint, f"overlap {out['overlap']}")


# Why each workload is there is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        BlockModel("sbm_square", 4000, 4000, 30),
        BlockModel("sbm_lopsided", 100, 10**6, 25),
        NoisyXor("csp_3xor", 150),
        CliFiles("cli_files", 1000, 30),
    )
}

# The same workloads at sizes that take well under a second, for the self-test.
TINY = {
    w.name: w
    for w in (
        BlockModel("sbm_square", 600, 600, 30),
        BlockModel("sbm_lopsided", 40, 40_000, 25),
        NoisyXor("csp_3xor", 60),
        CliFiles("cli_files", 500, 25),
    )
}
