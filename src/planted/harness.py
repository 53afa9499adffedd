"""End-to-end pipelines and density sweeps.

The CSP pipeline: analyze the weight table, route witness-size-1 laws to the
majority vote, everything else through the block-model reduction and the
subsampled iteration, and map the recovered literal partition back to an
assignment. Predicate instances become signed clauses and take the same
route. Sweeps scan multiples of the theoretical density threshold and
record recovery rates to CSV.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .fourier import FourierReport, distribution_complexity, distribution_witnesses, predicate_lowest_degree
from .instances import (
    BlockModelParams,
    GoldreichInstance,
    PlantedCspInstance,
    PlantingDistribution,
    _is_number,
    _number_list,
    overlap,
    sample_bipartite_block,
    sample_goldreich,
    sample_planted_csp,
)
from .reduction import _signed_clauses, csp_to_bipartite, partition_to_assignment
from .solver import RecoveryResult, SolverConfig, majority_vote_r1, spi_solve

__all__ = [
    "EndToEndReport",
    "solve_csp_end_to_end",
    "solve_goldreich_end_to_end",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "write_sweep_csv",
    "CSV_HEADER",
    "threshold_density",
]


@dataclass
class EndToEndReport:
    status: str  # "ok" | "unidentifiable" | "degenerate"
    r: int | None
    subset: tuple[int, ...]
    delta: float | None
    route: str  # "majority" | "spi" | "none"
    overlap: float | None
    coin_flips: int
    inconsistent_pairs: int
    solver: RecoveryResult | None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "r": self.r if self.r is not None else "inf",
            "S": list(self.subset),
            "delta": self.delta,
            "route": self.route,
            "overlap": self.overlap,
            "coin_flips": self.coin_flips,
            "inconsistent_pairs": self.inconsistent_pairs,
            "solver": None if self.solver is None else self.solver.to_dict(),
        }


def _run_reduced(reduced, seed, config):
    res = spi_solve(reduced.graph, replace(config, seed=seed), truth=reduced.truth)
    if not res.ok:
        return None, res, 0
    assignment, bad = partition_to_assignment(res.signs, seed=int(seed) + 1)
    return assignment, res, bad


def _solve_clauses(
    instance: PlantedCspInstance | None,
    report: FourierReport,
    candidates: list[FourierReport],
    seed: int,
    thinning: str,
    epsilon: float,
    config: SolverConfig,
) -> tuple[np.ndarray | None, EndToEndReport]:
    """Route -> reduce -> solve -> decode for signed clauses. Witness size 1
    goes to the majority vote; larger witnesses go through the reduction and
    the subsampled iteration, once per candidate witness, and the decoding
    with the fewest inconsistent literal pairs wins. ``instance`` may be None
    only when ``report`` is unidentifiable."""
    chosen, res, flips, bad = report, None, 0, 0
    if not report.identifiable:
        status, route, assignment = "unidentifiable", "none", None
    elif report.r == 1:
        status, route = "ok", "majority"
        assignment, flips = majority_vote_r1(instance, report.subset, seed=seed)
    else:
        route, best = "spi", None
        for cand in candidates:
            reduced = csp_to_bipartite(instance, cand, thinning=thinning, epsilon=epsilon, seed=seed)
            assignment, res, bad = _run_reduced(reduced, seed, config)
            entry = (math.inf if assignment is None else bad, cand, assignment, res, bad)
            if best is None or entry[0] < best[0]:
                best = entry
        _, chosen, assignment, res, bad = best
        status = "degenerate" if assignment is None else "ok"
    ov = None
    if assignment is not None and instance.sigma is not None:
        ov = overlap(assignment, instance.sigma)
    return assignment, EndToEndReport(
        status, chosen.r, chosen.subset, chosen.delta, route, ov, flips, bad, res
    )


def solve_csp_end_to_end(
    instance: PlantedCspInstance,
    weights: PlantingDistribution,
    seed: int = 0,
    thinning: str = "dedup",
    epsilon: float = 0.5,
    config: SolverConfig | None = None,
    try_all_witnesses: bool = False,
) -> tuple[np.ndarray | None, EndToEndReport]:
    """Analyze -> reduce -> solve -> decode. Returns (assignment, report);
    the assignment matches the planted one up to a global flip. ``seed``
    replaces ``config.seed``: the majority vote, the reduction and the solve
    take ``seed`` and the decode ``seed + 1``; ``config.seed`` is not read.

    With ``try_all_witnesses`` every minimal-size witness subset is tried and
    the decoding with the fewest inconsistent literal pairs wins (for laws
    whose witness is ambiguous).
    """
    report = distribution_complexity(weights)
    candidates = distribution_witnesses(weights) if try_all_witnesses else [report]
    return _solve_clauses(
        instance, report, candidates, seed, thinning, epsilon, config or SolverConfig()
    )


def solve_goldreich_end_to_end(
    instance: GoldreichInstance,
    seed: int = 0,
    thinning: str = "dedup",
    epsilon: float = 0.5,
    config: SolverConfig | None = None,
    value_handling: str = "fold",
) -> tuple[np.ndarray | None, EndToEndReport]:
    """Predicate-constraint pipeline: the constraints become signed clauses
    (see ``goldreich_to_bipartite``) and take the CSP route. Witness size 1
    always folds the observed value, so the majority vote sees every
    constraint. ``seed`` replaces ``config.seed``, as in
    ``solve_csp_end_to_end``."""
    report = predicate_lowest_degree(instance.predicate)
    clauses = None
    if report.identifiable:
        clauses = _signed_clauses(instance, report, "fold" if report.r == 1 else value_handling)
    return _solve_clauses(
        clauses, report, [report], seed, thinning, epsilon, config or SolverConfig()
    )


# ---------------------------------------------------------------------------
# Density sweeps
# ---------------------------------------------------------------------------

CSV_HEADER = "multiplier,trials,exact_rate,mean_overlap,mean_runtime_ms,mean_edges"


def threshold_density(n1: int, n2: int, delta: float) -> float:
    """Reference density p0 = ln(n1) / ((delta-1)^2 sqrt(n1 n2)); sweeps scan
    multiples of it so the unknown recovery constant is the x-axis."""
    return math.log(n1) / ((delta - 1.0) ** 2 * math.sqrt(n1 * n2))


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid, and the schema of a sweep config: each field is
    a config key, and its default is the key's default. ``family`` selects
    the instance kind:

    * "sbm": params n1, n2, delta; density p = multiplier * p0.
    * "csp": params n, weights (PlantingDistribution); the clause count is
      the multiplier times the threshold-equivalent count for the reduced
      graph geometry (witness size 1 scales n ln n instead).
    * "goldreich": params n, predicate; as for "csp".
    """

    # The [solver] keys a sweep config may set; the sweep sets the solver's
    # seed and, for "sbm", its density per trial.
    SOLVER_KEYS: ClassVar[tuple[str, ...]] = ("T_factor", "majority_window")

    family: str = "sbm"
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0)
    trials: int = 5
    seed: int = 0
    n1: int = 500
    n2: int = 500
    delta: float = 1.8
    n: int = 100
    weights: PlantingDistribution | None = None
    predicate: tuple[int, ...] = ()
    solver: SolverConfig = field(default_factory=SolverConfig)
    workers: int = 1

    def validate(self):
        """Raises ``ValueError`` naming the first field of the wrong type or
        out of range. A bool is not a number and a float is not an integer."""
        if self.family not in ("sbm", "csp", "goldreich"):
            raise ValueError(f"unknown family: {self.family!r}")
        if not (_number_list(self.multipliers) and self.multipliers and min(self.multipliers) > 0):
            raise ValueError(
                f"multipliers must be a non-empty list of positive numbers, got {self.multipliers!r}"
            )
        for name, low in (("trials", 1), ("seed", 0), ("n1", 1), ("n2", 1), ("n", 1), ("workers", 1)):
            value = getattr(self, name)
            if not (_is_number(value, integer=True) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (_is_number(self.delta) and 0.0 <= self.delta <= 2.0 and self.delta != 1.0):
            raise ValueError(f"delta must lie in [0, 2] and differ from 1, got {self.delta!r}")
        if not (self.weights is None or isinstance(self.weights, PlantingDistribution)):
            raise ValueError(f"weights must be a PlantingDistribution, got {self.weights!r}")
        if not _number_list(self.predicate, integer=True):
            raise ValueError(f"predicate must be a list of integers, got {self.predicate!r}")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError(f"solver must be a SolverConfig, got {self.solver!r}")
        if self.family == "csp" and self.weights is None:
            raise ValueError("family 'csp' needs weights")
        if self.family == "goldreich" and not self.predicate:
            raise ValueError("family 'goldreich' needs a predicate")


@dataclass(frozen=True)
class SweepRow:
    multiplier: float
    trials: int
    exact_rate: float
    mean_overlap: float
    mean_runtime_ms: float
    mean_edges: float


def _csp_clause_budget(spec: SweepSpec, mult: float) -> tuple[int, FourierReport]:
    if spec.family == "csp":
        report = distribution_complexity(spec.weights)
    else:
        report = predicate_lowest_degree(spec.predicate)
    if not report.identifiable:
        raise ValueError("sweep family has an unidentifiable planting law")
    n = spec.n
    if report.r == 1:
        m0 = n * math.log(n) / (report.delta - 1.0) ** 2
    else:
        n1 = 2 * n
        n2 = math.comb(2 * n, report.r - 1)
        m0 = 2.0 * math.sqrt(n1 * n2) * math.log(n1) / (report.delta - 1.0) ** 2
    return max(1, int(round(mult * m0))), report


def _sweep_trial(spec: SweepSpec, mi: int, ti: int) -> tuple[int, int, float, int, float]:
    """One (multiplier, trial) cell; returns (mi, ti, overlap, edges, ms)."""
    mult = spec.multipliers[mi]
    seed = int(np.random.SeedSequence([spec.seed, mi, ti]).generate_state(1)[0])
    t0 = time.perf_counter()
    if spec.family == "sbm":
        p = mult * threshold_density(spec.n1, spec.n2, spec.delta)
        p = min(p, 1.0 / max(spec.delta, 2.0 - spec.delta))
        graph, part = sample_bipartite_block(
            BlockModelParams(spec.n1, spec.n2, spec.delta, p, seed)
        )
        res = spi_solve(graph, replace(spec.solver, seed=seed + 1, p_override=p), truth=part)
        ov = res.overlap if res.ok else 0.0
        edges = graph.num_edges
    else:
        m, report = _csp_clause_budget(spec, mult)
        if spec.family == "csp":
            inst = sample_planted_csp(spec.weights, spec.n, m, seed)
            _, rep = solve_csp_end_to_end(inst, spec.weights, seed=seed + 1, config=spec.solver)
        else:
            inst = sample_goldreich(spec.predicate, spec.n, m, seed)
            _, rep = solve_goldreich_end_to_end(inst, seed=seed + 1, config=spec.solver)
        ov = rep.overlap if rep.status == "ok" else 0.0
        edges = rep.solver.edges_used if rep.solver is not None else m
    ms = (time.perf_counter() - t0) * 1000.0
    return mi, ti, float(ov), int(edges), ms


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """All multiplier x trial cells, aggregated per multiplier. Trials are
    independent; with workers > 1 they run in a process pool and results are
    merged in deterministic (multiplier, trial) order."""
    spec.validate()
    jobs = [(mi, ti) for mi in range(len(spec.multipliers)) for ti in range(spec.trials)]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(_sweep_trial, [spec] * len(jobs), *zip(*jobs)))
    else:
        results = [_sweep_trial(spec, mi, ti) for mi, ti in jobs]
    results.sort(key=lambda r: (r[0], r[1]))

    rows = []
    for mi, mult in enumerate(spec.multipliers):
        cells = [r for r in results if r[0] == mi]
        ovs = np.array([c[2] for c in cells])
        rows.append(
            SweepRow(
                multiplier=float(mult),
                trials=spec.trials,
                exact_rate=float((ovs == 1.0).mean()),
                mean_overlap=float(ovs.mean()),
                mean_runtime_ms=float(np.mean([c[4] for c in cells])),
                mean_edges=float(np.mean([c[3] for c in cells])),
            )
        )
    return rows


def write_sweep_csv(rows: list[SweepRow], path, include_timing: bool = True):
    """Fixed-schema CSV. With ``include_timing=False`` the runtime column is
    written as 0.0 so reruns with the same seed are byte-identical."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            ms = row.mean_runtime_ms if include_timing else 0.0
            fh.write(
                f"{row.multiplier:.6g},{row.trials},{row.exact_rate:.6g},"
                f"{row.mean_overlap:.6g},{ms:.6g},{row.mean_edges:.6g}\n"
            )
