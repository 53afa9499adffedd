"""Command-line interface.

Subcommands: gen-sbm, gen-csp, gen-goldreich, analyze-q, reduce, solve,
solve-csp, sweep. Exit codes: 0 success, 1 usage error, 2 solve failure,
3 I/O error. All outputs are deterministic given the seed (sweeps write a
zeroed runtime column unless --timing wall is passed).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, fields, replace

from . import files
from .fourier import distribution_complexity, predicate_lowest_degree
from .harness import (
    SweepSpec,
    run_sweep,
    solve_csp_end_to_end,
    solve_goldreich_end_to_end,
    write_sweep_csv,
)
from .instances import (
    BlockModelParams,
    PlantingDistribution,
    _number_list,
    noisy_xor_weights,
    sample_bipartite_block,
    sample_goldreich,
    sample_planted_csp,
    sat_clause_weights,
    uniform_weights,
)
from .reduction import ReductionError, csp_to_bipartite, goldreich_to_bipartite
from .solver import SolverConfig, spi_solve

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token starting with "-<digit>" is a value, not a flag, so a +/-1
        # table can follow its flag: "--predicate -1,1,1,-1".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _weight_table(vals) -> PlantingDistribution:
    """A table of 2^k weights, k read from its length."""
    return PlantingDistribution(round(math.log2(len(vals))), vals)


def _weights_from_args(args) -> PlantingDistribution:
    if args.weights is not None:
        return _weight_table([float(w) for w in args.weights.split(",")])
    if args.preset == "uniform":
        return uniform_weights(args.k)
    if args.preset == "noisy-xor":
        return noisy_xor_weights(args.k, args.eta)
    if args.preset == "sat":
        return sat_clause_weights(args.k)
    raise UsageError("provide --weights or --preset")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _epsilon(text: str) -> float:
    epsilon = float(text)
    if not 0.0 <= epsilon <= 1.0:  # NaN fails the test too
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text}")
    return epsilon


def _add_weight_flags(sub):
    sub.add_argument("--weights", help="comma-separated 2^k weight table")
    sub.add_argument("--preset", choices=["uniform", "noisy-xor", "sat"])
    sub.add_argument("--k", type=int, default=3, help="clause width for presets")
    sub.add_argument("--eta", type=float, default=0.5, help="noisy-xor tilt")


def _add_solver_flags(sub):
    sub.add_argument("--t-factor", type=float, default=10.0)
    sub.add_argument("--window", default="0.5,1.0", help="majority window as lo,hi fractions")


def _solver_config(args) -> SolverConfig:
    try:
        lo, hi = (float(x) for x in args.window.split(","))
    except ValueError:
        raise UsageError(f"--window must be two fractions lo,hi, got {args.window!r}") from None
    return SolverConfig(T_factor=args.t_factor, majority_window=(lo, hi), seed=args.seed)


def _wrote(args, what: str = ""):
    """Report the file a command wrote, and what it holds, unless ``-q``."""
    if not args.quiet:
        print(f"wrote {args.output}" + (f" ({what})" if what else ""))


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _wrote(args)
    else:
        print(text)


@functools.cache  # parsing leaves the parser as it was, so a process builds it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="planted", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, run, seed=True, output=None, **kw):
        """A subcommand that ``main`` runs as ``run(args)``, writing to
        ``output`` when no ``-o`` is given (None: standard output)."""
        sub = subs.add_parser(name, **kw)
        sub.set_defaults(run=run)
        if seed:
            sub.add_argument("--seed", type=_seed, default=0)
        sub.add_argument("--output", "-o", default=output)
        sub.add_argument("--quiet", "-q", action="store_true")
        return sub

    g = add("gen-sbm", _cmd_gen_sbm, output="sbm.jsonl", help="write a block-model instance file")
    g.add_argument("--n1", type=int, required=True)
    g.add_argument("--n2", type=int, required=True)
    g.add_argument("--delta", type=float, required=True)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--no-truth", action="store_true")

    g = add("gen-csp", _cmd_gen_csp, output="csp.jsonl", help="write a planted CSP instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    _add_weight_flags(g)

    g = add("gen-goldreich", _cmd_gen_goldreich, output="goldreich.jsonl",
            help="write a predicate-constraint instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--predicate", required=True, help="comma-separated +/-1 table of length 2^k")

    g = add("analyze-q", _cmd_analyze_q, seed=False, help="lowest-degree witness of a weight table")
    _add_weight_flags(g)

    g = add("reduce", _cmd_reduce, output="reduced.jsonl",
            help="CSP or predicate-constraint file -> block-model instance file")
    g.add_argument("--input", "-i", required=True)
    g.add_argument("--thinning", choices=["dedup", "poisson"], default="dedup")
    g.add_argument("--epsilon", type=_epsilon, default=0.5)

    g = add("solve", _cmd_solve, help="recover the left partition of a block-model file")
    g.add_argument("--input", "-i", required=True)
    _add_solver_flags(g)

    g = add("solve-csp", _cmd_solve_csp, help="end-to-end recovery from a CSP or predicate-constraint file")
    g.add_argument("--input", "-i", required=True)
    g.add_argument("--thinning", choices=["dedup", "poisson"], default="dedup")
    g.add_argument("--epsilon", type=_epsilon, default=0.5)
    _add_solver_flags(g)

    g = add("sweep", _cmd_sweep, seed=False, output="sweep.csv", help="density sweep from a TOML/JSON spec to CSV")
    g.add_argument("--config", "-c")
    g.add_argument("--timing", choices=["none", "wall"], default="none")
    g.add_argument("--format", choices=["json", "csv"], default=None)
    g.add_argument("--print-config", action="store_true", help="print default spec and exit")

    return parser


def _load_sweep_config(path) -> dict:
    """JSON for a ``.json`` file name, TOML for any other."""
    with open(path, "rb") as fh:
        text = fh.read().decode()
    if str(path).endswith(".json"):
        return json.loads(text)
    try:
        import tomllib  # py >= 3.11
    except ModuleNotFoundError:
        import tomli as tomllib
    return tomllib.loads(text)


def _tuples(table: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in table.items()}


def _sweep_spec_from_config(cfg: dict) -> SweepSpec:
    """The ``SweepSpec`` of a parsed config. Lists become tuples, ``weights``
    a ``PlantingDistribution`` (an empty list: none) and ``[solver]`` a
    ``SolverConfig``; every other value passes as read, for
    ``SweepSpec.validate`` to check."""
    if not (isinstance(cfg, dict) and isinstance(cfg.get("solver", {}), dict)):
        raise ValueError("sweep config: the config and its [solver] must be tables")
    keys = [f.name for f in fields(SweepSpec)]
    unknown = [k for k in cfg if k not in keys]
    unknown += [f"solver.{k}" for k in cfg.get("solver", {}) if k not in SweepSpec.SOLVER_KEYS]
    if unknown:
        raise ValueError(f"sweep config: unknown key {unknown[0]!r}")
    spec = _tuples(cfg)
    spec["solver"] = SolverConfig(**_tuples(cfg.get("solver", {})))
    if spec.get("weights") is not None:
        if not _number_list(spec["weights"]):
            raise ValueError(f"weights must be a list of numbers, got {cfg['weights']!r}")
        spec["weights"] = _weight_table(spec["weights"]) if spec["weights"] else None
    return SweepSpec(**spec)


def _cmd_gen_sbm(args) -> int:
    params = BlockModelParams(args.n1, args.n2, args.delta, args.p, args.seed)
    graph, truth = sample_bipartite_block(params)
    truth = None if args.no_truth else truth
    files.write_sbm(args.output, graph, delta=args.delta, p=args.p, seed=args.seed, truth=truth)
    _wrote(args, f"{graph.num_edges} edges")
    return 0


def _cmd_gen_csp(args) -> int:
    weights = _weights_from_args(args)
    inst = sample_planted_csp(weights, args.n, args.m, args.seed)
    files.write_csp(args.output, inst, weights, args.seed)
    _wrote(args, f"{inst.m} clauses")
    return 0


def _cmd_gen_goldreich(args) -> int:
    inst = sample_goldreich([int(v) for v in args.predicate.split(",")], args.n, args.m, args.seed)
    files.write_goldreich(args.output, inst, args.seed)
    _wrote(args, f"{inst.m} constraints")
    return 0


def _cmd_analyze_q(args) -> int:
    report = distribution_complexity(_weights_from_args(args))
    _emit(args, json.dumps(report.to_dict()))
    return 0


def _cmd_reduce(args) -> int:
    common = dict(thinning=args.thinning, epsilon=args.epsilon, seed=args.seed)
    data = files.read_constraints(args.input)
    if isinstance(data, files.GoldreichFile):
        report = predicate_lowest_degree(data.instance.predicate)
        reduced = goldreich_to_bipartite(data.instance, report, **common)
    else:
        reduced = csp_to_bipartite(data.instance, distribution_complexity(data.weights), **common)
    files.write_reduced(args.output, reduced, seed=args.seed)
    _wrote(args, f"{reduced.graph.num_edges} edges")
    return 0


def _cmd_solve(args) -> int:
    config = _solver_config(args)
    data = files.read_sbm(args.input)
    p = data.header.get("p")
    if p is not None:
        config = replace(config, p_override=float(p))
    config.resolve_T(data.graph.n1)  # a T_factor too large to split by is blamed, not n1
    try:
        res = spi_solve(data.graph, config, truth=data.truth)
    except (ValueError, MemoryError) as exc:  # e.g. numpy refusing vectors of n1 entries
        raise ValueError(f"{args.input}: cannot solve with n1 = {data.graph.n1}: {exc}") from None
    _emit(args, json.dumps(res.to_dict()))
    return 0 if res.ok else 2


def _cmd_solve_csp(args) -> int:
    config = _solver_config(args)
    common = dict(seed=args.seed, thinning=args.thinning, epsilon=args.epsilon, config=config)
    data = files.read_constraints(args.input)
    n = data.instance.n
    config.resolve_T(2 * n)  # the reduction's left side holds 2n literals
    try:
        if isinstance(data, files.GoldreichFile):
            assignment, report = solve_goldreich_end_to_end(data.instance, **common)
        else:
            assignment, report = solve_csp_end_to_end(data.instance, data.weights, **common)
    except ReductionError:  # a refused reduction is reported by main
        raise
    except (ValueError, MemoryError) as exc:  # e.g. numpy refusing vectors of 2n entries
        raise ValueError(f"{args.input}: cannot solve with n = {n}: {exc}") from None
    payload = report.to_dict()
    payload["assignment"] = None if assignment is None else [int(a) for a in assignment]
    _emit(args, json.dumps(payload))
    return 0 if report.status == "ok" else 2


def _cmd_sweep(args) -> int:
    if args.print_config:
        cfg = asdict(SweepSpec())
        cfg["solver"] = {k: cfg["solver"][k] for k in SweepSpec.SOLVER_KEYS}
        print(json.dumps(cfg, indent=2))
        return 0
    if not args.config:
        raise UsageError("sweep requires --config (or --print-config)")
    spec = _sweep_spec_from_config(_load_sweep_config(args.config))
    rows = run_sweep(spec)
    if args.timing != "wall":  # wall-clock times differ between reruns
        rows = [replace(r, mean_runtime_ms=0.0) for r in rows]
    if args.format == "json":
        with open(args.output, "w") as fh:
            json.dump([asdict(r) for r in rows], fh)
    else:
        write_sweep_csv(rows, args.output)
    _wrote(args, f"{len(rows)} rows")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ReductionError as exc:  # a ValueError, but a solve failure: exit 2
        print(f"cannot reduce: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:  # e.g. a 2^k weight preset numpy cannot allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
