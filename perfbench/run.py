"""Benchmark of planted: one workload per process, trials in a closed loop.

    python3 perfbench/run.py --workload sbm_square --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, taken from spans recorded around the calls into each
module of ``planted``. See perfbench/README.md.
"""
import time

T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# One thread for numpy and whatever BLAS or OpenMP runtime it loads; set
# before numpy is imported, and inherited by the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Trial t of a run uses seed (workload seed, t); set-up probe r warms up on
# (workload seed, WARMUP + r), which no timed trial reaches.
WARMUP = 1_000_000
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 170


def import_program():
    """Import planted from this tree's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "planted" / "__init__.py").is_file():
        raise SystemExit(f"error: no planted sources under {src}")
    sys.path.insert(0, str(src))
    import planted

    if Path(planted.__file__).resolve().parent != src / "planted":
        raise SystemExit(f"error: imported planted from {planted.__file__}, not from {src}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} is missing")
    return json.loads(path.read_text())


def run_trial(workload, seed: int, workdir: Path):
    """One trial; an exception counts as a failed trial."""
    from workloads import Trial

    try:
        return workload.run(seed, workdir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Trial(False, 0, None, ("raised",), "raised")


def timed(workload, seed: int, workdir: Path):
    start = time.perf_counter()
    trial = run_trial(workload, seed, workdir)
    return trial, time.perf_counter() - start


def tail_note(values: list[float]) -> str:
    """The highest nearest-rank percentile with at least ten trials beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return f"p{q:g} {ordered[rank - 1]:.4f} s ({n - rank} trials beyond it, n={n})"
    return f"no percentile has ten trials beyond it (n={n})"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(workload: str, seed: int, rep: int) -> dict:
    """Set-up of a fresh process: imports plus one warm-up trial."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe", str(rep)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> list[str]:
    import numpy as np

    cpu, l3 = "unknown", "unknown"
    if shutil.which("lscpu"):
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30, check=False,
                             env={**os.environ, "LC_ALL": "C"}).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "Model name":
                cpu = value.strip()
            elif key.strip() == "L3 cache":
                l3 = value.strip()
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return [
        f"python {platform.python_version()}, numpy {np.__version__}",
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}, L3 {l3}",
        f"threads: {threads}",
        "byte counts are computed from array sizes, not measured bandwidth",
        "cli_files reads the file it has just written, from a warm page cache (caches are not dropped)",
    ]


def untraced(workload, args, workdir: Path, setups: list[dict]):
    """Timed trials until ``args.seconds`` have passed. Set-up time and peak
    RSS are medians over the set-ups: each is a fresh process after imports
    and one trial. Past that the peak keeps creeping up with heap
    fragmentation, by an amount that depends on how many trials fit into the
    run, so it is printed for information only."""
    from workloads import trial_seed

    trials, times = [], []
    start = time.perf_counter()
    t = 0
    while time.perf_counter() - start < args.seconds:
        trial, dt = timed(workload, trial_seed(args.seed, t), workdir)
        trials.append(trial)
        times.append(dt)
        t += 1
    solves = [tr.solve_s for tr in trials if tr.solve_s is not None]
    metrics = {
        "trial_s_p50": statistics.median(times),
        "solve_s_p50": statistics.median(solves) if solves else 0.0,
        "items_per_s": sum(tr.items for tr in trials) / sum(times),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups),
        "exact_rate": sum(tr.exact for tr in trials) / len(trials),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    lines = [
        f"trial_s: {tail_note(times)}",
        f"solve_s: {tail_note(solves) if solves else 'no solve finished'}",
        "set-ups: " + ", ".join(f"{s['setup_s']:.4f} s {s['peak_rss_mb']:.1f} MB" for s in setups),
        f"peak RSS after all {len(trials)} trials: {peak_rss_mb():.1f} MB",
    ]
    return trials, metrics, lines


def traced(workload, args, workdir: Path):
    """Trials in pairs on one seed, traced and untraced, alternating which
    runs first; the difference of their medians is the tracing overhead."""
    import spans
    from workloads import trial_seed

    tracer = spans.Tracer()
    trials, plain_s, traced_s, span_sets, layers = [], [], [], [], []
    consistent = True
    start = time.perf_counter()
    t = 0
    while time.perf_counter() - start < args.seconds:
        seed = trial_seed(args.seed, t)
        pair = {}
        for is_traced in ((False, True) if t % 2 == 0 else (True, False)):
            if is_traced:
                tracer.spans = []
                with tracer.patched(), tracer.span("trial") as root:
                    pair[True] = run_trial(workload, seed, workdir)
                traced_s.append(root.duration)
                span_sets.append(tracer.spans)
                layers.append(spans.layer_values(tracer.spans))
            else:
                pair[False], dt = timed(workload, seed, workdir)
                plain_s.append(dt)
        trials += [pair[False], pair[True]]
        if pair[False].fingerprint != pair[True].fingerprint or layers[-1]["instances.items"] != pair[True].items:
            consistent = False
            print(f"trial {t}: traced and untraced counts differ: {pair[False].fingerprint} vs "
                  f"{pair[True].fingerprint}, items {layers[-1]['instances.items']}", file=sys.stderr)
        t += 1

    metrics = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    stage = spans.stage_rows(span_sets)
    modules = {name.split(".")[0] for name, *_ in stage}
    solve_s = next((total for name, _, total, _ in stage if name == "solver.spi_solve"), 0.0)
    lines = [f"{len(layers)} traced and {len(plain_s)} untraced trials, paired by seed",
             f"trial_s_p50 untraced {statistics.median(plain_s):.4f} s, traced {statistics.median(traced_s):.4f} s, "
             f"overhead {metrics['trace.overhead_s']:.4f} s; median of the paired differences "
             f"{statistics.median(a - b for a, b in zip(traced_s, plain_s)):.4f} s",
             f"counts of traced and untraced trials {'match' if consistent else 'DIFFER'}",
             "", f"{'span':<22}{'calls':>6}{'total_s':>11}{'self_s':>11}"]
    lines += [f"{name:<22}{calls:>6g}{total:>11.4f}{own:>11.4f}" for name, calls, total, own in stage]
    for label, holds in spans.ordering_checks(args.workload, metrics, solve_s):
        lines += ["", f"baseline ordering {label}: {'holds' if holds else 'does not hold'}"]
    lines += ["", f"{'layer metric':<30}{'median':>14}  moves / on"]
    for name, (moves, on) in spans.PREDICTIONS.items():
        shown = f"{metrics[name]:>14.6g}" if name.split(".")[0] in modules | {"trace"} else f"{'not reached':>14}"
        lines.append(f"{name:<30}{shown}  {moves} / {on}")
    return trials, metrics, lines, consistent


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", dest="rep", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, trial_seed

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        warm = run_trial(workload, trial_seed(args.seed, WARMUP + (args.rep or 0)), workdir)
        setups = [{"setup_s": time.perf_counter() - T0, "peak_rss_mb": peak_rss_mb(), "exact": warm.exact}]
        if args.rep is not None:
            print(json.dumps(setups[0]))
            return 0
        consistent = True
        if args.trace:
            trials, values, lines, consistent = traced(workload, args, workdir)
            declared = spec["per_layer"]
        else:
            setups += [setup_probe(args.workload, args.seed, rep) for rep in range(1, SETUP_REPEATS)]
            trials, values, lines = untraced(workload, args, workdir, setups)
            declared = spec["end_to_end"]

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {[m['name'] for m in declared]}")
    failed = sum(not tr.exact for tr in trials)
    warm_exact = all(s["exact"] for s in setups)
    for line in environment():
        print(f"# {line}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"{failed} of {len(trials)} trials failed; warm-up trials exact: {warm_exact}")
    for tr in trials:
        if not tr.exact:
            print(f"  failed trial: {tr.note}")
    for line in lines:
        print(line)
    if not args.trace:
        for m in declared:
            print(f"{m['name']:<14}{values[m['name']]:>14.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = failed == 0 and consistent and warm_exact
    print(json.dumps({"correct": correct, "attempted": len(trials), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
