"""Self-test of the benchmark at tiny sizes; takes a few seconds.

    python3 perfbench/selftest.py

Runs every workload twice on the same seeds, traced, and checks that spans
nest inside their parents, that self times are non-negative, that the child
spans of a trial sum to no more than the trial, that each workload reaches
the layers it is there for, and that counts repeat exactly across the two
runs and match an untraced run. Exits non-zero on the first failed check.
"""
import sys
import tempfile
from pathlib import Path

import run  # sets the thread variables and finds the sources

run.import_program()

import spans  # noqa: E402
from workloads import TINY, trial_seed  # noqa: E402

SEED = 7
TRIALS = 2
# The modules whose spans each workload must record.
REACHES = {
    "sbm_square": {"trial", "instances", "solver"},
    "sbm_lopsided": {"trial", "instances", "solver"},
    "csp_3xor": {"trial", "instances", "harness", "fourier", "reduction", "solver"},
    "cli_files": {"trial", "cli", "instances", "files", "solver"},
}
COUNT_UNITS = {"count", "bytes", "ratio"}


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_self_times():
    parent = spans.Span("a", None, 0.0, 10.0)
    kids = [spans.Span("b", 0, 1.0, 3.0), spans.Span("c", 0, 4.0, 6.0), spans.Span("d", 2, 4.5, 5.0)]
    got = spans.self_times([parent] + kids)
    check(got == [6.0, 2.0, 1.5, 0.5], f"self times of a known tree: {got}")


def check_structure(name: str, tree: list[spans.Span]):
    root = tree[0]
    check(root.name == "trial" and root.parent is None, f"{name}: the first span is the trial")
    for s in tree[1:]:
        p = tree[s.parent]
        check(p.start <= s.start <= s.end <= p.end, f"{name}: {s.name} lies outside its parent {p.name}")
    check(all(t >= 0.0 for t in spans.self_times(tree)), f"{name}: a self time is negative")
    children = sum(s.duration for s in tree if s.parent == 0)
    check(children <= root.duration, f"{name}: child spans sum to {children} > trial {root.duration}")
    modules = {s.name.split(".")[0] for s in tree}
    check(modules == REACHES[name], f"{name}: spans reach {sorted(modules)}, expected {sorted(REACHES[name])}")


def traced_pass(workload, workdir: Path):
    tracer = spans.Tracer()
    out = []
    for t in range(TRIALS):
        tracer.spans = []
        with tracer.patched(), tracer.span("trial"):
            trial = workload.run(trial_seed(SEED, t), workdir)
        check(trial.exact, f"{workload.name}: trial {t} missed exact recovery ({trial.note})")
        check_structure(workload.name, tracer.spans)
        out.append((trial.fingerprint, spans.layer_values(tracer.spans)))
    return out


def main() -> int:
    check_self_times()
    spec = run.load_spec()
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS}
    layer_names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for name, workload in TINY.items():
            first, second = traced_pass(workload, Path(tmp)), traced_pass(workload, Path(tmp))
            check(set(first[0][1]) == layer_names, f"{name}: layer metrics differ from BENCHMARK.json")
            for t, ((fp1, l1), (fp2, l2)) in enumerate(zip(first, second)):
                check(fp1 == fp2, f"{name}: trial {t} fingerprints differ across runs")
                for c in counts:
                    check(l1[c] == l2[c], f"{name}: trial {t} count {c} differs across runs: {l1[c]} vs {l2[c]}")
                plain = workload.run(trial_seed(SEED, t), Path(tmp))
                check(plain.fingerprint == fp1, f"{name}: trial {t} untraced fingerprint differs from traced")
                check(l1["instances.items"] == plain.items, f"{name}: trial {t} traced items differ from untraced")
            print(f"{name}: ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
