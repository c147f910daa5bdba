"""Benchmark for pqosc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from
`src/`.  One process, closed loop, one operation at a time.  The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  Results and spans
are also written under perfbench/results/.  See perfbench/README.md.
"""

import os

# Fixed before numpy loads, and inherited by every child process.  One
# thread: on a 2-core machine a second OpenBLAS thread spins beside the
# Python thread after each small matmul, and pass times then scatter with
# the scheduler rather than with the program.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from cli_cold import child_env, run_in_process  # noqa: E402
from harness import measure, run_pass  # noqa: E402
from tracer import NO_TRACE, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("hopf_closure", "param_scan", "cli_cold")
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
# Kernel samples a set-up child takes before it starts its clock.
SETUP_KERNEL_REPEATS = 5
CHILD_TIMEOUT = 120.0

# Per-layer metrics: busy time per traced pass, summed over these span names.
LAYER_TIMES = {
    "structure.busy_s": ("structure.f_general",),
    "fock.build_s": ("fock.build",),
    "fock.relations_s": ("fock.check_relations",),
    "fock.apply_word_s": ("fock.apply_word",),
    "calculus.realization_s": ("calculus.check_realization",),
    "spectrum.table_s": ("spectrum.spectrum_table",),
    "spectrum.duality_s": ("spectrum.check_pq_inversion",),
    "hopf.solve_s": ("hopf.solve_coefficients", "hopf.check_constraints"),
    "hopf.coassoc_s": ("hopf.check_coassociativity",),
    "hopf.counit_s": ("hopf.check_counit",),
    "hopf.antipode_s": ("hopf.check_antipode",),
    "hopf.homomorphism_s": ("hopf.check_homomorphism",),
    "report.to_json_s": ("report.to_json",),
    "cli.run_s": ("cli.run",),
    "cli.process_s": ("cli.process",),
    "op.self_s": ("op",),
}
# Per-layer counts per traced pass: the sum of one span attribute, and its unit.
LAYER_COUNTS = {
    "structure.evals": ("evals", "count"),
    "fock.builds": ("builds", "count"),
    "fock.relation_checks": ("relation_checks", "count"),
    "fock.matmul_flops": ("flops", "flop"),
    "calculus.monomials": ("monomials", "count"),
    "spectrum.levels": ("levels", "count"),
    "hopf.cases": ("cases", "count"),
    "hopf.three_site_bytes": ("three_site_bytes", "B"),
    "report.bytes": ("bytes", "B"),
    "cli.stdout_bytes": ("stdout_bytes", "B"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_child(workload: str) -> None:
    """Import pqosc and run the warm-up operations; print the seconds taken,
    scaled by the kernel timed just before."""
    kernel = [speed.time_kernel() for _ in range(SETUP_KERNEL_REPEATS)]
    start = time.perf_counter()
    for op in importlib.import_module(workload).warmup():
        op.run(NO_TRACE)
    print((time.perf_counter() - start) * speed.scale(kernel))


def child_seconds(argv: list) -> float:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(ROOT),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of pqosc's import plus the warm-up,
    each at the reference speed."""
    argv = [str(Path(__file__).resolve()), "--workload", workload, "--setup-child"]
    return statistics.median([child_seconds(argv) for _ in range(SETUP_REPEATS)])


def measure_cli_import() -> float:
    code = "import time; t = time.perf_counter(); import pqosc.cli; print(time.perf_counter() - t)"
    return statistics.median([child_seconds(["-c", code]) for _ in range(IMPORT_REPEATS)])


def build_ops(workload: str, seed: int):
    module = importlib.import_module(workload)
    if workload == "cli_cold":
        return module.build(seed, ROOT, RESULTS)
    return module.build(seed)


def pass_times(results: list, scaled: bool) -> tuple:
    """Median pass and operation time, each pass scaled by its own kernel
    samples when `scaled`."""
    passes, ops = [], []
    for r in results:
        k = speed.scale(r.kernel_seconds) if scaled else 1.0
        passes.append(r.seconds * k)
        ops.extend(t * k for t in r.op_seconds)
    return statistics.median(passes), statistics.median(ops)


def end_to_end(workload, scaled, passes, setup_s) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    pass_s, op_p50_s = pass_times([r for _, r in passes], scaled)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "op_p50_s": (op_p50_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, passes, ops) -> dict:
    """Per-layer figures from the spans of the traced passes.

    A layer the workload's passes never call is timed by one probe call at
    the smallest inputs instead, so its figure is a measured per-call time,
    not 0.  Counts come from the passes only.
    """
    import probe  # imports pqosc, which is on the path only once main() has checked src/

    traced =[r for t, r in passes if t]
    untraced = [r for t, r in passes if not t]
    argvs = [op.argv for op in ops if op.argv is not None]
    tracer.section = "replay"
    for argv in argvs:
        run_in_process(tracer, argv)
    n = len(traced)
    pass_t, pass_c = tracer.totals("pass")
    busy = {name: seconds / n for name, seconds in pass_t.items()}
    busy.update(tracer.totals("replay")[0])  # one replay is one pass's worth

    tracer.section = "probe"
    missing = {name for names in LAYER_TIMES.values() for name in names if name not in busy}
    probe.run(tracer, missing, ROOT)
    probe_t, _ = tracer.totals("probe")

    metrics = {}
    for metric, names in LAYER_TIMES.items():
        source = busy if any(name in busy for name in names) else probe_t
        metrics[metric] = (sum(source.get(name, 0.0) for name in names), "s")
    for metric, (key, unit) in LAYER_COUNTS.items():
        metrics[metric] = (pass_c.get(key, 0) / n, unit)
    if "structure.f_general" in pass_t:
        per_eval = pass_t["structure.f_general"] / pass_c["evals"]
    else:
        per_eval = probe_t["structure.f_general"]  # the probe evaluates f once
    metrics["structure.ns_per_eval"] = (per_eval * 1e9, "ns")
    metrics["cli.import_s"] = (measure_cli_import(), "s")
    traced_s = statistics.median([r.seconds for r in traced])
    untraced_s = statistics.median([r.seconds for r in untraced])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pqosc" / "__init__.py").is_file():
        print(f"error: no pqosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_child:
        setup_child(args.workload)
        return 0

    scaled = importlib.import_module(args.workload).SCALED and not args.trace
    ops = build_ops(args.workload, args.seed)
    # One untimed pass first: caches, lazy set-up and the allocator's
    # thresholds (which move small dense Hopf cases by 2.5x) reach the
    # state every measured pass then sees.
    run_pass(ops, NO_TRACE)
    tracer = Tracer() if args.trace else None
    passes = measure(ops, args.seconds, tracer, speed.Speed() if scaled else speed.NO_SPEED)

    attempted = sum(r.attempted for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    unexpected = [u for _, r in passes for u in r.unexpected]
    for kind, found in (("counted failure (known fault)", passes[0][1].expected),
                        ("unexpected failure", unexpected)):
        for name, problems in dict(found).items():
            print(f"{kind}: {name}: {'; '.join(problems)}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(args.workload, scaled, passes, measure_setup(args.workload))
    else:
        metrics = per_layer(tracer, passes, ops)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        # Unscaled: [traced, pass seconds, the pass's kernel samples].
        passes=[[traced, r.seconds, r.kernel_seconds] for traced, r in passes],
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
