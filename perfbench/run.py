#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

One measured run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload kv_scalar_skewed --seed 1 --seconds 10 --trace 0

Steadiness mode: run one workload on seeds 1 .. N and
print each end-to-end metric's median, quartiles and spread against its bound
in BENCHMARK.json; with --sets 2 the whole set runs twice and the two medians
are compared against the bounds as well:

    python3 perfbench/run.py --workload graph_txn --repeat 10 --sets 2

The benchmark builds itself under .bench_build/perfbench at the repository
root, writes its scratch files under .bench_build/tmp, refuses to run when any
HCL_* environment variable is set, and exits non-zero on a failed build,
correctness check or trace guard.
"""
import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SCRATCH_DIR = ROOT / ".bench_build" / "tmp"
RUN_TIMEOUT_S = 170
WORKLOADS = ("kv_scalar_skewed", "kv_bulk_ingest", "graph_txn")


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    """BENCHMARK.json at the repository root, or None when absent."""
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def build():
    if not (ROOT / "src" / "core" / "hcl.h").is_file():
        die(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            die(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            die("build failed")
    return BUILD_DIR / "hclbench"


def guard_tolerance(bench):
    """The trace guard allows the tightest simulated-metric bound."""
    if bench is None:
        return 0.05
    sim = [m["bound"] for m in bench["end_to_end"] if m["name"].startswith("sim_")]
    return min(sim) if sim else 0.05


def run_once(binary, workload, seed, seconds, trace, tolerance, echo):
    """Run the benchmark binary once; returns (exit code, parsed result)."""
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(SCRATCH_DIR), "--guard-tol", str(tolerance)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(SCRATCH_DIR / f"run-{proc.pid}", ignore_errors=True)
        die(f"{workload} seed {seed} exceeded {RUN_TIMEOUT_S} s", 1)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_metric_set(bench, result, trace):
    """The printed metrics must be exactly the ones BENCHMARK.json declares."""
    if bench is None or result is None:
        return True
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != printed:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        print(f"run.py: metric set differs from BENCHMARK.json (missing {missing}, extra {extra},"
              " or a unit differs)", file=sys.stderr)
        return False
    return True


def steadiness(binary, args, bench):
    """Run --repeat seeds per set and report quartile spreads against bounds."""
    metrics = bench["end_to_end"] if bench else []
    tolerance = guard_tolerance(bench)
    sets = []
    for s in range(args.sets):
        values = {m["name"]: [] for m in metrics}
        for seed in range(1, args.repeat + 1):
            code, result = run_once(binary, args.workload, seed, args.seconds, 0, tolerance, False)
            if code != 0 or result is None or not result["correct"]:
                die(f"set {s + 1} seed {seed}: run failed (exit {code})", 1)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"# set {s + 1} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        sets.append(values)

    ok = True
    print(f"{args.workload}: {args.repeat} seeds x {args.sets} set(s), {args.seconds} s per run")
    print(f"{'metric':16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'bound':>6} verdict")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        medians = []
        for s, values in enumerate(sets):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            medians.append(med)
            spread = (q3 - q1) / med if med else float("inf")
            # setup_s is exempt from the spread rule; every other metric must
            # sit well inside its bound.
            verdict = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
            ok = ok and verdict == "ok"
            print(f"{name:16} {s + 1:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{bound:6.3f} {verdict}")
        for s in range(1, len(medians)):
            worse = medians[s] / medians[0] - 1 if m["better"] == "lower" else \
                medians[0] / medians[s] - 1
            verdict = "ok" if worse <= bound else "DRIFT"
            ok = ok and verdict == "ok"
            print(f"{name:16} set {s + 1} vs 1: worse by {worse:+.4f} (bound {bound}) {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: seeds per set")
    parser.add_argument("--sets", type=int, default=1, help="steadiness mode: number of sets")
    args = parser.parse_args()

    ambient = sorted(k for k in os.environ if k.startswith("HCL_"))
    if ambient:
        die(f"refusing to run with {', '.join(ambient)} set; unset every HCL_* variable")
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"] if bench else 10
    binary = build()
    if args.repeat > 0:
        if args.repeat < 2:
            die("--repeat needs at least 2 seeds for quartiles")
        return steadiness(binary, args, bench)
    code, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                            guard_tolerance(bench), True)
    if result is None:
        return code if code != 0 else 1
    if not check_metric_set(bench, result, args.trace == 1):
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
