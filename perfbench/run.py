#!/usr/bin/env python3
"""Build and run one sorel benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (an optimised build of the library from ../src plus the
load generator) under $CARGO_TARGET_DIR, default .bench_build; later runs
only check that build is current.

stdout ends with two lines: the environment stamp ({"stamp": {...}}: nproc,
compiler, build type, load average) and the result {"correct", "attempted",
"failed", "metrics"}. Each run is also saved, stamp and result together,
under <build dir>/perfbench-results/<workload>/ for perfbench/bench_diff.py.
Build output and diagnostics go to stderr. Exits non-zero, printing no
result, when the build fails or the checkout lacks the sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(build_dir):
    """Configure (once) and build the load generator; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "sorel_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "sorel_perfbench"


def with_units(result, benchmark, trace):
    """The result line with each metric as {"value", "unit"}, units from
    BENCHMARK.json. The untraced run must report exactly the end-to-end
    metrics; the traced run reports the per-layer metrics of the layers its
    workload reaches, and every other layer reads 0. Raises ValueError on a
    malformed result or a metric BENCHMARK.json does not define."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are " + ", ".join(sorted(result)))
    table = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in table}
    measured = result["metrics"]
    if not result["correct"]:
        measured, units = {}, {}  # a failed gate reports no numbers
    elif trace:
        measured = dict({name: 0.0 for name in units}, **measured)
    if set(measured) != set(units):
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(measured) ^ set(units)))
    metrics = {name: {"value": measured[name], "unit": units[name]} for name in units}
    return dict(result, metrics=metrics)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        log("error: unknown workload %r" % args.workload)
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("error: %s holds no sorel sources to build" % ROOT)
        return 1

    build_dir = build_root() / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log("error: build failed: %s" % error)
        return 1

    out_dir = build_root() / "perfbench-out"
    load_before = os.getloadavg()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace,
               # Relative to ROOT: the serve socket path must stay short.
               "--out", os.path.relpath(out_dir, ROOT)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        log("error: sorel_perfbench exited %d without a result" % run.returncode)
        return 1
    stamp = json.loads(lines[0])["stamp"]
    result = json.loads(lines[-1])
    stamp["loadavg_before"] = list(load_before)
    stamp["loadavg_after"] = list(os.getloadavg())
    if stamp.get("build_type") not in OPTIMISED_BUILD_TYPES or not stamp.get("ndebug"):
        log("error: refusing an unoptimised build (%s)" % stamp.get("build_type"))
        return 1
    try:
        result = with_units(result, benchmark, args.trace == "1")
    except ValueError as error:
        log("error: %s" % error)
        return 1

    results_dir = build_root() / "perfbench-results" / args.workload
    results_dir.mkdir(parents=True, exist_ok=True)
    name = "seed%d-trace%s-%d.json" % (args.seed, args.trace, time.time_ns())
    (results_dir / name).write_text(json.dumps({"stamp": stamp, "result": result}) + "\n")

    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
