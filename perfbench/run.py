#!/usr/bin/env python3
"""The repo benchmark: build the simulator from source, run one workload,
check its outputs and print its metrics.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The C++ program perfbench/measure.cpp does the measuring and writes its raw
numbers to .bench_build/out/ (the build directory is $CARGO_TARGET_DIR when
set); this script builds it, reduces the raw numbers to the metrics named in
BENCHMARK.json, applies the correctness gate and prints, in order:
    manifest: {...}      build, host and workload description
    digests: {...}       end-state digests; identical on every run of a commit
    summary: ...         one human-readable line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit code is 0 only when every check passes.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CONFIG = json.loads((BENCH_DIR / "metrics.json").read_text())
BUILD_TIMEOUT_S = 840
MEASURE_TIMEOUT_S = 170

# Layers whose self time the traced run reports (the spans' name prefixes).
SPAN_LAYERS = ("workload", "sim", "nand", "ftl", "host", "faultsim", "obs")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else float("inf")


def self_times(spans):
    """Self time per layer: each span's duration minus the part of it its
    children cover, summed by layer (the span name's prefix)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(i, []), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = span["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (span["end"] - span["start"]) - covered
    return out


def at_reference_speed(seconds, calibration_s):
    """Scale a host time to the reference machine speed: the calibration
    kernel timed next to it took calibration_s here and calibration_ref_s
    on the reference host."""
    return seconds * CONFIG["calibration_ref_s"] / calibration_s


def end_to_end(raw):
    """The end-to-end metric values of one untraced run. Host times are
    scaled to the reference machine speed, repetition by repetition."""
    reps = raw["reps"]
    setups = zip(raw["setup_s"], raw["setup_calibration_s"])
    return {
        "kops": median([r["pages"] / at_reference_speed(r["work_s"], r["calibration_s"])
                        for r in reps]) / 1e3,
        "trials_per_s": median([r["trials"] / at_reference_speed(r["seconds"], r["calibration_s"])
                                for r in reps]),
        "setup_s": median([at_reference_speed(s, c) for s, c in setups]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_iops": raw["sim"]["sim_iops"],
        "sim_erases": raw["sim"]["sim_erases"],
        "waf": raw["sim"]["waf"],
        "sim_lat_p50_us": raw["sim"]["sim_lat_p50_us"],
        "sim_lat_p999_us": raw["sim"]["sim_lat_p999_us"],
    }


def per_layer(raw):
    """The per-layer metric values of one traced run. A layer the workload
    never calls reports 0."""
    values = dict(raw["layers"])
    values["sim.latency_samples"] = raw["sim"]["sim_lat_samples"]
    wall = raw["wall_s"]
    selfs = self_times(raw["spans"])
    for layer in SPAN_LAYERS:
        values[layer + ".self_share"] = selfs.get(layer, 0.0) / wall
    values["bench.span_coverage"] = sum(selfs.get(layer, 0.0) for layer in SPAN_LAYERS) / wall
    return values


def result_line(correct, attempted, failed, values, declared):
    """The final output object: every declared metric, with its unit."""
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def validate_result(obj, declared):
    """Schema errors of a result object against the declared metrics."""
    errors = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("keys are %s" % sorted(obj))
        return errors
    if not isinstance(obj["correct"], bool):
        errors.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            errors.append("%s is not a whole number" % key)
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        errors.append("attempted is below 1")
    names = [m["name"] for m in declared]
    if sorted(obj["metrics"]) != sorted(names):
        errors.append("metrics are %s, expected %s" % (sorted(obj["metrics"]), sorted(names)))
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in obj["metrics"].items():
        if set(entry) != {"value", "unit"}:
            errors.append("%s has keys %s" % (name, sorted(entry)))
        elif not isinstance(entry["value"], (int, float)) or isinstance(entry["value"], bool):
            errors.append("%s is not a number" % name)
        elif name in units and entry["unit"] != units[name]:
            errors.append("%s has unit %s, expected %s" % (name, entry["unit"], units[name]))
    return errors


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for root in (SRC_DIR, BENCH_DIR):
        for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            h.update(str(path.relative_to(BENCH_DIR.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=BENCH_DIR.parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"


def run_bounded(command, timeout, what, **kwargs):
    """Run a command in its own process group; on timeout kill the whole
    group (the build's compilers too) and wait for it, then exit."""
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        sys.exit("perfbench: %s timed out" % what)


def build(build_dir):
    """Configure (once) and build measure.cpp; returns its path or exits."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_measure",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            if run_bounded(step, BUILD_TIMEOUT_S, "build", stdout=log, stderr=subprocess.STDOUT):
                sys.exit("perfbench: build failed; see %s" % log_path)
    return build_dir / "perfbench_measure"


def main(argv=None):
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources not found at %s" % SRC_DIR)

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    program = build(build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)
    raw_path = out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    command = [str(program), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(raw_path)]
    status = run_bounded(command, MEASURE_TIMEOUT_S, "measurement")
    if status != 0:
        sys.exit("perfbench: perfbench_measure exited with %d" % status)
    raw = json.loads(raw_path.read_text())

    manifest = dict(raw["manifest"])
    manifest.update({
        "git_describe": git_describe(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": raw["sizes"],
        "setup_reps": len(raw["setup_s"]),
        "measured_reps": len(raw["reps"]),
        "raw_output": os.path.relpath(raw_path),
    })
    raw["manifest"] = manifest
    raw_path.write_text(json.dumps(raw, indent=1) + "\n")

    failed_checks = sorted(name for name, ok in raw["checks"].items() if not ok)
    correct = not failed_checks and raw["failed"] == 0 and raw["attempted"] > 0
    if args.trace:
        declared, values = bench["per_layer"], per_layer(raw)
    else:
        declared, values = bench["end_to_end"], end_to_end(raw)
    result = result_line(correct, raw["attempted"], raw["failed"], values, declared)
    errors = validate_result(result, declared)
    if errors:
        sys.exit("perfbench: malformed result: %s" % "; ".join(errors))

    print("manifest: " + json.dumps(manifest, sort_keys=True))
    print("digests: " + json.dumps(raw["digests"], sort_keys=True))
    kops = [r["pages"] / r["work_s"] / 1e3 for r in raw["reps"]]
    q1, q3 = quartiles(kops)
    print("summary: %s seed %d: %d measured reps, unscaled kop/s q1 %.1f median %.1f q3 %.1f "
          "(spread %.3f), %d/%d ops failed, simulated latency over %d samples, checks %s"
          % (args.workload, args.seed, len(kops), q1, median(kops), q3, relative_spread(kops),
             raw["failed"], raw["attempted"], raw["sim"]["sim_lat_samples"],
             "passed" if not failed_checks else "FAILED: " + ", ".join(failed_checks)))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
