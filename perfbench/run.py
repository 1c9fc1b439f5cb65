#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the gentrius library.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the C++ program (perfbench/src) and the library from this checkout's
sources into $CARGO_TARGET_DIR (default .bench_build), runs it on one
workload, prints a report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run, with timings
corrected for the host's speed (metrics.host_factor); --trace 1 runs
every pass twice, untraced and with spans, and reports the per-layer
metrics plus the tracing overhead. The exit code is 0 only when every
checked result matched its reference.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = tuple(metrics.SETUP_SAMPLE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (once) and builds the program; build output goes to
    stderr so that stdout carries only the report."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs: time a hypervisor ran other guests
    on the virtual CPUs, against all time."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def fmt(value):
    return f"{value:.6g}"


def report(doc, result, steal):
    host = doc["host"]
    print(f"perfbench workload={doc['workload']} seed={doc['seed']} "
          f"trace={doc['trace']} measured={doc['measured_s']:.1f}s "
          f"engine_passes={doc['engine_passes']} "
          f"session_passes={doc['session_passes']}")
    print(f"host nproc={host['nproc']} cpu=\"{cpu_model()}\" "
          f"compiler=\"{host['compiler']}\" "
          f"build_type={host['build_type']} seed={doc['seed']} "
          f"steal={steal * 100:.1f}%")
    probe = doc["samples"]["host_probe_s"]
    print(f"host probe median={statistics.median(probe) * 1e3:.4g} ms "
          f"n={len(probe)} reference={metrics.PROBE_REFERENCE_S * 1e3:g} ms:"
          f" end-to-end timings are wall time x "
          f"{metrics.host_factor(doc):.4g}")
    for inst in doc["instances"]:
        print(f"instance {inst['name']} states={inst['states']} "
              f"trees={inst['trees']} dead_ends={inst['dead_ends']}")
    frac = doc["failed"] / doc["attempted"]
    print(f"correctness attempted={doc['attempted']} failed={doc['failed']} "
          f"failed_frac={frac:g}")
    for line in doc["failures"]:
        print(f"  mismatch: {line}")

    tails = {"edit_p50_ms": "edit_ms", "read_p50_ms": "read_ms"}
    for name, (value, unit, n) in result.items():
        line = f"  {name:<44} {fmt(value):>12} {unit:<6} n={n}"
        raw = doc["samples"].get(tails.get(name, name))
        t = metrics.tail(raw) if raw and unit in ("s", "ms") else None
        if t:
            line += f"  p{t[0] * 100:g}={fmt(t[1])}"
        target = metrics.LAYER_TARGETS.get(name)
        if target:
            line += f"  -> {target[0]} on {target[1]}"
        print(line)
    if doc["trace"]:
        parts = ", ".join(f"{k} {v * 100:+.1f} %"
                          for k, v in metrics.overheads(doc).items())
        print(f"tracing overhead (traced / untraced - 1): {parts}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        bdir = build_dir()
        binary = build(bdir)
        out = os.path.join(bdir, f"result-{args.workload}-{args.seed}-"
                                 f"{args.trace}.json")
        steal0, total0 = cpu_ticks()
        subprocess.run([binary, "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", out],
                       stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
        steal1, total1 = cpu_ticks()
        with open(out) as f:
            doc = json.load(f)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    result = (metrics.per_layer(doc) if args.trace
              else metrics.end_to_end(doc))
    report(doc, result, metrics.ratio(steal1 - steal0, total1 - total0))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.items()},
    }))
    return 0 if doc["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
