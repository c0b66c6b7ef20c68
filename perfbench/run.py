#!/usr/bin/env python3
"""Simulator benchmark: builds the driver from this checkout's sources, runs
one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With --trace 0 the last stdout line carries
the end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
ones; lines before it are the full human-readable report. See README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
MICRO_TIMEOUT_S = 120
MICRO_FILTER = ("^(BM_LinkTransfer|BM_CreditedLinkCycle|BM_MeshRoutePolicy/.*|"
                "BM_SramSlaveCycle|BM_TxnMonitorTick|BM_QuantileSketch|"
                "BM_FullSocCycle|BM_ShardBarrier/.*)$")
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures once, then builds incrementally; build output goes to stderr."""
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(3)


def source_id():
    """The git commit when there is one, else a digest of the simulator sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def micro_rates(bdir):
    """ns per iteration of the per-layer micro benches, as micro.<name>."""
    exe = os.path.join(bdir, "bench_micro_components")
    if not os.path.isfile(exe):
        print("note: google-benchmark is not built; micro.* rates skipped")
        return {}
    out = subprocess.run([exe, "--benchmark_filter=" + MICRO_FILTER,
                          "--benchmark_format=json", "--benchmark_min_time=0.1"],
                         capture_output=True, text=True, timeout=MICRO_TIMEOUT_S)
    if out.returncode != 0:
        log(out.stderr)
        log("perfbench: micro benches failed")
        sys.exit(4)
    rates = {}
    for b in json.loads(out.stdout)["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        ns = b["real_time"] * TIME_UNIT_NS[b["time_unit"]]
        rates["micro." + b["name"].replace("/", ".")] = {"value": ns, "unit": "ns"}
    return rates


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the simulator sources (CMakeLists.txt, src/) are missing "
            "from " + ROOT)
        sys.exit(2)
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    bdir = build_dir()
    build(bdir)
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--commit", source_id()]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--traced", "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
        sys.exit(4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: driver exited with {proc.returncode}")
        sys.exit(proc.returncode or 4)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        metrics.update(micro_rates(bdir))
        print(f"trace file: {trace_file}")
    missing = [n for n in wanted if n not in metrics and not n.startswith("micro.")]
    if missing:
        log("perfbench: driver did not report " + ", ".join(missing))
        sys.exit(5)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in wanted if n in metrics},
    }))


if __name__ == "__main__":
    main()
