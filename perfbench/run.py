#!/usr/bin/env python3
"""The repository benchmark: builds kcore_perfbench from this checkout,
generates the workload's input from the seed, runs the workload and
passes its output through. The last stdout line is the JSON result.

    python3 perfbench/run.py --workload coreness-threads --seed 1 \
        --seconds 10 --trace 0

Run it from the root of the checkout. Build products, generated inputs,
sockets and trace files go under $CARGO_TARGET_DIR (default .bench_build).
Workloads: coreness-threads, coreness-ranks, service-churn (see
perfbench/NOTES.md). --tiny and --corrupt exist for perfbench/test_bench.py.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("coreness-threads", "coreness-ranks", "service-churn")
# A run must end within 180 s; leave room for the build check and teardown.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path.

    Configuring every time keeps the recorded `git describe` current; it
    costs about a second once the build directory exists.
    """
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")):
        log(f"no repository sources around {HERE}; cannot build")
        return None
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", jobs,
              "--target", "kcore_perfbench"]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        try:
            code = subprocess.run(cmd, stdout=sys.stderr,
                                  stderr=sys.stderr).returncode
        except OSError as e:
            code = e
        if code:
            log(f"build failed ({code}): " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "kcore_perfbench")


def run_child(cmd):
    """Runs cmd, waits for it, returns (exit code, stdout text)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 3, ""
    return p.returncode, p.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="test-sized inputs (perfbench/test_bench.py)")
    ap.add_argument("--corrupt", choices=("b", "service"),
                    help="fault injection (perfbench/test_bench.py)")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        return 2

    size = "tiny" if args.tiny else "full"
    family = "service" if args.workload == "service-churn" else "coreness"
    inputs = os.path.join(build_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    graph = os.path.join(inputs, f"{family}-{size}-{args.seed}.kbin")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    if not os.path.isfile(graph):
        code, _ = run_child([binary, "gen", *common, "--out", graph])
        if code:
            log("input generation failed")
            return 2

    cmd = [binary, "run", *common, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--graph", graph]
    if args.workload == "service-churn":
        # Relative, so the Unix socket path stays within sun_path's limit.
        sock = os.path.join(build_dir, f"svc-{os.getpid()}.sock")
        cmd += ["--socket", os.path.relpath(sock)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.trace.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    code, out = run_child(cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
