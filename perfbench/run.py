#!/usr/bin/env python3
"""Build and run the seqlearn end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library, the daemon and the perfbench binary from the checkout's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
calls rebuild incrementally. Build output goes to standard error. The
binary's standard output is passed through: a provenance line, a detail
line, and last the result object. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "examples", "seqlearn_cli.cpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "seqlearn_cli"), "--work-dir", work_dir,
           "--git-rev", git_rev(), "--src-digest", source_digest()]
    # Own process group, so a timeout also takes down the daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        print("perfbench: binary exited with %d" % proc.returncode, file=sys.stderr)
        return 1

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - set(result["metrics"])), sorted(set(result["metrics"]) - want)),
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
