#!/usr/bin/env python3
"""Build and run one perfbench workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: serve_write, serve_read_cold, sim_paper (see
perfbench/NOTES.md).  The first run configures and builds the engine and
the perfbench binary with CMake under $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally.

Output: progress on stderr; on stdout an info line (provenance, sample
counts, ungated figures) and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones, and
the Chrome trace lands in <build dir>/perfbench-traces/.

Exit status: 0 when every reply and read-back was correct, 1 otherwise
(including a failed build, in which case no result line is printed).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("serve_write", "serve_read_cold", "sim_paper")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Leaves room under the 180 s a run may take once built.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(src_dir, build_dir):
    """Configure (once) and build the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return None
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def mount_fstype(path):
    """Filesystem type of the mount holding path, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1].replace("\\040", " ")
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, fields[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def provenance(root, work_dir):
    return {
        "git_sha": git_sha(root),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "db_fs": mount_fstype(work_dir),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(root, target)
    binary = build(here, os.path.join(build_root, "perfbench"))
    if binary is None:
        return 1

    work_dir = os.path.join(build_root, "perfbench-work",
                            f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1

    info = provenance(root, work_dir)
    trace_dir = os.path.join(build_root, "perfbench-traces")
    for name in os.listdir(work_dir):
        if name.startswith("trace-") and name.endswith(".json"):
            os.makedirs(trace_dir, exist_ok=True)
            dest = os.path.join(trace_dir,
                                f"{args.workload}-seed{args.seed}.json")
            shutil.move(os.path.join(work_dir, name), dest)
            info["trace_file"] = dest
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        run_info = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from {args.workload} (exit {proc.returncode})")
        return 1
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        log(f"malformed result: {lines[-1]}")
        return 1
    run_info.pop("trace_file", None)
    info.update(run_info)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
