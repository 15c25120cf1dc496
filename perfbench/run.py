#!/usr/bin/env python3
"""Builds and runs the LRPC host benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload par_call --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which pulls in ../src) under .bench_build/perfbench; later runs
only rebuild what changed. Before the result it prints the host fingerprint
and whether it matches the one recorded in perfbench/recorded.json. The last
line of stdout is the benchmark's JSON result; the exit status is the
benchmark's (non-zero when a correctness check failed), or 2 when the
program cannot be built.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "lrpc_perfbench"
RECORDED = BENCH_DIR / "recorded.json"
WORKLOADS = ("par_call", "par_fanin", "proc_call", "proc_async")
# A run must end within 180 s; the first run in a checkout also builds, and
# may take up to 900 s in all.
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 700.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(cmd, timeout):
    env = dict(os.environ)
    # Keep the compiler's temporary files inside the checkout.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=timeout)
    if result.returncode != 0:
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build(started):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no LRPC sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, BUILD_DEADLINE_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "--target",
                    "lrpc_perfbench", "-j", jobs],
                   BUILD_DEADLINE_S - (time.monotonic() - started))
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def source_digest():
    """SHA-256 over the program's sources: the commit id of a checkout that
    is not a git repository."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cc", ".txt"))
    files += sorted(p for p in BENCH_DIR.iterdir() if p.suffix in (".cc", ".txt"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(recorded):
    out = subprocess.run([str(BINARY), "--fingerprint"], capture_output=True,
                         text=True, timeout=30)
    if out.returncode != 0:
        fail("the benchmark binary could not report its fingerprint")
    host = json.loads(out.stdout.strip().splitlines()[-1])
    host["commit"] = git_commit()
    host["source_digest"] = source_digest()
    want = recorded.get("fingerprint", {})
    differs = [key for key in ("nproc", "cpu_model", "compiler", "build_type")
               if key in want and host.get(key) != want[key]]
    print("fingerprint " + json.dumps(host, sort_keys=True))
    if differs:
        print("fingerprint differs from recorded.json in: " + ", ".join(differs)
              + " (figures are not comparable with the recorded host)")
    else:
        print("fingerprint matches recorded.json")


def main():
    started = time.monotonic()
    recorded = json.loads(RECORDED.read_text()) if RECORDED.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=recorded.get("default_seed", 1))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build(started)
    fingerprint(recorded)

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    # Its own process group holds the forked server domains too, so nothing
    # the run started outlives it, even when it crashes or times out.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if code is None:
        fail("the benchmark did not finish in time")
    return code


if __name__ == "__main__":
    sys.exit(main())
