#!/usr/bin/env python3
"""Tempest end-to-end benchmark.

Run from the root of a Tempest checkout:

    python3 perfbench/run.py --workload record|offline|fleet --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds a Release tree of the profiler and the benchmark from this
checkout (under $CARGO_TARGET_DIR, default .bench_build), then runs the
benchmark binary in one scratch directory that is removed at exit. The
last line of standard output is the result object; build output and
diagnostics go to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """Our environment minus TEMPEST_* knobs, so every tool runs with defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TEMPEST_")}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cmake(args, env):
    return subprocess.run(["cmake"] + args, cwd=ROOT, env=env,
                          stdout=sys.stderr, stderr=sys.stderr).returncode


def build(targets):
    """Configure (Release) and build `targets`; False on failure."""
    bdir = build_dir()
    env = clean_env()
    configure = ["-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if cmake(configure, env) != 0:
        # A cache from another source location cannot be reused.
        shutil.rmtree(bdir, ignore_errors=True)
        if cmake(configure, env) != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for target in targets:
        if cmake(["--build", bdir, "--target", target, "-j", jobs], env) != 0:
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_benchmark(args):
    bdir = build_dir()
    scratch_root = os.path.dirname(bdir)
    os.makedirs(scratch_root, exist_ok=True)
    # Relative to the checkout root (the benchmark's working directory), so
    # the collector's Unix socket path stays short.
    work = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    work_rel = os.path.relpath(work, ROOT)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin", bdir, "--work", work_rel, "--git-sha", git_sha()]
    if args.trace == 1:
        cmd += ["--spans-out",
                os.path.join(scratch_root, "spans-%s.jsonl" % args.workload)]
    proc = None
    try:
        # Own process group, so a timeout also reaches the collector
        # daemon the benchmark started.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(),
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        out, _ = proc.communicate(timeout=args.seconds + 140)
        sys.stdout.write(out)
        sys.stdout.flush()
        return proc.returncode
    except subprocess.TimeoutExpired:
        log("benchmark exceeded its time limit")
        return 3
    finally:
        if proc is not None and proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["record", "offline", "fleet"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the benchmark's own check tests")
    args = p.parse_args()

    if args.self_test:
        if not build(["perfbench_tests"]):
            log("build failed")
            return 2
        return subprocess.run([os.path.join(build_dir(), "perfbench_tests")],
                              cwd=ROOT).returncode
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not build(["perfbench_all"]):
        log("build failed")
        return 2
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
