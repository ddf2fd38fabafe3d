#!/usr/bin/env python3
"""Build and run the logitdyn end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload experiments|mixing|daemon \
        --seed N --seconds S --trace 0|1

It builds the benchmark executable and the daemon from source with
dune, then runs one workload. The last line of standard output is the
JSON result; see perfbench/README.md for the metrics. Everything the
build and the run write stays under the current directory.
"""

import os
import signal
import subprocess
import sys

WORK = ".perfbench-work"
TIMEOUT_S = 170


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("perfbench: run from the repository root: no dune-project, lib/ or bin/ here", file=sys.stderr)
        return 2
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp), DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/logitdyn.exe", "./bin/logitdynd.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"), *argv,
           "--git-rev", git_rev(),
           "--cli-exe", os.path.join("_build", "default", "bin", "logitdyn.exe"),
           "--daemon-exe", os.path.join("_build", "default", "bin", "logitdynd.exe")]
    # Own process group, so a timeout also stops the daemon the run spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
