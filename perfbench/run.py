#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (the first build in
a fresh checkout compiles the whole library), then runs it. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from a traced
run (spans are written to perfbench/out/). Exits non-zero without a
result if the build fails, and non-zero with "correct": false if any
output disagrees with the oracle or the audit.
"""

import argparse
import ctypes
import glob
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["point_rw", "scan_big", "crash_restart", "front_repl"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return found[0] if found else None


def children(pid):
    """Pids of the live processes whose parent is pid."""
    found = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.split("/")[2]))
    return found


def become_subreaper():
    """Adopt orphaned descendants (Linux), so a restart-cycle child whose
    parent was killed can still be waited for here."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_all():
    """Wait for every remaining child process."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and the children it forked
    (the benchmark runs restart cycles in one) and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # stopped first, so it cannot fork while its children are found
        proc.send_signal(signal.SIGSTOP)
        for pid in children(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        proc.kill()
        proc.communicate()
        reap_all()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        sys.exit(1)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    become_subreaper()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        sys.exit(1)
    code, _ = run(
        [dune, "build", "--root", root, "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        cwd=root,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)

    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    code, out = run(
        [
            exe,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
    )
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
