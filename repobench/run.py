#!/usr/bin/env python3
"""Build and run the range-lock benchmark from the root of a source tree.

    python3 repobench/run.py --workload arr-random --seed 1 --seconds 20 --trace 0

The benchmark is an OCaml executable in this directory, built with dune
into .bench_build (release profile, no shared cache) before it runs. The
last line of standard output is the JSON result. The build happens before
any measurement; a tree without the library sources fails here with a
non-zero exit and no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", os.path.basename(HERE), "repobench.exe")
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("run.py: no dune-project/lib next to the benchmark; nothing to build",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = os.path.basename(HERE) + "/repobench.exe"
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet", target]
    try:
        # Build output goes to stderr so stdout ends with the result line.
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1


def main():
    rc = build()
    if rc != 0:
        return rc or 1
    proc = subprocess.Popen([EXE] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s and was killed",
              file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
