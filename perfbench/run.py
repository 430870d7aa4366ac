#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stamp32 --seed 1 --seconds 30 --trace 0

Builds perfbench/bin/main.exe with dune (the build stays inside the
checkout's _build directory, dune's shared cache is disabled), runs it
with the same arguments and relays its output; the last line of
standard output is the result JSON. Exits non-zero without a result
when the simulator's sources are missing or the build fails.
"""

import os
import subprocess
import sys

TARGET = "perfbench/bin/main.exe"
EXE = os.path.join("_build", "default", TARGET)
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env):
    """Run cmd to completion; kill it and wait on timeout."""
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    for required in ("dune-project", "lib", os.path.join("perfbench", "dune-project")):
        if not os.path.exists(required):
            fail("run from the root of a source checkout (missing %s)" % required)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET]
    if run(build, BUILD_TIMEOUT, env) != 0:
        fail("build failed")
    sys.stdout.flush()
    code = run([EXE] + sys.argv[1:], RUN_TIMEOUT, env)
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
