#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the Go benchmark in this directory against the repository
source one level up, keeping every build artefact (binary, build cache,
temporary files) under the build directory -- $CARGO_TARGET_DIR when set,
else .bench_build at the repository root -- and then runs it with the given
arguments. The benchmark's last line of standard output is its JSON result;
the exit status is the benchmark's, or 1 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
    })
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                               env=env, stdout=sys.stderr)
    except OSError as err:
        print("perfbench: cannot run the go toolchain: %s" % err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
