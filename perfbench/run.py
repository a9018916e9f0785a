#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload engine-dense --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the run records all live under
.bench_build/ in the current directory. The benchmark's result line is
the last line of standard output; the exit code is the benchmark's
(non-zero when a build fails, a run cannot measure, or an output check
fails).
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Everything the build and the run write stays under .bench_build.
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # Go's flag package accepts --flag as well as -flag.
    args = [binary, "-out", os.path.join(build, "results")] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
