#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper_h6_advc --seed 1 --seconds 15 --trace 0

Every build product (the Go build cache, the binary) and every file the
benchmark writes stays under .bench_build/ in the current directory. The
arguments are passed to the binary unchanged; its exit status is returned.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(build, "perfbench")
    src = os.path.join(root, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary, "--dir", build] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
