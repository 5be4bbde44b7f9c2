#!/usr/bin/env python3
"""Build and run the repository's benchmark (perfbench/).

Run from the repository root:

    python3 perfbench/run.py --pinpoints-seed 1 --workload pipeline --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/, with the Go build
cache, configuration and temporary files kept there too, so the benchmark writes only inside the
checkout. The wrapper then replaces itself with the program, passing every
argument through, so no process outlives the run.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal")
    ):
        sys.stderr.write("perfbench: run from the repository root (go.mod and internal/ not found)\n")
        return 2
    build = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        TMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # Telemetry off in the private config dir: the go command then keeps no
    # counters and starts no background process.
    mode = os.path.join(build, "config", "go", "telemetry", "mode")
    os.makedirs(os.path.dirname(mode), exist_ok=True)
    with open(mode, "w") as f:
        f.write("off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
