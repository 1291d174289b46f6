#!/usr/bin/env python3
"""Build and run the ASYNC end-to-end benchmark from this checkout.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-churn --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a Go program in this directory, a module of its own that
builds against the repository one level up. Everything the build and the
run write (Go build cache, binary, stores, traces) stays under the build
directory, `.bench_build` at the repository root unless CARGO_TARGET_DIR
names another directory inside it. The last line of standard output is the
JSON result; the exit code is the program's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 178


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    d = os.path.normpath(os.path.join(ROOT, d))
    if os.path.commonpath([d, ROOT]) != ROOT:
        d = os.path.join(ROOT, ".bench_build")
    return d


def main():
    for need in ("go.mod", "async", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found next to perfbench/: run from a full checkout",
                  file=sys.stderr)
            return 2
    build = build_dir()
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench-bin")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if not any(a == "--workdir" or a.startswith("--workdir=") for a in args):
        args = ["--workdir", os.path.join(build, "perfbench")] + args
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
