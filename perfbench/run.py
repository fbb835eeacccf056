#!/usr/bin/env python3
"""Build and run frostlab's benchmark (the Go package in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload winter-batch --seed 115 --seconds 20 --trace 0

Every argument is passed to the benchmark binary; see main.go for them.
The build and the benchmark's outputs stay inside the repository, under
.bench_build/ (the Go build cache, the binary, and the traced run's CPU
profile and spans). The exit status is the benchmark's; a checkout
without the frostlab module beside this directory fails the build and
exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from a frostlab checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and never
    # reach for the network: the benchmark has no dependencies outside
    # this repository and the standard library.
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOSUMDB="off",
               GOTOOLCHAIN="local", GOWORK="off", GOENV="off",
               GOTELEMETRY="off", CGO_ENABLED="0")

    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if not any(a == "--artifacts" or a.startswith("--artifacts=") for a in args):
        args += ["--artifacts", os.path.join(build, "traces")]
    proc = subprocess.Popen([binary] + args, cwd=root, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
