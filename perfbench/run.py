#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload dst-sweep|paper-world|serve-overload \
        --seed N --seconds S --trace 0|1 [size options]

Run from the root of a checkout. The benchmark package (perfbench/) is
built in release mode, offline, into $CARGO_TARGET_DIR (default
.bench_build), and then runs in its own process with every argument passed
through. The last line of its standard output is the JSON result; build
output goes to standard error. Traced runs also write their spans to
$CARGO_TARGET_DIR/perfbench-spans-<workload>.jsonl unless --spans-out is
given. The exit code is the build's when the build fails, else the run's.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BINARY = "concilium-perfbench"


def flag(args, name):
    """The value after `name` in `args`, or None."""
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print(f"run.py: benchmark build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1

    args = list(argv)
    workload = flag(args, "--workload")
    if flag(args, "--trace") == "1" and workload and "--spans-out" not in args:
        args += ["--spans-out", str(target / f"perfbench-spans-{workload}.jsonl")]
    sys.stdout.flush()
    return subprocess.run([str(target / "release" / BINARY), *args], check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
