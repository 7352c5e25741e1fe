#!/usr/bin/env python3
"""Builds the benchmark and the server it drives, then runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nas_hot --seed 1 --seconds 20 --trace 0

Every argument is passed to the `perfbench` binary (see perfbench/README.md).
Both binaries are built in release mode into $CARGO_TARGET_DIR (default:
.bench_build at the checkout root), so `perfbench` finds `gdcm-serve` next to
itself. Build output goes to stderr; the last line on stdout is the run's JSON
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, cwd, env):
    """Runs one cargo build, its output sent to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", *args],
        cwd=cwd,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: `cargo build {' '.join(args)}` failed")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from a full checkout")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(["-p", "gdcm-serve", "--bin", "gdcm-serve"], ROOT, env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT, env)
    binary = os.path.join(target, "release", "perfbench")
    sys.exit(subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
