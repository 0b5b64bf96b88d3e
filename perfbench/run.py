#!/usr/bin/env python3
"""Build the perfbench binary and the senss-serve binary from source, then run perfbench.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Both builds go to CARGO_TARGET_DIR (default: .bench_build at the
repository root). Everything after the script name is passed to
perfbench; its exit code is passed back.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *extra]
    # Build output goes to stderr so perfbench's last stdout line stays
    # its result object.
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    os.environ["CARGO_TARGET_DIR"] = target
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ("-p", "senss-serve", "--bin", "senss-serve")),
        (os.path.join(HERE, "Cargo.toml"), ()),
    ):
        if not os.path.isfile(manifest):
            print(f"perfbench: {manifest} is missing; run from a full checkout", file=sys.stderr)
            return 1
        code = cargo_build(manifest, *extra)
        if code != 0:
            print(f"perfbench: build of {manifest} failed", file=sys.stderr)
            return code
    release = os.path.join(target, "release")
    perfbench = os.path.join(release, "perfbench")
    serve_bin = os.path.join(release, "senss-serve")
    return subprocess.run([perfbench, *sys.argv[1:], "--serve-bin", serve_bin]).returncode


if __name__ == "__main__":
    sys.exit(main())
