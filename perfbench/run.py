#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <serve_churn|lcf_solve> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Both builds of the benchmark crate (the
untraced one for end-to-end numbers and the traced one with the
program's probes armed) are brought up to date on every call, so the
first call in a checkout pays for both and later calls only check them.
Builds go to $CARGO_TARGET_DIR (default .bench_build); results and span
files to perfbench-out/ under it. The last line of standard output is
the result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = (("untraced", []), ("traced", ["--features", "traced"]))


def commit():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_churn", "lcf_solve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    for variant, features in VARIANTS:
        build = ["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", manifest,
                 "--target-dir", os.path.join(target, variant)] + features
        # Cargo's own output goes to stderr; stdout carries only results.
        rc = subprocess.call(build, stdout=sys.stderr)
        if rc != 0:
            sys.exit(f"building the {variant} benchmark failed ({rc})")

    variant = "traced" if args.trace else "untraced"
    exe = os.path.join(target, variant, "release", "perfbench")
    sys.stdout.flush()
    rc = subprocess.call([
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench-out"),
        "--commit", commit(),
    ])
    sys.exit(rc)


if __name__ == "__main__":
    main()
