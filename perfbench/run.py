#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode, offline, into $CARGO_TARGET_DIR (default: .bench_build at the
repository root), then runs it from the repository root with the given
arguments. Build output goes to stderr. The binary's stdout is passed
through: its first line records the host, its last line is the result.
The exit code is the binary's, or non-zero if the build fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The binary bounds its own measuring time; this only stops a hung run.
RUN_TIMEOUT_S = 175


def source_digest():
    """Digest of every source file the benchmark builds from, so results
    can be matched to code even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(
                os.path.join(d, f) for d, _, names in os.walk(path) for f in names
            )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates/ are missing; nothing to build", file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_SOURCE"] = source_digest()
    binary = os.path.join(target, "release", "perfbench")
    child = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env)

    def stop(signum, _frame):
        # Never leave the benchmark running behind a stopped wrapper.
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
