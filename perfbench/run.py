#!/usr/bin/env python3
"""Builds and runs the MILO benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ctrl10k --seed 7 --seconds 10 --trace 0

The Rust package in perfbench/ is built in release mode (offline, into
$CARGO_TARGET_DIR, default .bench_build), then its binary runs with the
same arguments. The binary prints host facts, progress on stderr, and as
the last line of stdout a JSON object with "correct", "attempted",
"failed" and "metrics". Chrome traces of traced runs go to
$CARGO_TARGET_DIR/perfbench/.

    python3 perfbench/run.py --self-test

builds the package and runs its tests: the output-check negative test
and a tiny-size smoke run of every workload, traced and untraced.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench/src"]


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env.setdefault("PERFBENCH_OUT", os.path.join(target, "perfbench"))
    cargo = ["cargo"]
    if sys.argv[1:] == ["--self-test"]:
        return subprocess.run(
            cargo + ["test", "--release", "--offline", "--manifest-path", MANIFEST],
            env=env, stdout=sys.stderr,
        ).returncode
    build = subprocess.run(
        cargo + ["build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = source_revision()
    exe = os.path.join(target, "release", "milo-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
