#!/usr/bin/env python3
"""Build the asyncgt benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root), then
run with the given arguments from the repository root. The last line of
standard output is the result object; build output goes to standard error.
The exit code is the benchmark's own: nonzero if any output was wrong.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def source_sha256():
    """Digest of the sources the benchmark builds: identifies the code
    under test where no git metadata is available."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        print(
            "perfbench: the repository's Cargo workspace (Cargo.toml, crates/) "
            f"is missing under {ROOT}",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    run = subprocess.run(
        [str(target / "release" / "perfbench"), *sys.argv[1:]],
        cwd=ROOT,
        env=env,
        check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
