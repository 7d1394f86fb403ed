#!/usr/bin/env python3
"""Build and run the checkpoint round-trip benchmark.

    python3 ckptbench/run.py --workload ckpt_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
lcpower libraries and the driver (Release) under $CARGO_TARGET_DIR, or
.bench_build when unset; later runs rebuild incrementally. The driver's
stdout is passed through: a stamp line, then the JSON result as the last
line. Build output goes to stderr. Exits non-zero, printing no result, when
the build or any run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "ckptbench"


def build(out: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "ckpt_bench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "ckpt_bench"


def source_id() -> str:
    """Git commit when the tree is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--fail-op", type=int,
                        help="sabotage the restore check of this operation")
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"ckptbench: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.fail_op is not None:
        cmd += ["--fail-op", str(args.fail_op)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True, check=False)
    except subprocess.TimeoutExpired:
        print("ckptbench: run timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"ckptbench: driver exited with {done.returncode}", file=sys.stderr)
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
