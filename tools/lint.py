#!/usr/bin/env python3
"""Repo-invariant linter for lcpower.

Fast, dependency-free checks for invariants the compiler cannot see but the
codebase depends on. Run from anywhere; exits non-zero with one
`path:line: [rule] message` diagnostic per violation. CI runs this as part
of the static-analysis leg; tools/run_tidy.sh runs the clang-tidy half.

Rules
-----
naked-concurrency
    No `std::mutex` / `std::shared_mutex` / `std::condition_variable` /
    `std::thread` (or their lock RAII types) outside `src/support/`.
    Everything else must use the annotated wrappers from
    `support/thread_annotations.hpp` (Mutex, SharedMutex, CondVar,
    MutexLock, ReaderLock, WriterLock) and run parallel work on
    `ThreadPool` from `support/thread_pool.hpp`, so Clang's
    -Wthread-safety analysis covers every lock in the tree. Naked
    primitives are invisible to the analysis.

no-analysis-suppression
    `LCP_NO_THREAD_SAFETY_ANALYSIS` (or the raw attribute) may appear only
    in `src/support/thread_annotations.hpp`. The acceptance bar for the
    analysis is zero suppressions outside the wrapper header itself.

seeded-rng
    No `rand()` / `srand()` / `std::random_device` anywhere in first-party
    code except `src/support/rng.*`. Every experiment in this repo is
    seed-reproducible by contract (equal seeds => equal traces, benches
    diff their own reruns); one ambient-entropy call silently breaks that.

test-registration
    Every file under `tests/` that defines a gtest TEST/TEST_F/TYPED_TEST
    must be listed in `tests/CMakeLists.txt`. An unregistered test file
    compiles nowhere and silently stops running — the worst kind of green.

bench-gates
    Every `bench/extension_*.cpp` and `bench/micro_hotpaths.cpp` must keep
    a non-zero exit path (`return 1`, `? 0 : 1`, or EXIT_FAILURE): the
    bench smoke tests assert on exit codes, so a bench that can no longer
    fail is a gate that can no longer gate.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# ---------------------------------------------------------------- helpers


def cxx_files(root: pathlib.Path, rel: str) -> list[pathlib.Path]:
    base = root / rel
    if not base.is_dir():
        return []
    return sorted(
        p for p in base.rglob("*") if p.suffix in CXX_SUFFIXES and p.is_file()
    )


def strip_comments(line: str) -> str:
    """Drops // comments so prose about std::mutex does not trip the rules.

    Block comments are handled line-by-line well enough for this codebase
    (no code shares a line with the inside of a /* */ block).
    """
    return re.sub(r"//.*$", "", line)


class Finding:
    def __init__(self, path: pathlib.Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


# ------------------------------------------------------------------ rules

NAKED_CONCURRENCY = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|condition_variable(_any)?|thread|jthread|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)


def check_naked_concurrency(root: pathlib.Path) -> list[Finding]:
    findings = []
    for path in cxx_files(root, "src"):
        if "support" in path.relative_to(root / "src").parts[:1]:
            continue  # the wrappers themselves live here
        for lineno, line in enumerate(
            path.read_text(errors="replace").splitlines(), 1
        ):
            m = NAKED_CONCURRENCY.search(strip_comments(line))
            if m:
                findings.append(
                    Finding(
                        path.relative_to(root), lineno, "naked-concurrency",
                        f"{m.group(0)} outside src/support/; use the "
                        "annotated wrappers from "
                        "support/thread_annotations.hpp "
                        "(or ThreadPool from support/thread_pool.hpp)",
                    )
                )
    return findings


SUPPRESSION = re.compile(
    r"LCP_NO_THREAD_SAFETY_ANALYSIS|no_thread_safety_analysis"
)


def check_no_suppression(root: pathlib.Path) -> list[Finding]:
    findings = []
    allowed = root / "src" / "support" / "thread_annotations.hpp"
    for rel in ("src", "tests", "bench", "examples"):
        for path in cxx_files(root, rel):
            if path == allowed:
                continue
            for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), 1
            ):
                if SUPPRESSION.search(strip_comments(line)):
                    findings.append(
                        Finding(
                            path.relative_to(root), lineno,
                            "no-analysis-suppression",
                            "thread-safety analysis may only be suppressed "
                            "inside support/thread_annotations.hpp",
                        )
                    )
    return findings


UNSEEDED_RNG = re.compile(r"\b(?:std::)?s?rand\s*\(|std::random_device")


def check_seeded_rng(root: pathlib.Path) -> list[Finding]:
    findings = []
    for rel in ("src", "tests", "bench", "examples"):
        for path in cxx_files(root, rel):
            if path.parent == root / "src" / "support" and (
                path.stem == "rng"
            ):
                continue  # the one sanctioned RNG implementation
            for lineno, line in enumerate(
                path.read_text(errors="replace").splitlines(), 1
            ):
                m = UNSEEDED_RNG.search(strip_comments(line))
                if m:
                    findings.append(
                        Finding(
                            path.relative_to(root), lineno, "seeded-rng",
                            f"ambient-entropy RNG ({m.group(0).strip()}) "
                            "breaks seed reproducibility; use "
                            "support/rng.hpp with an explicit seed",
                        )
                    )
    return findings


GTEST_MACRO = re.compile(r"^\s*(TEST|TEST_F|TYPED_TEST|TEST_P)\s*\(")


def check_test_registration(root: pathlib.Path) -> list[Finding]:
    findings = []
    cmake = root / "tests" / "CMakeLists.txt"
    if not cmake.is_file():
        return findings
    registered = cmake.read_text(errors="replace")
    for path in cxx_files(root, "tests"):
        if not any(
            GTEST_MACRO.match(line)
            for line in path.read_text(errors="replace").splitlines()
        ):
            continue
        rel = path.relative_to(root / "tests").as_posix()
        if rel not in registered:
            findings.append(
                Finding(
                    path.relative_to(root), 1, "test-registration",
                    f"defines TEST()s but is not listed in "
                    f"tests/CMakeLists.txt — it never runs",
                )
            )
    return findings


EXIT_GATE = re.compile(r"return\s+1\b|\?\s*0\s*:\s*1|EXIT_FAILURE")


def check_bench_gates(root: pathlib.Path) -> list[Finding]:
    findings = []
    bench = root / "bench"
    if not bench.is_dir():
        return findings
    gated = sorted(bench.glob("extension_*.cpp"))
    hotpaths = bench / "micro_hotpaths.cpp"
    if hotpaths.is_file():
        gated.append(hotpaths)
    for path in gated:
        text = path.read_text(errors="replace")
        if not EXIT_GATE.search(text):
            findings.append(
                Finding(
                    path.relative_to(root), 1, "bench-gates",
                    "gated bench lost its non-zero exit path; the smoke "
                    "test can no longer catch a regression",
                )
            )
    return findings


RULES = {
    "naked-concurrency": check_naked_concurrency,
    "no-analysis-suppression": check_no_suppression,
    "seeded-rng": check_seeded_rng,
    "test-registration": check_test_registration,
    "bench-gates": check_bench_gates,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repo root to lint (default: this script's repo)",
    )
    parser.add_argument(
        "--rule", action="append", choices=sorted(RULES),
        help="run only the named rule(s); default: all",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule names and exit"
    )
    args = parser.parse_args()

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    root = args.root.resolve()
    if not root.is_dir():
        print(f"lint.py: not a directory: {root}", file=sys.stderr)
        return 2

    selected = args.rule or sorted(RULES)
    findings: list[Finding] = []
    for name in selected:
        findings.extend(RULES[name](root))

    for f in findings:
        print(f)
    if findings:
        print(
            f"lint.py: {len(findings)} violation(s) across "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint.py: clean ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
