#!/usr/bin/env python3
"""Determinism lint: the house rules no off-the-shelf tool knows.

Every result this repo ships (figure goldens, adversary scorecards, sweep
byte-identity) rests on bit-exact, RNG-order-stable determinism. Three bug
classes can silently break that invariant, so they are machine-checked here:

  banned-random       std::rand / std::srand / std::random_device anywhere in
                      src/, bench/ or examples/ outside src/common/rng.cpp.
                      All randomness must flow through epiagg::Rng, whose
                      xoshiro256** streams fork deterministically from one
                      master seed.

  wall-clock          Reading real time (std::chrono::{steady,system,
                      high_resolution}_clock, ::time, gettimeofday,
                      clock_gettime) anywhere except inside the
                      benchutil::wall_timer helper in bench/bench_util.hpp.
                      Simulated time comes from cycle counters and the event
                      engine; wall time is a measurement concern that benches
                      reach through the one allowlisted symbol.

  unordered-iteration Range-for over std::unordered_map/std::unordered_set in
                      the determinism-critical directories (src/sim,
                      src/protocol, src/membership, src/adversary, src/graph).
                      Hash-container iteration order is
                      implementation-defined; feeding it into RNG draws or
                      float accumulation makes results depend on the standard
                      library. Sites that are PROVEN order-independent (pure
                      membership tests, commutative integer reductions) may be
                      annotated with `// epiagg-lint: order-independent` on
                      the offending line or the line above.

  raw-distribution    Direct use of <random> engines or distributions outside
                      src/common/rng.{hpp,cpp}. libstdc++ and libc++ disagree
                      on distribution algorithms, so std::normal_distribution
                      et al. are not reproducible across toolchains; Rng's
                      member helpers are.

Usage:
  scripts/lint_determinism.py [--root REPO_ROOT] [PATH...]

With no PATH arguments, scans src/, bench/ and examples/ under the root.
Exit status: 0 when clean, 1 when findings were reported, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterator, NamedTuple

# Directories scanned when no explicit paths are given (relative to --root).
DEFAULT_SCAN_DIRS = ("src", "bench", "examples")

CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx", ".hxx")

# Directories whose iteration order feeds RNG draws or float accumulation.
ORDER_CRITICAL_DIRS = (
    "src/sim",
    "src/protocol",
    "src/membership",
    "src/adversary",
    "src/graph",
)

# banned-random: allowed only here (the deterministic RNG implementation).
RANDOM_ALLOWED_FILES = ("src/common/rng.cpp",)

# raw-distribution: allowed only in the Rng implementation pair.
DISTRIBUTION_ALLOWED_FILES = ("src/common/rng.hpp", "src/common/rng.cpp")

# wall-clock: allowed only inside this class body in this file.
WALL_CLOCK_ALLOWED_FILE = "bench/bench_util.hpp"
WALL_CLOCK_ALLOWED_CLASS = "wall_timer"

ANNOTATION = "epiagg-lint: order-independent"

BANNED_RANDOM = re.compile(
    r"std::rand\s*\(|std::srand\s*\(|\brand\s*\(\s*\)|\bsrand\s*\(|"
    r"std::random_device|\brandom_device\b"
)

WALL_CLOCK = re.compile(
    r"std::chrono::(?:steady|system|high_resolution)_clock|"
    r"\b(?:steady|system|high_resolution)_clock::|"
    r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|std::clock\s*\(|"
    r"std::time\s*\(|\btime\s*\(\s*(?:nullptr|NULL)\s*\)"
)

RAW_DISTRIBUTION = re.compile(
    r"std::(?:uniform_int|uniform_real|normal|lognormal|bernoulli|binomial|"
    r"geometric|negative_binomial|exponential|poisson|gamma|weibull|"
    r"extreme_value|chi_squared|cauchy|fisher_f|student_t|discrete|"
    r"piecewise_constant|piecewise_linear)_distribution|"
    r"std::(?:mt19937|mt19937_64|minstd_rand|minstd_rand0|ranlux24|ranlux48|"
    r"knuth_b|default_random_engine)\b|"
    r"#\s*include\s*<random>"
)

UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>[&\s]+(\w+)\s*[;,({=)]"
)

RANGE_FOR = re.compile(r"\bfor\s*\(([^:;]+):([^)]+)\)")

LINE_COMMENT = re.compile(r"//.*$")
BLOCK_COMMENT_ONE_LINE = re.compile(r"/\*.*?\*/")


class Finding(NamedTuple):
    path: str  # repo-root-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str


def _strip_comments_and_strings(line: str, in_block_comment: bool) -> tuple[str, bool]:
    """Removes comment and string-literal text; returns (code, still_in_block)."""
    if in_block_comment:
        end = line.find("*/")
        if end < 0:
            return "", True
        line = line[end + 2 :]
    line = BLOCK_COMMENT_ONE_LINE.sub(" ", line)
    start = line.find("/*")
    if start >= 0:
        line = line[:start]
        return LINE_COMMENT.sub("", line), True
    line = LINE_COMMENT.sub("", line)
    # Blank out simple double-quoted string literals (no multi-line strings in
    # this codebase); keeps "steady_clock" inside a message from matching.
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line, False


def _base_identifier(expr: str) -> str:
    """`store.planes()` -> `store`, `targets` -> `targets`, `*p` -> `p`."""
    expr = expr.strip()
    m = re.match(r"[*&\s(]*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


def _scan_file(rel_path: str, text: str) -> Iterator[Finding]:
    order_critical = rel_path.startswith(tuple(d + "/" for d in ORDER_CRITICAL_DIRS))
    random_allowed = rel_path in RANDOM_ALLOWED_FILES
    distribution_allowed = rel_path in DISTRIBUTION_ALLOWED_FILES
    wall_clock_file = rel_path == WALL_CLOCK_ALLOWED_FILE

    raw_lines = text.splitlines()
    unordered_names: set[str] = set()

    # Track the brace extent of `class wall_timer` in the allowlisted file so
    # the allowlist is one named symbol, not the whole header.
    in_wall_timer = False
    wall_timer_depth = 0
    in_block = False
    annotated_next = False  # previous raw line carried the annotation

    for lineno, raw in enumerate(raw_lines, start=1):
        annotated_here = ANNOTATION in raw or annotated_next
        annotated_next = ANNOTATION in raw
        code, in_block = _strip_comments_and_strings(raw, in_block)
        if not code.strip():
            continue

        if wall_clock_file:
            if not in_wall_timer and re.search(
                r"\bclass\s+" + WALL_CLOCK_ALLOWED_CLASS + r"\b", code
            ):
                in_wall_timer = True
                wall_timer_depth = 0
            if in_wall_timer:
                wall_timer_depth += code.count("{") - code.count("}")

        wall_clock_allowed = wall_clock_file and in_wall_timer

        if in_wall_timer and wall_timer_depth <= 0 and "}" in code:
            in_wall_timer = False  # closed the class on this line

        if not random_allowed and (m := BANNED_RANDOM.search(code)):
            yield Finding(
                rel_path,
                lineno,
                "banned-random",
                f"`{m.group(0).strip()}` bypasses epiagg::Rng — all randomness "
                "must come from the seeded, forkable xoshiro256** streams "
                "(src/common/rng.hpp)",
            )

        if not wall_clock_allowed and (m := WALL_CLOCK.search(code)):
            yield Finding(
                rel_path,
                lineno,
                "wall-clock",
                f"`{m.group(0).strip()}` reads real time — simulation code uses "
                "simulated time only; benches measure wall time through "
                "benchutil::wall_timer (bench/bench_util.hpp)",
            )

        if not distribution_allowed and (m := RAW_DISTRIBUTION.search(code)):
            yield Finding(
                rel_path,
                lineno,
                "raw-distribution",
                f"`{m.group(0).strip()}` is not reproducible across standard "
                "libraries — use the epiagg::Rng member helpers instead",
            )

        if order_critical:
            for decl in UNORDERED_DECL.finditer(code):
                unordered_names.add(decl.group(1))
            for loop in RANGE_FOR.finditer(code):
                range_expr = loop.group(2)
                base = _base_identifier(range_expr)
                if base in unordered_names or "unordered" in range_expr:
                    if annotated_here:
                        continue
                    yield Finding(
                        rel_path,
                        lineno,
                        "unordered-iteration",
                        f"range-for over hash container `{range_expr.strip()}` — "
                        "iteration order is implementation-defined; iterate a "
                        "sorted copy, or annotate the line with "
                        f"`// {ANNOTATION}` if provably order-independent",
                    )


def _iter_target_files(root: str, paths: list[str]) -> Iterator[str]:
    """Yields absolute paths of C++ sources under the requested paths."""
    if not paths:
        paths = [os.path.join(root, d) for d in DEFAULT_SCAN_DIRS]
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def lint(root: str, paths: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for abs_path in _iter_target_files(root, paths):
        rel_path = os.path.relpath(abs_path, root).replace(os.sep, "/")
        try:
            with open(abs_path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
        except OSError as error:
            print(f"error: cannot read {abs_path}: {error}", file=sys.stderr)
            sys.exit(2)
        findings.extend(_scan_file(rel_path, text))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="epiagg determinism lint (see module docstring for rules)"
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the checkout containing this script)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to scan (default: {'/, '.join(DEFAULT_SCAN_DIRS)}/ "
        "under --root)",
    )
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"error: --root {root} is not a directory", file=sys.stderr)
        return 2

    findings = lint(root, [os.path.abspath(p) for p in args.paths])
    for finding in findings:
        print(f"{finding.path}:{finding.line}: [{finding.rule}] {finding.message}")
    if findings:
        print(
            f"\nlint_determinism: {len(findings)} finding(s). "
            "See docs/static_analysis.md for the rules and the annotation contract.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
