#!/usr/bin/env python3
"""minsgd-lint: project-invariant static analysis for the minsgd tree.

The correctness story of this repo (deterministic sync-SGD at any thread
count, channelized collective tags, single RNG discipline) rests on a small
set of invariants that PRs 1-4 established by convention. This tool enforces
them mechanically over src/ tests/ bench/ examples/. It is dependency-free
(stdlib only) and runs as a tier-1 ctest test.

Rules (ids in brackets; see DESIGN.md §11 for the catalog):

  [thread-spawn]          No std::thread / std::jthread / ThreadPool
                          construction outside src/tensor/context.*,
                          src/tensor/threadpool.*, src/comm/ (and their unit
                          tests). All other parallelism must flow through a
                          ComputeContext so thread budgets stay bounded and
                          chunking stays deterministic.
  [rng-source]            No rand()/srand()/std::random_device/std::mt19937/
                          time-seeded randomness outside src/tensor/rng.*.
                          Every random draw must come from the project Rng so
                          runs are replayable and checkpoints capture all
                          streams.
  [shared-accumulator]    Inside a parallel_for/for_chunks/for_chunks_n body,
                          compound-assignment to a variable captured from the
                          enclosing scope (an unsubscripted `x += ...`) is a
                          cross-chunk shared write. Reductions must compute
                          per-chunk partials and combine them in fixed chunk
                          order on the calling thread (context.hpp rule 2).
  [collective-tag]        The collective tag space (kCollectiveBase +
                          channel * kChannelStride) is minted only by
                          Communicator::next_collective_tag. References to
                          the tag-space constants, `<< 40` / `<< 36` tag
                          arithmetic, or 13+-digit literal tags outside
                          src/comm/communicator.* are collisions waiting to
                          happen.
  [using-namespace-header] `using namespace` in a header leaks into every
                          includer.
  [include-hygiene]       Headers carry #pragma once; no upward-relative
                          includes ("../"); C++ spellings (<cstdint>) over C
                          headers (<stdint.h>).
  [naked-assert]          src/ must use MINSGD_CHECK / MINSGD_DCHECK
                          (src/core/check.hpp), never assert(): assert is
                          silently compiled out of NDEBUG builds and prints
                          no invariant message. (static_assert is fine.)
  [cast]                  Every reinterpret_cast / const_cast in src/ needs a
                          written justification via the suppression comment.
  [flight-record]         src/ records flight-recorder events only through
                          the MINSGD_FLIGHT macro (src/obs/flight.hpp), never
                          by calling flight().record(...) / .record(FlightKind
                          ...) directly: the macro carries the enabled() gate,
                          so a direct call bypasses the off switch and pays
                          the record cost even when the recorder is disabled.
  [hot-path-alloc]        Inside a do_forward/do_backward body in src/nn,
                          constructing a Tensor or declaring a std::vector
                          allocates on the training hot path. Layer scratch
                          must come from the PlanContext (arena-backed
                          inside a Network, per-call for a standalone leaf
                          layer) so steady-state iterations perform zero
                          heap allocations.
  [bad-suppression]       A suppression that names an unknown rule or omits
                          the justification text.

Suppression: a finding on line N is suppressed by a comment on line N or
N-1 of the form

    // minsgd-lint: allow(<rule-id>): <justification — required, non-empty>

The justification is mandatory; an empty one is itself a finding.

Usage:
    minsgd_lint.py [paths...]        lint files/directories (default: src
                                     tests bench examples relative to the
                                     repo root, i.e. this file's ../..)
    minsgd_lint.py --list-rules      print the rule catalog
    minsgd_lint.py --self-test       run against tools/lint/fixtures/ and
                                     assert the exact expected rule fires
                                     for each fixture

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

CXX_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".inl")
HEADER_EXTS = (".hpp", ".h", ".hh")

RULES = {
    "thread-spawn": "raw thread/pool construction outside the context/comm layer",
    "rng-source": "non-project randomness source outside src/tensor/rng.*",
    "shared-accumulator": "unsubscripted compound-assign to a captured variable inside a parallel region",
    "collective-tag": "collective tag-space arithmetic outside Communicator",
    "using-namespace-header": "`using namespace` at header scope",
    "include-hygiene": "include hygiene (#pragma once, no \"../\" includes, C++ header spellings)",
    "naked-assert": "assert() in src/ instead of MINSGD_CHECK/MINSGD_DCHECK",
    "cast": "reinterpret_cast/const_cast in src/ without a written justification",
    "flight-record": "direct flight-recorder record() call instead of the MINSGD_FLIGHT macro",
    "hot-path-alloc": "Tensor/std::vector construction inside do_forward/do_backward in src/nn",
    "bad-suppression": "malformed minsgd-lint suppression comment",
}

# Paths (relative to repo root, '/'-separated prefixes) where a rule does not
# apply. The context/threadpool/comm sources implement the thread layer; their
# unit tests exercise it directly.
THREAD_ALLOWED = (
    "src/tensor/context.",
    "src/tensor/threadpool.",
    "src/comm/",
    "tests/test_threadpool.cpp",
    "tests/test_context.cpp",
)
RNG_ALLOWED = ("src/tensor/rng.",)
TAG_ALLOWED = ("src/comm/communicator.",)
FLIGHT_ALLOWED = ("src/obs/flight.",)

C_HEADER_TO_CXX = {
    "assert.h": "cassert",
    "ctype.h": "cctype",
    "limits.h": "climits",
    "math.h": "cmath",
    "stddef.h": "cstddef",
    "stdint.h": "cstdint",
    "stdio.h": "cstdio",
    "stdlib.h": "cstdlib",
    "string.h": "cstring",
    "time.h": "ctime",
}

SUPPRESS_RE = re.compile(r"minsgd-lint:\s*allow\(([a-zA-Z-]+)\)(?::\s*(\S.*))?")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure.

    A lexer-grade pass, not a parser: handles //, /* */, "..." with escapes,
    '...' with escapes. Raw strings are treated as plain strings, which is
    fine for the patterns we match.
    """
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def rel(path: str) -> str:
    r = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return r.replace(os.sep, "/")


class FileLint:
    def __init__(self, path: str, fixture_mode: bool = False):
        self.path = path
        self.relpath = rel(path)
        self.fixture_mode = fixture_mode
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.split("\n")
        self.code = strip_comments_and_strings(self.raw)
        self.code_lines = self.code.split("\n")
        self.findings: list[Finding] = []

    # -- helpers -----------------------------------------------------------

    def in_src(self) -> bool:
        return self.fixture_mode or self.relpath.startswith("src/")

    def allowed_path(self, prefixes) -> bool:
        if self.fixture_mode:
            return False
        return any(self.relpath.startswith(p) for p in prefixes)

    def is_header(self) -> bool:
        return self.path.endswith(HEADER_EXTS)

    def report(self, line: int, rule: str, message: str) -> None:
        self.findings.append(Finding(self.relpath, line, rule, message))

    # -- suppression -------------------------------------------------------

    def suppressions(self):
        """Map line -> (rule, justification) for every allow comment,
        validating the format. An allow on line N covers findings on N itself
        (trailing comment) and on the next line that contains code —
        justifications may span several comment lines between the allow()
        and the code it suppresses."""
        out = {}
        for idx, raw in enumerate(self.raw_lines, start=1):
            m = SUPPRESS_RE.search(raw)
            if not m:
                if "minsgd-lint" in raw and "allow" in raw:
                    self.report(idx, "bad-suppression",
                                "unrecognized minsgd-lint comment; expected "
                                "'// minsgd-lint: allow(<rule>): <justification>'")
                continue
            rule, just = m.group(1), (m.group(2) or "").strip()
            if rule not in RULES:
                self.report(idx, "bad-suppression",
                            f"allow() names unknown rule '{rule}'")
                continue
            if len(just) < 10:
                self.report(idx, "bad-suppression",
                            f"allow({rule}) requires a justification "
                            "(>= 10 chars) after a colon")
                continue
            out.setdefault(idx, []).append(rule)
            # Extend coverage to the next code-bearing line.
            j = idx + 1
            while j <= len(self.code_lines) and not self.code_lines[j - 1].strip():
                j += 1
            if j <= len(self.code_lines):
                out.setdefault(j, []).append(rule)
        return out

    # -- rules -------------------------------------------------------------

    def rule_thread_spawn(self):
        if self.allowed_path(THREAD_ALLOWED):
            return
        for idx, line in enumerate(self.code_lines, start=1):
            # std::thread::hardware_concurrency() is a query, not a spawn.
            if re.search(r"\bstd::j?thread\b(?!\s*::)", line):
                self.report(idx, "thread-spawn",
                            "std::thread outside src/tensor/context.*, "
                            "src/tensor/threadpool.*, src/comm/ — use a "
                            "ComputeContext")
            elif re.search(r"\bThreadPool\b", line):
                self.report(idx, "thread-spawn",
                            "direct ThreadPool use outside the context layer "
                            "— use a ComputeContext")

    def rule_rng_source(self):
        if self.allowed_path(RNG_ALLOWED):
            return
        pats = [
            (r"\bstd::random_device\b", "std::random_device"),
            (r"\bstd::mt19937(?:_64)?\b", "std::mt19937"),
            (r"\bstd::default_random_engine\b", "std::default_random_engine"),
            (r"\bstd::minstd_rand0?\b", "std::minstd_rand"),
            (r"(?<![\w:])s?rand\s*\(", "rand()/srand()"),
            (r"\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)", "time(nullptr) seeding"),
        ]
        for idx, line in enumerate(self.code_lines, start=1):
            for pat, what in pats:
                if re.search(pat, line):
                    self.report(idx, "rng-source",
                                f"{what} outside src/tensor/rng.* — draw from "
                                "the project Rng (seeded, checkpointable)")
                    break

    PARALLEL_CALL_RE = re.compile(r"\b(?:parallel_for|for_chunks(?:_n)?)\s*\(")
    DECL_RE = re.compile(
        r"\b(?:const\s+)?(?:unsigned\s+|signed\s+)?"
        r"(?:float|double|bool|char|auto|int|long|short|size_t|"
        r"std::[A-Za-z_][\w:<>, ]*?|u?int\d+_t)"
        r"(?:\s+const)?\s*[&*]?\s+([A-Za-z_]\w*)\s*[=;{(,[]")
    COMPOUND_RE = re.compile(r"(?<![\w\]\)])([A-Za-z_]\w*)\s*(\+=|-=|\*=|/=|\|=|&=|\^=|<<=|>>=)")
    INCR_RE = re.compile(r"(?:\+\+|--)\s*([A-Za-z_]\w*)|(?<![\w\]\)])([A-Za-z_]\w*)\s*(?:\+\+|--)")

    def rule_shared_accumulator(self):
        for m in self.PARALLEL_CALL_RE.finditer(self.code):
            body, body_off = self._lambda_body_after(m.end() - 1)
            if body is None:
                continue
            decls = set()
            for d in self.DECL_RE.finditer(body):
                decls.add(d.group(1))
                # Multi-declarator statements: double a = 0.0, b = 0.0;
                stmt_end = body.find(";", d.end())
                if stmt_end != -1:
                    for extra in re.finditer(r",\s*([A-Za-z_]\w*)\s*[=,;]",
                                             body[d.end() - 1:stmt_end + 1]):
                        decls.add(extra.group(1))
            for cm in self.COMPOUND_RE.finditer(body):
                name = cm.group(1)
                if name in decls:
                    continue
                self.report(line_of(self.code, body_off + cm.start()),
                            "shared-accumulator",
                            f"'{name} {cm.group(2)}' writes a captured "
                            "variable from inside a parallel region — use "
                            "per-chunk partials combined in fixed chunk order")
            for im in self.INCR_RE.finditer(body):
                name = im.group(1) or im.group(2)
                if name in decls:
                    continue
                # ++x[i] / x[i]++ writes a subscripted element, not x itself.
                if body[im.end():im.end() + 1] == "[":
                    continue
                self.report(line_of(self.code, body_off + im.start()),
                            "shared-accumulator",
                            f"'{name}++/--' mutates a captured variable from "
                            "inside a parallel region — use per-chunk "
                            "partials combined in fixed chunk order")

    def _lambda_body_after(self, open_paren: int):
        """Given the offset of the '(' of a parallel call, return (body text,
        offset) of the outermost lambda body inside the call, or (None, 0)."""
        depth = 0
        i = open_paren
        n = len(self.code)
        call_end = n
        while i < n:  # find matching ')' of the call
            c = self.code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    call_end = i
                    break
            i += 1
        seg = self.code[open_paren:call_end]
        lm = re.search(r"\[[^\]]*\]\s*(?:\([^)]*\))?\s*(?:mutable\s*)?\{", seg)
        if not lm:
            return None, 0
        body_start = open_paren + lm.end()  # just past '{'
        depth = 1
        i = body_start
        while i < n and depth > 0:
            c = self.code[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            i += 1
        return self.code[body_start:i - 1], body_start

    def rule_collective_tag(self):
        if self.allowed_path(TAG_ALLOWED):
            return
        pats = [
            (r"\bnext_collective_tag\b", "minting collective tags"),
            (r"\bkCollectiveBase\b", "referencing kCollectiveBase"),
            (r"\bkChannelStride\b", "referencing kChannelStride"),
            (r"<<\s*(?:40|36)\b", "tag-space shift arithmetic"),
            (r"\b\d{13,}\b", "13+-digit literal (collective tag range)"),
        ]
        for idx, line in enumerate(self.code_lines, start=1):
            for pat, what in pats:
                if re.search(pat, line):
                    self.report(idx, "collective-tag",
                                f"{what} outside src/comm/communicator.* — "
                                "collective tags are minted only by "
                                "Communicator::next_collective_tag")
                    break

    def rule_using_namespace_header(self):
        if not self.is_header():
            return
        for idx, line in enumerate(self.code_lines, start=1):
            if re.search(r"\busing\s+namespace\b", line):
                self.report(idx, "using-namespace-header",
                            "`using namespace` in a header leaks into every "
                            "translation unit that includes it")

    def rule_include_hygiene(self):
        if self.is_header() and "#pragma once" not in self.raw:
            self.report(1, "include-hygiene", "header is missing #pragma once")
        for idx, line in enumerate(self.raw_lines, start=1):
            m = re.match(r'\s*#\s*include\s+["<]([^">]+)[">]', line)
            if not m:
                continue
            inc = m.group(1)
            if inc.startswith("../"):
                self.report(idx, "include-hygiene",
                            "upward-relative include — include from the "
                            "src/ root (e.g. \"tensor/ops.hpp\")")
            elif inc in C_HEADER_TO_CXX:
                self.report(idx, "include-hygiene",
                            f"<{inc}> — use <{C_HEADER_TO_CXX[inc]}>")

    def rule_naked_assert(self):
        if not self.in_src():
            return
        for idx, line in enumerate(self.code_lines, start=1):
            if re.search(r"(?<!static_)(?<!_)\bassert\s*\(", line):
                self.report(idx, "naked-assert",
                            "assert() in src/ — use MINSGD_CHECK (always-on) "
                            "or MINSGD_DCHECK (debug) from core/check.hpp")
        for idx, line in enumerate(self.raw_lines, start=1):
            if re.search(r'#\s*include\s+<(cassert|assert\.h)>', line):
                self.report(idx, "naked-assert",
                            "including <cassert> in src/ — use "
                            "core/check.hpp instead")

    def rule_cast(self):
        if not self.in_src():
            return
        for idx, line in enumerate(self.code_lines, start=1):
            for kind in ("reinterpret_cast", "const_cast"):
                if re.search(rf"\b{kind}\b", line):
                    self.report(idx, "cast",
                                f"{kind} requires a justification: "
                                "'// minsgd-lint: allow(cast): <why this is "
                                "sound>' on this or the preceding line")

    def rule_flight_record(self):
        # src/-only, like naked-assert: tests/benches construct their own
        # FlightRecorder instances and call record() on them legitimately.
        if not self.in_src() or self.allowed_path(FLIGHT_ALLOWED):
            return
        pats = [
            # The singleton accessor chained straight into record().
            (r"\bflight\s*\(\s*\)\s*\.\s*record\s*\(",
             "flight().record(...)"),
            # Any record() call whose first argument is a FlightKind — the
            # recorder's signature — via a named reference to the singleton.
            (r"\.\s*record\s*\(\s*(?:::)?\s*(?:minsgd\s*::\s*)?(?:obs\s*::\s*)?"
             r"FlightKind\b",
             ".record(FlightKind...)"),
        ]
        for idx, line in enumerate(self.code_lines, start=1):
            for pat, what in pats:
                if re.search(pat, line):
                    self.report(idx, "flight-record",
                                f"{what} in src/ — record flight events "
                                "through MINSGD_FLIGHT (obs/flight.hpp), "
                                "which carries the enabled() gate")
                    break

    HOT_PATH_FN_RE = re.compile(r"\bdo_(?:forward|backward)\s*\(")
    # A named Tensor local or a Tensor temporary. References/pointers
    # (`const Tensor& x`, `const Tensor* in`) bind existing storage and are
    # fine; `std::vector<Tensor>` never matches `Tensor\s+ident`.
    TENSOR_ALLOC_RE = re.compile(r"\bTensor\s+[A-Za-z_]\w*|\bTensor\s*[({]")
    # A named std::vector local (declaration => construction). Greedy `.*>`
    # keeps `const std::vector<float>&` (reference, next char is '&') out.
    VECTOR_ALLOC_RE = re.compile(r"\bstd::vector\s*<.*>\s+[A-Za-z_]\w*")

    def rule_hot_path_alloc(self):
        if not self.fixture_mode and not self.relpath.startswith("src/nn/"):
            return
        for m in self.HOT_PATH_FN_RE.finditer(self.code):
            # Find the matching ')' of the parameter list, then require a
            # definition body ('{' with no ';' in between — declarations and
            # call sites are skipped).
            i = m.end() - 1
            depth = 0
            n = len(self.code)
            while i < n:
                if self.code[i] == "(":
                    depth += 1
                elif self.code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            brace = self.code.find("{", i)
            if brace == -1 or ";" in self.code[i:brace]:
                continue
            depth = 1
            k = brace + 1
            while k < n and depth:
                if self.code[k] == "{":
                    depth += 1
                elif self.code[k] == "}":
                    depth -= 1
                k += 1
            body = self.code[brace:k]
            for pat, what in ((self.TENSOR_ALLOC_RE, "Tensor construction"),
                              (self.VECTOR_ALLOC_RE,
                               "std::vector declaration")):
                for am in pat.finditer(body):
                    self.report(line_of(self.code, brace + am.start()),
                                "hot-path-alloc",
                                f"{what} inside do_forward/do_backward — "
                                "take scratch from the PlanContext "
                                "(pc.tensor / pc.floats) so steady-state "
                                "iterations allocate nothing")

    # -- driver ------------------------------------------------------------

    def run(self) -> list[Finding]:
        suppressions = self.suppressions()  # also emits bad-suppression
        self.rule_thread_spawn()
        self.rule_rng_source()
        self.rule_shared_accumulator()
        self.rule_collective_tag()
        self.rule_using_namespace_header()
        self.rule_include_hygiene()
        self.rule_naked_assert()
        self.rule_cast()
        self.rule_flight_record()
        self.rule_hot_path_alloc()

        kept = []
        for f in self.findings:
            if f.rule == "bad-suppression":
                kept.append(f)
                continue
            covering = suppressions.get(f.line, []) + suppressions.get(f.line - 1, [])
            if f.rule in covering:
                continue
            kept.append(f)
        return kept


def collect_files(paths) -> list[str]:
    out = []
    for p in paths:
        if not os.path.isabs(p):
            p = os.path.join(REPO_ROOT, p)
        if os.path.isfile(p):
            if p.endswith(CXX_EXTS):
                out.append(p)
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                for f in sorted(files):
                    if f.endswith(CXX_EXTS):
                        out.append(os.path.join(root, f))
        else:
            print(f"minsgd-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def lint_paths(paths, fixture_mode=False) -> list[Finding]:
    findings = []
    for path in collect_files(paths):
        findings.extend(FileLint(path, fixture_mode=fixture_mode).run())
    return findings


def self_test() -> int:
    """Every fixture file fixture_<rule>.<ext> must trigger exactly that rule.
    A rule may have scenario variants named fixture_<rule>-<scenario>.<ext>
    (e.g. fixture_shared-accumulator-kernel); the longest rule name that
    prefixes the stem wins, since rule ids themselves contain dashes.
    fixture_clean*.* (the shared clean file plus scenario-specific clean
    fixtures like fixture_clean-membership-spawn) must be finding-free even
    in fixture mode."""
    fixdir = os.path.join(REPO_ROOT, "tools", "lint", "fixtures")
    if not os.path.isdir(fixdir):
        print(f"minsgd-lint self-test: missing fixtures dir {fixdir}",
              file=sys.stderr)
        return 2
    failures = 0
    names = sorted(os.listdir(fixdir))
    if not names:
        print("minsgd-lint self-test: fixtures dir is empty", file=sys.stderr)
        return 2
    tested_rules = set()
    for name in names:
        path = os.path.join(fixdir, name)
        stem = os.path.splitext(name)[0]
        if not stem.startswith("fixture_"):
            continue
        expected = stem[len("fixture_"):]
        findings = lint_paths([path], fixture_mode=True)
        fired = {f.rule for f in findings}
        if expected.startswith("clean"):
            if findings:
                failures += 1
                print(f"FAIL {name}: expected no findings, got:")
                for f in findings:
                    print(f"  {f.render()}")
            else:
                print(f"ok   {name}: clean")
            continue
        if expected not in RULES:
            # fixture_<rule>-<scenario>: strip the scenario suffix by longest
            # matching rule prefix.
            prefixes = [r for r in RULES if expected.startswith(r + "-")]
            if prefixes:
                expected = max(prefixes, key=len)
        if expected not in RULES:
            failures += 1
            print(f"FAIL {name}: fixture names unknown rule '{expected}'")
            continue
        tested_rules.add(expected)
        if fired == {expected}:
            print(f"ok   {name}: fired [{expected}]")
        else:
            failures += 1
            print(f"FAIL {name}: expected exactly [{expected}], "
                  f"got {sorted(fired) or '[]'}")
            for f in findings:
                print(f"  {f.render()}")
    untested = set(RULES) - tested_rules
    if untested:
        failures += 1
        print(f"FAIL: rules with no fixture: {sorted(untested)}")
    if failures:
        print(f"minsgd-lint self-test: {failures} failure(s)")
        return 1
    print(f"minsgd-lint self-test: all {len(tested_rules)} rules covered")
    return 0


def main(argv) -> int:
    args = argv[1:]
    if "--list-rules" in args:
        for rule, desc in RULES.items():
            print(f"{rule:24} {desc}")
        return 0
    if "--self-test" in args:
        return self_test()
    paths = [a for a in args if not a.startswith("-")]
    if not paths:
        paths = ["src", "tests", "bench", "examples"]
    findings = lint_paths(paths)
    for f in findings:
        print(f.render())
    if findings:
        print(f"minsgd-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
