"""checks: the project invariants the analyzer proves.

Each check is a function `check_<name>(world) -> list[Finding]` over the
shared World (index + call graph + discovery registries). The catalog:

  hot-path-alloc     any function *reachable* from do_forward/do_backward/
                     do_step that constructs a Tensor or std::vector is
                     flagged, with the full entrypoint -> offender call chain.
  tag-space          evaluates the collective tag constants and every
                     Communicator construction site's channel argument, then
                     proves rank-thread / async / membership channel sets are
                     disjoint and the field arithmetic cannot collide; outside
                     src/comm/communicator.* no line may mint or do arithmetic
                     in the collective tag space.
  det-reduction      flags FP accumulation that bypasses the fixed-chunk-order
                     combine contract (captured variables written from
                     parallel regions, descending/unordered combines) and
                     cross-checks the -ffp-contract=off CMake source property
                     against the kernel TUs actually on disk.
  env-gate           discovers every MINSGD_* runtime getenv / CMake build
                     gate and fails gates that are undocumented (README or
                     DESIGN.md) or, for runtime gates, untested (tests/ or
                     bench/ mention).
  thread-spawn, rng-source, using-namespace-header, naked-assert, cast,
  flight-record      single-line conventions (LINE_RULES): threads only from
                     the context/comm layer, randomness only from Rng, no
                     `using namespace` in headers, MINSGD_CHECK instead of
                     assert() in src/, justified casts, MINSGD_FLIGHT instead
                     of direct flight-recorder calls.
  include-hygiene    #pragma once in headers, no "../" includes, C++ spellings
                     of C headers.
  suppression-audit  inventories every `minsgd-analyze: allow(...)` site with
                     justification and git blame age, failing malformed ones
                     (unknown check, short justification, any other shape)
                     and those whose justification no longer names any
                     existing symbol.

Findings can be silenced at the site with
    // minsgd-analyze: allow(<check>): <justification>
on the flagged line or in the contiguous comment block directly above it;
the suppression itself is audited by suppression-audit.
"""

from __future__ import annotations

import glob as globmod
import os
import re
import subprocess
from dataclasses import dataclass, field

from callgraph import CallGraph
from cpp_model import TU, Index

# Every check/rule a Finding may carry. The self-test fails unless each one
# is expected by some firing fixture.
RULES = {
    "hot-path-alloc": ("transitive-alloc",),
    "tag-space": ("tag-arith", "channel-range", "channel-overlap",
                  "hand-minted-tag"),
    "det-reduction": ("fp-contract", "unordered-combine",
                      "parallel-shared-accum", "shared-accum-callee"),
    "env-gate": ("undocumented-gate", "untested-gate"),
    "thread-spawn": ("raw-thread",),
    "rng-source": ("foreign-rng",),
    "using-namespace-header": ("using-namespace",),
    "include-hygiene": ("missing-pragma-once", "upward-include", "c-header"),
    "naked-assert": ("assert",),
    "cast": ("unjustified-cast",),
    "flight-record": ("direct-record",),
    # Last: it resolves justifications against env-gate's registry.
    "suppression-audit": ("malformed-suppression", "stale-suppression"),
}
CHECKS = tuple(RULES)

ANALYZE_ALLOW_RE = re.compile(
    r"minsgd-analyze:\s*allow\(([a-zA-Z-]+)\)(?::\s*(\S.*))?")


@dataclass
class Finding:
    check: str
    rule: str
    file: str
    line: int
    message: str
    trace: list = field(default_factory=list)

    def __post_init__(self):
        assert self.rule in RULES[self.check], f"{self.check}/{self.rule}"

    @property
    def fid(self) -> str:
        return f"{self.check}/{self.rule}:{self.file}:{self.line}"

    def to_json(self):
        return {"check": self.check, "rule": self.rule, "id": self.fid,
                "file": self.file, "line": self.line,
                "message": self.message, "trace": self.trace}


@dataclass
class World:
    root: str
    index: Index
    graph: CallGraph
    gates: list = field(default_factory=list)         # filled by env-gate
    suppressions: list = field(default_factory=list)  # filled by audit


def is_allowed(tu, line: int, check: str) -> bool:
    """Is a `minsgd-analyze: allow(<check>)` on `line` or in the contiguous
    comment block directly above it? (The allow tag opens the block and its
    justification may continue on following comment lines.)"""
    return is_allowed_line(tu.raw_lines, line, check)


# ---------------------------------------------------------------------------
# 1. hot-path transitive allocation
# ---------------------------------------------------------------------------

HOT_ENTRY_NAMES = frozenset({"do_forward", "do_backward", "do_step"})
HOT_SCOPES = ("src/nn", "src/tensor", "src/optim")

TENSOR_ALLOC_RE = re.compile(r"\bTensor\s+[A-Za-z_]\w*|\bTensor\s*[({]")
TENSOR_HEAP_RE = re.compile(
    r"std::make_unique\s*<\s*Tensor\b|std::make_shared\s*<\s*Tensor\b|"
    r"\bnew\s+Tensor\b")
VECTOR_ALLOC_RE = re.compile(r"\bstd::vector\s*<.*>\s+[A-Za-z_]\w*")


def check_hot_path_alloc(world: World):
    idx, cg = world.index, world.graph
    entries = [fn for name in HOT_ENTRY_NAMES
               for fn in idx.by_name.get(name, [])
               if fn.tu.relpath.startswith("src/")]
    parent = cg.reachable_from(entries)
    findings = []
    for fn in parent:
        rel = fn.tu.relpath
        if not rel.startswith(HOT_SCOPES):
            continue
        for pat, what in ((TENSOR_ALLOC_RE, "Tensor"),
                          (TENSOR_HEAP_RE, "heap Tensor"),
                          (VECTOR_ALLOC_RE, "std::vector")):
            for m in pat.finditer(fn.body):
                line = fn.tu.line_of(fn.body_off + m.start())
                if is_allowed(fn.tu, line, "hot-path-alloc"):
                    continue
                chain = CallGraph.chain(parent, fn)
                findings.append(Finding(
                    "hot-path-alloc", "transitive-alloc", rel, line,
                    f"{fn.qual} constructs a {what} and is reachable from "
                    f"the planned hot path; use PlanContext scratch "
                    f"(pc.floats/pc.tensor) or pack_scratch instead",
                    trace=chain))
    return findings


# ---------------------------------------------------------------------------
# 2. collective tag-space analysis
# ---------------------------------------------------------------------------

TAG_CONSTANTS = ("kCollectiveBase", "kChannelStride", "kMaxChannels",
                 "kGenerationStride", "kMaxGenerations")


def _split_args(text: str):
    out, depth, cur = [], 0, []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def _balanced_args(code: str, open_paren: int):
    depth, i = 0, open_paren
    while i < len(code):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:i]
        i += 1
    return None


def _comm_sites(world: World):
    """(tu, line, channel, subsystem) for each Communicator construction
    site outside the class's own TU. The channel is the last argument when
    constant-derivable, else 0 (every ctor defaults channel to 0)."""
    pool = world.index.constants
    sites = []
    decl_re = re.compile(r"\b(?:comm::)?Communicator\s+\w+\s*(\()")
    mk_re = re.compile(
        r"make_unique\s*<\s*(?:comm::)?Communicator\s*>\s*(\()")
    for rel, tu in sorted(world.index.tus.items()):
        if not rel.startswith("src/"):
            continue
        base = os.path.basename(rel)
        if base.startswith("communicator."):
            continue
        # Local declarations and make_unique sites.
        hits = []
        for pat in (decl_re, mk_re):
            for m in pat.finditer(tu.code):
                hits.append(m.start(1))
        # Member init-list sites: members declared `Communicator name_;`.
        members = re.findall(r"\b(?:comm::)?Communicator\s+(\w+_)\s*;",
                             tu.code)
        for fn in tu.functions:
            if fn.cls != fn.name:
                continue  # only constructors carry init lists
            for mem in members:
                for m in re.finditer(r"\b" + mem + r"\s*(\()", fn.head):
                    args = _balanced_args(fn.head, m.start(1))
                    if args is None:
                        continue
                    sites.append(_classify_site(tu, fn.line, args, pool))
        for off in hits:
            args = _balanced_args(tu.code, off)
            if args is None:
                continue
            line = tu.line_of(off)
            sites.append(_classify_site(tu, line, args, pool))
    return [s for s in sites if s is not None]


def _classify_site(tu, line, args_text, pool):
    args = _split_args(args_text)
    if not args:
        return None
    channel = pool.eval_expr(args[-1])
    if channel is None:
        channel = 0  # non-constant trailing arg => defaulted channel
    rel = tu.relpath
    if "membership" in rel:
        subsystem = "membership"
    elif "async" in rel:
        subsystem = "async"
    else:
        subsystem = "rank-thread"
    return (tu, line, channel, subsystem)


def check_tag_space(world: World):
    findings = _line_findings(world, "tag-space")
    pool = world.index.constants
    vals = {name: pool.value(name) for name in TAG_CONSTANTS}
    if vals["kCollectiveBase"] is None or vals["kChannelStride"] is None:
        return findings  # no communicator in this tree (e.g. most fixtures)
    comm_tu = next((tu for rel, tu in sorted(world.index.tus.items())
                    if "kCollectiveBase" in tu.constants), None)
    comm_rel = comm_tu.relpath if comm_tu else "src/comm/communicator.hpp"
    base, stride = vals["kCollectiveBase"], vals["kChannelStride"]
    maxch = vals["kMaxChannels"]
    genstride = vals["kGenerationStride"]
    maxgen = vals["kMaxGenerations"]

    def arith(msg):
        findings.append(Finding("tag-space", "tag-arith", comm_rel, 1, msg))

    if base <= 0:
        arith(f"kCollectiveBase = {base} does not leave a positive p2p tag "
              f"range below the collective space")
    if maxch is not None and genstride is not None \
            and maxch * stride > genstride:
        arith(f"channel field overflows into the generation field: "
              f"kMaxChannels*kChannelStride = {maxch * stride} > "
              f"kGenerationStride = {genstride}")
    if None not in (maxch, genstride, maxgen) \
            and base + maxgen * genstride + maxch * stride >= 1 << 63:
        arith("tag space overflows int64: kCollectiveBase + "
              "kMaxGenerations*kGenerationStride + kMaxChannels*"
              "kChannelStride >= 2^63")

    by_channel: dict[int, list] = {}
    for tu, line, channel, subsystem in _comm_sites(world):
        if maxch is not None and not (0 <= channel < maxch):
            if not is_allowed(tu, line, "tag-space"):
                findings.append(Finding(
                    "tag-space", "channel-range", tu.relpath, line,
                    f"channel {channel} outside [0, kMaxChannels={maxch})"))
            continue
        by_channel.setdefault(channel, []).append((tu, line, subsystem))
    for channel, sites in sorted(by_channel.items()):
        subsystems = sorted({s for _, _, s in sites})
        if len(subsystems) <= 1:
            continue
        lo = base + channel * stride
        hi = lo + stride
        tu, line, _ = sites[0]
        if is_allowed(tu, line, "tag-space"):
            continue
        where = ", ".join(f"{t.relpath}:{ln} ({s})" for t, ln, s in sites)
        findings.append(Finding(
            "tag-space", "channel-overlap", tu.relpath, line,
            f"channel {channel} (tag interval [{lo}, {hi})) is claimed by "
            f"multiple subsystems: {where}; collective traffic on shared "
            f"channels can cross-match",
            trace=[where]))
    return findings


# ---------------------------------------------------------------------------
# 3. deterministic-reduction audit
# ---------------------------------------------------------------------------

DET_SCOPES = ("src/tensor", "src/nn", "src/optim")
FP_REF_PARAM_RE = re.compile(r"\b(float|double)\s*&\s*(\w+)\b")
DESC_COMBINE_RE = re.compile(
    r"for\s*\(\s*(?:int|long|auto|std::\w+|\w+_t)\s+(\w+)\s*=\s*[\w.]+\s*"
    r"-\s*1\s*;\s*\1\s*>=\s*0\s*;\s*--\s*\1\s*\)")
# A write to a bare name: any compound assignment, x++/x--, ++x/--x (a
# subscripted `++x[i]` writes an element, not x).
ACCUM_WRITE_RE = re.compile(
    r"(?<![\w\])])([A-Za-z_]\w*)\s*(?:(?:[-+*/%&|^]|<<|>>)=(?!=)|\+\+|--)"
    r"|(?:\+\+|--)\s*([A-Za-z_]\w*)\b(?!\s*\[)")
DECL_TYPE = (r"\b(?:float|double|bool|char|auto|int|long|short|unsigned|"
             r"signed|(?:std::)?size_t|(?:std::)?u?int\d+_t|"
             r"std::[A-Za-z_][\w:<>, ]*?)")


def _pinned_kernels(root: str):
    """Files covered by an -ffp-contract=off source property in the tensor
    CMakeLists, and the property's line for diagnostics."""
    cml = os.path.join(root, "src", "tensor", "CMakeLists.txt")
    pinned, prop_line = set(), 1
    if not os.path.isfile(cml):
        return None, pinned, prop_line
    with open(cml, "r", encoding="utf-8") as f:
        text = f.read()
    for m in re.finditer(r"set_source_files_properties\s*\(", text):
        args = _balanced_args(text, m.end() - 1)
        if args is None or "ffp-contract=off" not in args:
            continue
        prop_line = text.count("\n", 0, m.start()) + 1
        for tok in args.split():
            if tok.endswith(".cpp"):
                pinned.add(os.path.basename(tok))
    return cml, pinned, prop_line


def _shared_accum_findings(world: World):
    """Writes to a captured (not span-local) variable inside a parallel
    region, in every indexed tree."""
    findings = []
    for rel, tu in sorted(world.index.tus.items()):
        for fn in tu.functions:
            for start, end in world.graph.parallel_spans.get(fn, ()):
                span = fn.body[start:end]
                for am in ACCUM_WRITE_RE.finditer(span):
                    name = am.group(1) or am.group(2)
                    before = span[:am.start()]
                    if re.search(DECL_TYPE + r"[\s<>:\w]*[&*]?\s*\b" + name
                                 + r"\s*[=;({\[:,)]", before):
                        continue  # declared inside the span
                    if re.search(r",\s*" + name + r"\s*[=;]", before):
                        continue  # comma-continued declarator list
                    line = tu.line_of(fn.body_off + start + am.start())
                    if is_allowed(tu, line, "det-reduction"):
                        continue
                    findings.append(Finding(
                        "det-reduction", "parallel-shared-accum", rel, line,
                        f"{fn.qual} writes captured '{name}' from inside a "
                        f"parallel region; write per-chunk partial[c] and "
                        f"combine in ascending chunk order"))
    return findings


def check_det_reduction(world: World):
    idx, cg = world.index, world.graph
    findings = _shared_accum_findings(world)

    # fp-contract: every kernel TU on disk must carry the source property.
    kdir = os.path.join(world.root, "src", "tensor", "kernels")
    if os.path.isdir(kdir):
        cml, pinned, prop_line = _pinned_kernels(world.root)
        for path in sorted(globmod.glob(os.path.join(kdir, "*.cpp"))):
            fname = os.path.basename(path)
            if fname in pinned:
                continue
            rel = os.path.relpath(path, world.root).replace(os.sep, "/")
            tu = idx.tus.get(rel)
            if tu is not None and is_allowed(tu, 1, "det-reduction"):
                continue
            where = ("src/tensor/CMakeLists.txt" if cml else rel)
            findings.append(Finding(
                "det-reduction", "fp-contract", where,
                prop_line if cml else 1,
                f"kernel TU {rel} is not covered by the -ffp-contract=off "
                f"source property; contraction would break portable-vs-SIMD "
                f"bitwise identity"))

    # Per-function rules.
    fp_ref_accums = {}  # simple name -> FunctionDef with `ref_param +=`
    for rel, tu in sorted(idx.tus.items()):
        if not rel.startswith(DET_SCOPES):
            continue
        for fn in tu.functions:
            for _ty, pname in FP_REF_PARAM_RE.findall(fn.param_text()):
                if re.search(r"\b" + pname + r"\s*\+=", fn.body):
                    fp_ref_accums.setdefault(fn.name, fn)
            # Descending combine loops.
            for m in DESC_COMBINE_RE.finditer(fn.body):
                tail = fn.body[m.end():m.end() + 200]
                if re.search(r"\+=\s*[^;]*\[\s*" + m.group(1) + r"\s*\]",
                             tail):
                    line = tu.line_of(fn.body_off + m.start())
                    if is_allowed(tu, line, "det-reduction"):
                        continue
                    findings.append(Finding(
                        "det-reduction", "unordered-combine", rel, line,
                        f"{fn.qual} combines per-chunk partials in "
                        f"descending order; the contract is ascending "
                        f"chunk order on the calling thread"))
            # Range-for accumulation over unordered containers.
            for dm in re.finditer(r"std::unordered_(?:map|set)\s*<[^;]*?>\s*"
                                  r"&?\s*(\w+)", tu.code):
                cont = dm.group(1)
                for fm in re.finditer(
                        r"for\s*\(\s*[^;:]*:\s*" + cont + r"\s*\)", fn.body):
                    blk_start = fn.body.find("{", fm.end())
                    stmt_end = fn.body.find(";", fm.end())
                    if blk_start != -1 and (stmt_end == -1
                                            or blk_start < stmt_end):
                        depth, j = 0, blk_start
                        while j < len(fn.body):
                            if fn.body[j] == "{":
                                depth += 1
                            elif fn.body[j] == "}":
                                depth -= 1
                                if depth == 0:
                                    break
                            j += 1
                        blk = fn.body[blk_start:j]
                    else:
                        blk = fn.body[fm.end():stmt_end + 1]
                    if re.search(r"\+=", blk):
                        line = tu.line_of(fn.body_off + fm.start())
                        if is_allowed(tu, line, "det-reduction"):
                            continue
                        findings.append(Finding(
                            "det-reduction", "unordered-combine", rel, line,
                            f"{fn.qual} accumulates over unordered "
                            f"container '{cont}'; iteration order is "
                            f"unspecified — combine in a fixed order"))

    # Callees with FP-reference accumulator params invoked from parallel
    # regions anywhere in scope.
    for rel, tu in sorted(idx.tus.items()):
        if not rel.startswith(DET_SCOPES):
            continue
        for fn in tu.functions:
            for start, end in cg.parallel_spans.get(fn, ()):
                span = fn.body[start:end]
                for name, callee in sorted(fp_ref_accums.items()):
                    if callee is fn:
                        continue
                    if not re.search(r"\b" + name + r"\s*\(", span):
                        continue
                    if is_allowed(callee.tu, callee.line, "det-reduction"):
                        continue
                    findings.append(Finding(
                        "det-reduction", "shared-accum-callee",
                        callee.tu.relpath, callee.line,
                        f"{callee.qual} accumulates into a float&/double& "
                        f"parameter and is called from a parallel region in "
                        f"{fn.qual} ({rel}); route partials through the "
                        f"fixed-chunk-order combine instead",
                        trace=[f"{fn.qual} ({rel}:{fn.line})"]))
    return findings


# ---------------------------------------------------------------------------
# 4. env-gate registry
# ---------------------------------------------------------------------------

GATE_DESCRIPTIONS = {
    "MINSGD_THREADS": "intra-op worker threads (default: hardware conc.)",
    "MINSGD_KERNEL_ISA": "force kernel ISA: portable, avx2, avx512, neon",
    "MINSGD_FLIGHT": "cross-rank flight recorder on/off",
    "MINSGD_FLIGHT_CAPACITY": "flight recorder ring capacity [16, 2^20]",
    "MINSGD_SANITIZE": "sanitizer build: thread, address, undefined or "
                       "address,undefined",
    "MINSGD_DCHECK": "heavy debug-check assertions (MINSGD_DCHECK_ON)",
    "MINSGD_DCHECK_ON": "preprocessor define set by -DMINSGD_DCHECK=ON",
    "MINSGD_TIDY": "run clang-tidy during the build",
}

GETENV_RE = re.compile(r'getenv\s*\(\s*"(MINSGD_\w+)"')
MACRO_USE_RE = re.compile(
    r'^\s*#\s*(?:ifdef|ifndef|if|elif)\b.*?\b(MINSGD_[A-Z0-9_]+)',
    re.MULTILINE)
DEFINED_RE = re.compile(r"defined\s*\(?\s*(MINSGD_[A-Z0-9_]+)")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def _word_in(name, text):
    # The substring test skips most files before the (much slower) \b scan.
    return name in text and \
        re.search(r"\b" + re.escape(name) + r"\b", text) is not None


def discover_gates(world: World):
    """The env-gate registry: every MINSGD_* runtime/build gate with its
    read sites, documentation, and test coverage."""
    idx = world.index
    gates: dict[str, dict] = {}

    def add(name, kind, rel, line):
        g = gates.setdefault(name, {"name": name, "kind": kind, "sites": []})
        if kind == "build" and g["kind"] == "env":
            pass  # an env read wins: it is the stronger contract
        site = f"{rel}:{line}"
        if site not in g["sites"]:
            g["sites"].append(site)

    # Runtime: direct getenv reads, then helper-mediated reads.
    helpers = set()
    for fns in idx.by_name.values():
        for fn in fns:
            if re.search(r"\bgetenv\s*\(", fn.body) \
                    and "char" in fn.param_text():
                helpers.add(fn.name)
    for rel, tu in sorted(idx.tus.items()):
        if not rel.startswith("src/"):
            continue
        for m in GETENV_RE.finditer(tu.raw):
            add(m.group(1), "env", rel, tu.raw.count("\n", 0, m.start()) + 1)
        for h in sorted(helpers):
            for m in re.finditer(r"\b" + h + r'\s*\(\s*"(MINSGD_\w+)"',
                                 tu.raw):
                add(m.group(1), "env", rel,
                    tu.raw.count("\n", 0, m.start()) + 1)
    # Build: CMake options/cache vars, plus preprocessor gates whose macro is
    # injected by the build (not #define'd inside src/).
    cmake_files = [os.path.join(world.root, "CMakeLists.txt")]
    cmake_files += sorted(globmod.glob(
        os.path.join(world.root, "*", "CMakeLists.txt")))
    cmake_files += sorted(globmod.glob(
        os.path.join(world.root, "src", "*", "CMakeLists.txt")))
    cmake_defs = set()
    for path in cmake_files:
        text = _read(path)
        rel = os.path.relpath(path, world.root).replace(os.sep, "/")
        for m in re.finditer(r"\boption\s*\(\s*(MINSGD_\w+)", text):
            add(m.group(1), "build", rel,
                text.count("\n", 0, m.start()) + 1)
        for m in re.finditer(r"\bset\s*\(\s*(MINSGD_\w+)[^)]*\bCACHE\b",
                             text, re.DOTALL):
            add(m.group(1), "build", rel,
                text.count("\n", 0, m.start()) + 1)
        for m in re.finditer(
                r"compile_definitions\s*\([^)]*?\b(MINSGD_[A-Z0-9_]+)",
                text, re.DOTALL):
            cmake_defs.add(m.group(1))
    for rel, tu in sorted(idx.tus.items()):
        if not rel.startswith("src/"):
            continue
        for pat in (MACRO_USE_RE, DEFINED_RE):
            for m in pat.finditer(tu.directive_code):
                name = m.group(1)
                if name in cmake_defs or name not in idx.macros:
                    line = tu.directive_code.count("\n", 0, m.start()) + 1
                    add(name, "build", rel, line)

    # Documentation and test coverage.
    docs = {p: _read(os.path.join(world.root, p))
            for p in ("README.md", "DESIGN.md")}
    test_files = {}
    for sub in ("tests", "bench"):
        base = os.path.join(world.root, sub)
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(dirnames)
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".h", ".cmake", ".txt",
                               ".sh", ".py")):
                    path = os.path.join(dirpath, f)
                    rel = os.path.relpath(path, world.root)
                    test_files[rel.replace(os.sep, "/")] = _read(path)
    out = []
    for name in sorted(gates):
        g = gates[name]
        g["documented_in"] = sorted(p for p, text in docs.items()
                                    if _word_in(name, text))
        g["tested_in"] = sorted(
            rel for rel, text in test_files.items()
            if _word_in(name, text))[:3]
        g["description"] = GATE_DESCRIPTIONS.get(name, "")
        out.append(g)
    return out


def check_env_gate(world: World):
    world.gates = discover_gates(world)
    findings = []
    for g in world.gates:
        rel, _, line = g["sites"][0].partition(":")
        tu = world.index.tus.get(rel)
        line = int(line or 1)
        if tu is not None and is_allowed(tu, line, "env-gate"):
            continue
        if not g["documented_in"]:
            findings.append(Finding(
                "env-gate", "undocumented-gate", rel, line,
                f"{g['name']} ({g['kind']} gate) is not mentioned in "
                f"README.md or DESIGN.md"))
        if g["kind"] == "env" and not g["tested_in"]:
            findings.append(Finding(
                "env-gate", "untested-gate", rel, line,
                f"{g['name']} (runtime gate) has no test or bench "
                f"exercising it"))
    return findings


def gates_markdown(gates) -> str:
    """The README gate table, generated from the registry."""
    lines = [
        "| Gate | Kind | Read at | Purpose | Docs | Tests |",
        "|------|------|---------|---------|:----:|:-----:|",
    ]
    for g in gates:
        docs = "yes" if g["documented_in"] else "**no**"
        tests = ("yes" if g["tested_in"]
                 else ("n/a" if g["kind"] == "build" else "**no**"))
        lines.append(
            f"| `{g['name']}` | {g['kind']} | `{g['sites'][0]}` | "
            f"{g['description']} | {docs} | {tests} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# 5. single-line conventions and include hygiene
# ---------------------------------------------------------------------------

def _paths(*prefixes, exempt=()):
    return lambda tu: (tu.relpath.startswith(prefixes)
                       and not tu.relpath.startswith(exempt))


THREAD_LAYER = ("src/tensor/context.", "src/comm/", "tests/test_context.cpp")

# check -> (rule, which TUs it covers, message tail, [(pattern, what)]).
# Patterns run over the TU's code with comments and strings blanked and
# preprocessor lines kept (a macro body is code too); a match is reported
# on the line where it starts, once per line (run_checks keeps the first
# pattern's finding). A match that starts inside an identifier
# (`static_assert(`, `operand(`) is not one: every pattern reads as if it
# began with \b, which is left out so each can start with a literal (a
# leading \b makes `re` try the pattern at every offset, ~40x slower).
LINE_RULES = {
    "thread-spawn": (
        "raw-thread", _paths("", exempt=THREAD_LAYER),
        "outside src/tensor/context.* and src/comm/ — use a ComputeContext",
        # std::thread::hardware_concurrency() is a query, not a spawn.
        [(r"std::j?thread\b(?!\s*::)", "std::thread")]),
    "rng-source": (
        "foreign-rng", _paths("", exempt=("src/tensor/rng.",)),
        "outside src/tensor/rng.* — draw from the project Rng (seeded, "
        "checkpointable)",
        [(r"std::random_device\b", "std::random_device"),
         (r"std::mt19937(?:_64)?\b", "std::mt19937"),
         (r"std::default_random_engine\b", "std::default_random_engine"),
         (r"std::minstd_rand0?\b", "std::minstd_rand"),
         (r"rand\s*\(", "rand()"),
         (r"srand\s*\(", "srand()"),
         (r"time\s*\(\s*(?:nullptr|NULL|0)\s*\)", "time(nullptr) seeding")]),
    "tag-space": (
        "hand-minted-tag", _paths("", exempt=("src/comm/communicator.",)),
        "outside src/comm/communicator.* — collective tags are minted only "
        "by Communicator::next_collective_tag",
        [(r"next_collective_tag\b", "minting collective tags"),
         (r"kCollectiveBase\b", "referencing kCollectiveBase"),
         (r"kChannelStride\b", "referencing kChannelStride"),
         (r"<<\s*(?:40|36)\b", "tag-space shift arithmetic"),
         (r"\d{13,}\b", "13+-digit literal (collective tag range)")]),
    "using-namespace-header": (
        "using-namespace", TU.is_header,
        "in a header leaks into every translation unit that includes it",
        [(r"using\s+namespace\b", "`using namespace`")]),
    "naked-assert": (
        "assert", _paths("src/"),
        "in src/ — use MINSGD_CHECK (always on) or MINSGD_DCHECK (debug) "
        "from core/check.hpp",
        [(r"assert\s*\(", "assert()"),
         (r"#\s*include\s*<(?:cassert|assert\.h)>", "including <cassert>")]),
    "cast": (
        "unjustified-cast", _paths("src/"),
        "in src/ needs a justification: '// minsgd-analyze: allow(cast): "
        "<why this is sound>' on this line or the comment block above",
        [(r"reinterpret_cast\b", "reinterpret_cast"),
         (r"const_cast\b", "const_cast")]),
    "flight-record": (
        "direct-record", _paths("src/", exempt=("src/obs/flight.",)),
        "in src/ — record flight events through MINSGD_FLIGHT "
        "(obs/flight.hpp), which carries the enabled() gate",
        # The singleton accessor chained into record(), or any record()
        # whose first argument is a FlightKind (the recorder's signature).
        [(r"flight\s*\(\s*\)\s*\.\s*record\s*\(", "flight().record(...)"),
         (r"\.\s*record\s*\(\s*(?:::)?\s*(?:minsgd\s*::\s*)?"
          r"(?:obs\s*::\s*)?FlightKind\b", ".record(FlightKind...)")]),
}
LINE_RULES = {check: (rule, applies, tail,
                      [(re.compile(p), what) for p, what in pats])
              for check, (rule, applies, tail, pats) in LINE_RULES.items()}


_IDENT_CHAR = re.compile(r"\w")


def _line_findings(world: World, check: str):
    rule, applies, tail, pats = LINE_RULES[check]
    findings = []
    for rel, tu in sorted(world.index.tus.items()):
        if not applies(tu):
            continue
        code = tu.directive_code
        for pat, what in pats:
            for m in pat.finditer(code):
                at = m.start()
                if at and _IDENT_CHAR.match(code, at - 1) \
                        and _IDENT_CHAR.match(code, at):
                    continue
                line = code.count("\n", 0, at) + 1
                if not is_allowed(tu, line, check):
                    findings.append(Finding(check, rule, rel, line,
                                            f"{what} {tail}"))
    return findings


C_HEADER_TO_CXX = {
    "assert.h": "cassert", "ctype.h": "cctype", "limits.h": "climits",
    "math.h": "cmath", "stddef.h": "cstddef", "stdint.h": "cstdint",
    "stdio.h": "cstdio", "stdlib.h": "cstdlib", "string.h": "cstring",
    "time.h": "ctime",
}
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)


def check_include_hygiene(world: World):
    findings = []

    def report(tu, line, rule, msg):
        if not is_allowed(tu, line, "include-hygiene"):
            findings.append(Finding("include-hygiene", rule, tu.relpath,
                                    line, msg))

    for rel, tu in sorted(world.index.tus.items()):
        if tu.is_header() and not PRAGMA_ONCE_RE.search(tu.directive_code):
            report(tu, 1, "missing-pragma-once",
                   "header is missing #pragma once")
        for line, inc, _is_angle in tu.includes:
            if inc.startswith("../"):
                report(tu, line, "upward-include",
                       f'"{inc}" is an upward-relative include — include '
                       f'from the src/ root (e.g. "tensor/ops.hpp")')
            elif inc in C_HEADER_TO_CXX:
                report(tu, line, "c-header",
                       f"<{inc}> — use <{C_HEADER_TO_CXX[inc]}>")
    return findings


# ---------------------------------------------------------------------------
# 6. suppression audit
# ---------------------------------------------------------------------------

SYMBOLISH_RE = re.compile(r"[A-Za-z_][\w:]*|[\w./-]+\.(?:cpp|hpp|h|py|sh|md)")
# Anything that reads as an attempted suppression (any `minsgd-<word>` tag
# before `allow`), so a misspelt or retired tag cannot silently suppress
# nothing.
SUPPRESSION_TAG_RE = re.compile(r"minsgd-\w+:?\s*allow\b")


def _symbol_shaped(tok: str) -> bool:
    return ("::" in tok or "_" in tok or "/" in tok or "." in tok
            or re.search(r"[a-z][A-Z]", tok) is not None)


def _blame_age_days(root: str, rel: str, line: int):
    try:
        out = subprocess.run(
            ["git", "-C", root, "blame", "--porcelain",
             "-L", f"{line},{line}", "--", rel],
            capture_output=True, text=True, timeout=10)
        if out.returncode != 0:
            return None
        m = re.search(r"^committer-time (\d+)$", out.stdout, re.MULTILINE)
        if not m:
            return None
        import time
        return max(0, int((time.time() - int(m.group(1))) / 86400))
    except Exception:
        return None


def check_suppression_audit(world: World):
    idx = world.index
    gate_names = {g["name"] for g in world.gates}
    findings, inventory = [], []
    for rel, tu in sorted(idx.tus.items()):
        lines = tu.raw_lines
        for i, raw in enumerate(lines):
            if not SUPPRESSION_TAG_RE.search(raw):
                continue
            line_no = i + 1
            suppressed = is_allowed_line(lines, line_no, "suppression-audit")

            def report(rule, msg):
                if not suppressed:
                    findings.append(Finding("suppression-audit", rule, rel,
                                            line_no, msg))

            m = ANALYZE_ALLOW_RE.search(raw)
            if m is None:
                report("malformed-suppression",
                       "unrecognized suppression; expected "
                       "'// minsgd-analyze: allow(<check>): <justification>'")
                continue
            check, just = m.group(1), (m.group(2) or "")
            if check not in CHECKS:
                report("malformed-suppression",
                       f"allow() names unknown check '{check}'")
                continue
            # Continuation comment lines extend the justification.
            j = i + 1
            while j < len(lines) and re.match(r"\s*//(?!\s*minsgd-)",
                                              lines[j]):
                just += " " + lines[j].strip().lstrip("/").strip()
                j += 1
            if len(just.strip()) < 10:
                report("malformed-suppression",
                       f"allow({check}) needs a justification of at least "
                       f"10 characters")
                continue
            toks = [t for t in SYMBOLISH_RE.findall(just)
                    if _symbol_shaped(t)]
            resolved = sorted({t for t in toks
                               if idx.symbol_exists(t) or t in gate_names})
            inventory.append({
                "file": rel, "line": line_no, "check": check,
                "justification": just.strip(),
                "age_days": _blame_age_days(world.root, rel, line_no),
                "names": resolved})
            if not resolved:
                report("stale-suppression",
                       f"allow({check}) justification names no existing "
                       f"symbol, gate, or file — re-justify with the "
                       f"concrete symbol that makes it safe, or remove it")
    world.suppressions = inventory
    return findings


def is_allowed_line(lines, line: int, check: str) -> bool:
    """True if the flagged line, or the contiguous `//` comment block ending
    directly above it, carries `minsgd-analyze: allow(<check>)`. Multi-line
    justifications open with the tag and continue on following comment lines."""
    if 1 <= line <= len(lines):
        m = ANALYZE_ALLOW_RE.search(lines[line - 1])
        if m and m.group(1) == check:
            return True
    ln = line - 1
    while 1 <= ln <= len(lines):
        text = lines[ln - 1].strip()
        if not text.startswith("//"):
            break
        m = ANALYZE_ALLOW_RE.search(text)
        if m:
            return m.group(1) == check
        ln -= 1
    return False


CHECK_FNS = {
    "hot-path-alloc": check_hot_path_alloc,
    "tag-space": check_tag_space,
    "det-reduction": check_det_reduction,
    "env-gate": check_env_gate,
    "include-hygiene": check_include_hygiene,
    "suppression-audit": check_suppression_audit,
}


def run_checks(world: World, only=None):
    """Findings of the selected checks, one per (check, rule, file, line)."""
    findings = {}
    for name in CHECKS:
        if only and name not in only:
            continue
        fn = CHECK_FNS.get(name) or (lambda w, c=name: _line_findings(w, c))
        for f in fn(world):
            findings.setdefault((f.check, f.rule, f.file, f.line), f)
    return list(findings.values())
