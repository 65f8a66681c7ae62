"""checks: the five whole-program invariants the analyzer proves.

Each check is a function `check_<name>(world) -> list[Finding]` over the
shared World (index + call graph + discovery registries). The catalog:

  hot-path-alloc     interprocedural extension of the linter's rule: any
                     function *reachable* from do_forward/do_backward/do_step
                     that constructs a Tensor or std::vector is flagged, with
                     the full entrypoint -> offender call chain.
  tag-space          evaluates the collective tag constants and every
                     Communicator construction site's channel argument, then
                     proves rank-thread / async / membership channel sets are
                     disjoint and the field arithmetic cannot collide.
  det-reduction      flags FP accumulation that bypasses the fixed-chunk-order
                     combine contract (shared accumulators written from
                     parallel regions, descending/unordered combines) and
                     cross-checks the -ffp-contract=off CMake source property
                     against the kernel TUs actually on disk.
  env-gate           discovers every MINSGD_* runtime getenv / CMake build
                     gate and fails gates that are undocumented (README or
                     DESIGN.md) or, for runtime gates, untested (tests/ or
                     bench/ mention).
  suppression-audit  inventories every `minsgd-lint: allow(...)` and
                     `minsgd-analyze: allow(...)` site with justification and
                     git blame age, failing suppressions whose justification
                     no longer names any existing symbol.

Findings can be silenced at the site with
    // minsgd-analyze: allow(<check>): <justification>
on the flagged line or the line above — the same shape the linter uses, and
itself audited by suppression-audit.
"""

from __future__ import annotations

import glob as globmod
import os
import re
import subprocess
from dataclasses import dataclass, field

from callgraph import CallGraph
from cpp_model import Index

CHECKS = ("hot-path-alloc", "tag-space", "det-reduction", "env-gate",
          "suppression-audit")

ANALYZE_ALLOW_RE = re.compile(
    r"minsgd-analyze:\s*allow\(([a-zA-Z-]+)\)(?::\s*(\S.*))?")
ANY_ALLOW_RE = re.compile(
    r"minsgd-(lint|analyze):\s*allow\(([a-zA-Z-]+)\)(?::\s*(.*))?")


@dataclass
class Finding:
    check: str
    rule: str
    file: str
    line: int
    message: str
    trace: list = field(default_factory=list)

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
    pool = world.index.constants
    vals = {name: pool.value(name) for name in TAG_CONSTANTS}
    if vals["kCollectiveBase"] is None or vals["kChannelStride"] is None:
        return []  # no communicator in this tree (e.g. most fixtures)
    findings = []
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
DECL_WORDS = (r"(?:float|double|auto|int|unsigned|long|bool|std::size_t|"
              r"size_t|std::int64_t|int64_t|std::uint64_t)")


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


def check_det_reduction(world: World):
    idx, cg = world.index, world.graph
    findings = []

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
            # Direct `x +=` on a captured (not span-local) variable inside a
            # parallel region.
            for start, end in cg.parallel_spans.get(fn, ()):
                span = fn.body[start:end]
                for am in re.finditer(r"(?<![\w.\]>])([A-Za-z_]\w*)\s*\+=",
                                      span):
                    name = am.group(1)
                    before = span[:am.start()]
                    if re.search(DECL_WORDS + r"[\s<>:\w]*[&*]?\s*\b" + name
                                 + r"\s*[=;({]", before):
                        continue  # declared inside the span
                    if re.search(r",\s*" + name + r"\s*=", before):
                        continue  # comma-continued declarator list
                    line = tu.line_of(fn.body_off + start + am.start(1))
                    if is_allowed(tu, line, "det-reduction"):
                        continue
                    findings.append(Finding(
                        "det-reduction", "parallel-shared-accum", rel, line,
                        f"{fn.qual} accumulates into captured '{name}' from "
                        f"inside a parallel region; write per-chunk "
                        f"partial[c] and combine in ascending chunk order"))

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
    "MINSGD_SANITIZE": "build preset: asan-ubsan or tsan",
    "MINSGD_DCHECK": "heavy debug-check assertions (MINSGD_DCHECK_ON)",
    "MINSGD_DCHECK_ON": "preprocessor define set by -DMINSGD_DCHECK=ON",
    "MINSGD_TIDY": "run clang-tidy during the build",
    "MINSGD_TRACE_OFF": "compile out trace spans entirely",
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
    return re.search(r"\b" + re.escape(name) + r"\b", text) is not None


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
    test_files = []
    for sub in ("tests", "bench"):
        base = os.path.join(world.root, sub)
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(dirnames)
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".h", ".cmake", ".txt",
                               ".sh", ".py")):
                    test_files.append(os.path.join(dirpath, f))
    out = []
    for name in sorted(gates):
        g = gates[name]
        g["documented_in"] = sorted(p for p, text in docs.items()
                                    if _word_in(name, text))
        g["tested_in"] = sorted(
            os.path.relpath(p, world.root).replace(os.sep, "/")
            for p in test_files if _word_in(name, _read(p)))[:3]
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
# 5. suppression audit
# ---------------------------------------------------------------------------

SYMBOLISH_RE = re.compile(r"[A-Za-z_][\w:]*|[\w./-]+\.(?:cpp|hpp|h|py|sh|md)")
AUDIT_SCOPES = ("src", "tests", "bench", "examples")


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
    gate_names = {g["name"] for g in world.gates} if world.gates else set()
    findings, inventory = [], []
    files = []
    for scope in AUDIT_SCOPES:
        base = os.path.join(world.root, scope)
        for dirpath, dirnames, names in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "fixtures"
                                 and not d.startswith("."))
            for f in sorted(names):
                if f.endswith((".cpp", ".hpp", ".h", ".hh", ".inl")):
                    files.append(os.path.join(dirpath, f))
    for path in files:
        rel = os.path.relpath(path, world.root).replace(os.sep, "/")
        lines = _read(path).split("\n")
        for i, raw in enumerate(lines):
            m = ANY_ALLOW_RE.search(raw)
            if m is None:
                continue
            tool, rule, just = m.group(1), m.group(2), (m.group(3) or "")
            # Continuation comment lines extend the justification.
            j = i + 1
            while j < len(lines) and re.match(r"\s*//(?!\s*minsgd-)",
                                              lines[j]):
                just += " " + lines[j].strip().lstrip("/").strip()
                j += 1
            line_no = i + 1
            toks = [t for t in SYMBOLISH_RE.findall(just)
                    if _symbol_shaped(t)]
            resolved = sorted({t for t in toks
                               if idx.symbol_exists(t) or t in gate_names})
            entry = {"file": rel, "line": line_no, "tool": tool,
                     "rule": rule, "justification": just.strip(),
                     "age_days": _blame_age_days(world.root, rel, line_no),
                     "names": resolved}
            inventory.append(entry)
            suppressed = is_allowed_line(lines, line_no, "suppression-audit")
            if tool == "analyze" and len(just.strip()) < 10:
                if not suppressed:
                    findings.append(Finding(
                        "suppression-audit", "malformed-suppression", rel,
                        line_no,
                        f"allow({rule}) needs a justification of at least "
                        f"10 characters"))
                continue
            if not resolved and not suppressed:
                findings.append(Finding(
                    "suppression-audit", "stale-suppression", rel, line_no,
                    f"minsgd-{tool}: allow({rule}) justification names no "
                    f"existing symbol, gate, or file — re-justify with the "
                    f"concrete symbol that makes it safe, or remove it"))
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
    "suppression-audit": check_suppression_audit,
}


def run_checks(world: World, only=None):
    findings = []
    for name in CHECKS:
        if only and name not in only:
            continue
        findings.extend(CHECK_FNS[name](world))
    return findings
