"""cpp_model: the per-TU front half of the minsgd semantic analyzer.

This module turns a C++ tree into a queryable model without a real compiler:

  * a preprocessor-aware lexer: comments and string/char literals are blanked
    (preserving line structure and byte offsets), directive lines are spliced
    across backslash continuations, #include targets and #define names are
    recorded, and directive text is removed from the code the parsers see;
  * a per-TU function index: every function/method *definition* with its
    body text, byte offset, enclosing class, and qualified name — found by a
    brace-tracking scope walker (namespace / class / function), not regexes
    over whole files, so nested classes and out-of-line `Cls::method`
    definitions both resolve;
  * integer constant extraction and evaluation (`constexpr ... kName = expr`)
    with cross-constant references resolved, which is what lets the tag-space
    check compute real intervals from kCollectiveBase/kChannelStride/...;
  * an include graph resolved against the real build's include directories
    (compile_commands.json when CMAKE_EXPORT_COMPILE_COMMANDS left one in a
    build dir; src/-rooted fallback otherwise).

Everything downstream (tools/analyze/callgraph.py, tools/analyze/checks.py)
consumes this model. Stdlib only.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from functools import cached_property

CXX_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh", ".inl")
HEADER_EXTS = (".hpp", ".h", ".hh")

# Keywords that look like `name(` but are not calls or definitions.
CONTROL_KEYWORDS = frozenset(
    "if else for while switch do return sizeof alignof alignas decltype "
    "catch throw new delete static_assert noexcept defined co_await "
    "co_return co_yield".split())


def strip_comments_and_strings(text: str) -> str:
    """Blank comments and string/char literals, preserving line structure.

    Handles //, /* */, "..." and '...' with escapes. Raw strings are
    treated as plain strings, which is fine for the patterns matched
    downstream.
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
        else:  # string / char
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


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')
DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_]\w*)")


@dataclass(eq=False)  # identity semantics: each def is hashable as itself
class FunctionDef:
    """One function/method definition."""
    tu: "TU"
    name: str            # simple name (no qualifiers)
    cls: str | None      # enclosing/qualifying class, if a method
    qual: str            # Cls::name for methods, else name
    line: int            # 1-based line of the body-opening brace
    body: str            # text between the braces (stripped code)
    body_off: int        # offset of body[0] within tu.code
    head: str = ""       # definition head: return type, name, params, quals

    def __repr__(self):
        return f"<fn {self.qual} {self.tu.relpath}:{self.line}>"

    def param_text(self) -> str:
        """The parameter list (text inside the last balanced parens of the
        head, before any constructor init list)."""
        h = _cut_init_list(self.head) or self.head
        depth = 0
        close = open_ = -1
        for idx in range(len(h) - 1, -1, -1):
            c = h[idx]
            if c == ")":
                if depth == 0 and close == -1:
                    close = idx
                depth += 1
            elif c == "(":
                depth -= 1
                if depth == 0 and close != -1:
                    open_ = idx
                    break
        if open_ == -1:
            return ""
        return h[open_ + 1:close]


@dataclass
class TU:
    """One parsed translation unit (source or header)."""
    path: str
    relpath: str
    raw: str = ""
    code: str = ""                 # comments/strings blanked, directives out
    directive_code: str = ""       # comments/strings blanked, directives kept
    includes: list = field(default_factory=list)   # (line, path, is_angle)
    defines: list = field(default_factory=list)    # (line, macro name)
    functions: list = field(default_factory=list)  # [FunctionDef]
    constants: dict = field(default_factory=dict)  # name -> raw expr text
    virtual_decls: set = field(default_factory=set)
    classes: set = field(default_factory=set)

    @cached_property
    def raw_lines(self):
        return self.raw.split("\n")

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1

    def is_header(self) -> bool:
        return self.path.endswith(HEADER_EXTS)


def _blank_directives(tu: TU, stripped: str) -> str:
    """Record #include/#define lines (with backslash continuations spliced)
    and return code with every directive line blanked to spaces. Include
    targets are read from the raw line: the stripped one has its quoted
    path blanked."""
    out_lines = []
    lines = stripped.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        if re.match(r"\s*#", line):
            # Splice continuations so a multi-line #define is one directive.
            start = i
            spliced = line
            while spliced.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                spliced = spliced.rstrip()[:-1] + " " + lines[i]
            m = INCLUDE_RE.match(tu.raw_lines[start])
            if m:
                tu.includes.append((start + 1, m.group(2), m.group(1) == "<"))
            m = DEFINE_RE.match(spliced)
            if m:
                tu.defines.append((start + 1, m.group(1)))
            for j in range(start, i + 1):
                out_lines.append(" " * len(lines[j]))
        else:
            out_lines.append(line)
        i += 1
    return "\n".join(out_lines)


# A scope-opening head is the text between the previous top-level ';'/'{'/'}'
# and the '{' being classified.
NAMESPACE_HEAD_RE = re.compile(r"\bnamespace\s+([A-Za-z_][\w:]*)\s*$")
ANON_NAMESPACE_RE = re.compile(r"\bnamespace\s*$")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?([A-Za-z_]\w*)"
    r"(?:\s*final)?(?:\s*:\s*[^{;]*)?\s*$")
ENUM_HEAD_RE = re.compile(r"\benum\b")
EXTERN_C_RE = re.compile(r'\bextern\s*"')

# Candidate function name directly before a parameter list.
FN_NAME_RE = re.compile(r"(~?[A-Za-z_]\w*)\s*\($")
VIRTUAL_DECL_RE = re.compile(r"\bvirtual\s+[^;{}=()]*?\b([A-Za-z_]\w*)\s*\(")
CONST_RE = re.compile(
    r"\bconstexpr\s+(?:static\s+)?[\w:<>\s]*?\b(k[A-Za-z0-9_]\w*)\s*=\s*"
    r"([^;]+);")
STATIC_CONST_RE = re.compile(
    r"\bstatic\s+constexpr\s+[\w:<>\s]*?\b(k[A-Za-z0-9_]\w*)\s*=\s*([^;]+);")


def _head_function_name(head: str):
    """If `head` reads like a function definition head, return (name, cls).

    Handles `Ret ns::Cls::name(args) const noexcept`, constructors with
    `: init(list)`, trailing return types, and rejects control-flow and
    lambda heads. `cls` is the immediate `Cls` qualifier, if any.
    """
    h = head.strip()
    if not h or h.endswith(("=", ",", "(", "&&", "||")):
        return None
    # Constructor init lists: cut at the top-level `) :` that starts them so
    # the param list is the last paren group we scan.
    # Find the last balanced '(...)' group in the head.
    depth = 0
    close = -1
    open_ = -1
    for idx in range(len(h) - 1, -1, -1):
        c = h[idx]
        if c == ")":
            if depth == 0 and close == -1:
                close = idx
            depth += 1
        elif c == "(":
            depth -= 1
            if depth == 0 and close != -1:
                open_ = idx
                break
    if open_ == -1:
        return None
    trailer = h[close + 1:]
    # Only qualifiers/specifiers may follow the param list before '{'.
    if not re.fullmatch(
            r"(?:\s|const|noexcept|override|final|mutable|&|&&|"
            r"->\s*[\w:<>,&*\s]+|:\s*[^{}]*)*", trailer):
        # A constructor init list that itself contains paren groups makes the
        # *last* group one of the initializers; retry by cutting the head at
        # the first top-level ':' after a ')'.
        cut = _cut_init_list(h)
        if cut is not None and cut != h:
            return _head_function_name(cut)
        return None
    m = FN_NAME_RE.search(h[:open_ + 1])
    if not m:
        return None
    name = m.group(1)
    if name in CONTROL_KEYWORDS or name.startswith("operator"):
        return None
    # Reject lambda heads: `](...)` or `= [...](...)`.
    pre = h[:m.start(1)].rstrip()
    if pre.endswith("]"):
        return None
    cls = None
    if pre.endswith("::"):
        qm = re.search(r"([A-Za-z_]\w*)\s*::\s*$", pre)
        if qm:
            cls = qm.group(1)
    return name, cls


def _cut_init_list(head: str):
    """Cut a constructor head at the `:` that starts its init list."""
    depth = 0
    seen_params = False
    for idx, c in enumerate(head):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                seen_params = True
        elif c == ":" and depth == 0 and seen_params:
            if idx + 1 < len(head) and head[idx + 1] == ":":
                continue
            if idx > 0 and head[idx - 1] == ":":
                continue
            return head[:idx]
    return None


def _parse_scopes(tu: TU) -> None:
    """Brace-tracking walk over tu.code: namespaces, classes, functions."""
    code = tu.code
    n = len(code)
    i = 0
    head_start = 0
    # Stack entries: ("namespace", name) | ("class", name) | ("block", None)
    stack = []

    def enclosing_class():
        for kind, name in reversed(stack):
            if kind == "class":
                return name
        return None

    while i < n:
        c = code[i]
        if c in ";":
            head_start = i + 1
            i += 1
            continue
        if c == "}":
            if stack:
                stack.pop()
            head_start = i + 1
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        head = code[head_start:i]
        # Classify the '{'.
        nm = NAMESPACE_HEAD_RE.search(head)
        if nm:
            stack.append(("namespace", nm.group(1)))
            head_start = i + 1
            i += 1
            continue
        if ANON_NAMESPACE_RE.search(head) or EXTERN_C_RE.search(head):
            stack.append(("namespace", ""))
            head_start = i + 1
            i += 1
            continue
        cm = CLASS_HEAD_RE.search(head)
        if cm:
            tu.classes.add(cm.group(1))
            stack.append(("class", cm.group(1)))
            head_start = i + 1
            i += 1
            continue
        if ENUM_HEAD_RE.search(head.split("{")[-1] if "{" in head else head):
            i = _skip_braced(code, i)
            head_start = i
            continue
        fn = _head_function_name(head)
        if fn is not None:
            name, qual_cls = fn
            cls = qual_cls or enclosing_class()
            body_start = i + 1
            end = _skip_braced(code, i)
            body = code[body_start:end - 1] if end > body_start else ""
            tu.functions.append(FunctionDef(
                tu=tu, name=name, cls=cls,
                qual=(f"{cls}::{name}" if cls else name),
                line=tu.line_of(i), body=body, body_off=body_start,
                head=head.strip()))
            i = end
            head_start = i
            continue
        # Aggregate initializer, array init, lambda at namespace scope,
        # or anything else: skip the block wholesale.
        i = _skip_braced(code, i)
        head_start = i
    # done


def _skip_braced(code: str, open_brace: int) -> int:
    """Offset just past the '}' matching code[open_brace] == '{'."""
    depth = 0
    i = open_brace
    n = len(code)
    while i < n:
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _collect_virtuals_and_constants(tu: TU) -> None:
    for m in VIRTUAL_DECL_RE.finditer(tu.code):
        tu.virtual_decls.add(m.group(1))
    for pat in (CONST_RE, STATIC_CONST_RE):
        for m in pat.finditer(tu.code):
            tu.constants.setdefault(m.group(1), m.group(2).strip())


def parse_tu(path: str, root: str) -> TU:
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    rel = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
    tu = TU(path=path, relpath=rel, raw=raw)
    stripped = strip_comments_and_strings(raw)
    tu.directive_code = stripped
    tu.code = _blank_directives(tu, stripped)
    _parse_scopes(tu)
    _collect_virtuals_and_constants(tu)
    return tu


# -- constant evaluation -----------------------------------------------------

_CAST_RE = re.compile(r"\b(?:std::)?u?int(?:8|16|32|64)?_t\s*\{([^{}]*)\}")
_STATIC_CAST_RE = re.compile(r"\bstatic_cast\s*<[^<>]*>\s*")
_NUM_TOKEN = re.compile(r"^(?:0[xX][0-9a-fA-F]+|\d+)(?:[uUlL]*)$")
_NAME_TOKEN = re.compile(r"^[A-Za-z_][\w:]*$")


class ConstantPool:
    """Evaluates integer constexpr expressions across the indexed tree."""

    def __init__(self):
        self.exprs: dict[str, str] = {}    # name and Cls::name -> expr text
        self.values: dict[str, int] = {}

    def add_tu(self, tu: TU, cls_of_constant=None):
        for name, expr in tu.constants.items():
            self.exprs.setdefault(name, expr)

    def value(self, name: str):
        """Evaluated integer value of `name`, or None."""
        if name in self.values:
            return self.values[name]
        expr = self.exprs.get(name)
        if expr is None and "::" in name:
            expr = self.exprs.get(name.split("::")[-1])
        if expr is None:
            return None
        val = self.eval_expr(expr, _seen={name})
        if val is not None:
            self.values[name] = val
        return val

    def eval_expr(self, expr: str, _seen=None):
        """Evaluate an integer constant expression; None if not derivable."""
        _seen = _seen or set()
        e = expr.strip()
        # `std::int64_t{1}` -> `(1)`; strip static_cast<...>.
        for _ in range(4):
            e2 = _CAST_RE.sub(r"(\1)", e)
            e2 = _STATIC_CAST_RE.sub("", e2)
            if e2 == e:
                break
            e = e2
        tokens = re.findall(r"[A-Za-z_][\w:]*|0[xX][0-9a-fA-F]+[uUlL]*|"
                            r"\d+[uUlL]*|<<|>>|[-+*/%()|&^~]", e)
        if not tokens or "".join(tokens).strip() == "":
            return None
        py = []
        for t in tokens:
            if _NUM_TOKEN.match(t):
                py.append(re.sub(r"[uUlL]+$", "", t))
            elif _NAME_TOKEN.match(t):
                if t in _seen:
                    return None
                sub = self.exprs.get(t) or (
                    self.exprs.get(t.split("::")[-1]) if "::" in t else None)
                if sub is None:
                    return None
                v = self.eval_expr(sub, _seen | {t})
                if v is None:
                    return None
                py.append(f"({v})")
            else:
                py.append(t)
        joined = " ".join(py)
        # Only arithmetic survives the tokenizer; evaluate with no builtins.
        try:
            val = eval(joined, {"__builtins__": {}}, {})  # noqa: S307
        except Exception:
            return None
        return int(val) if isinstance(val, int) else None


# -- include graph -----------------------------------------------------------

def find_include_dirs(root: str, build_dirs=None) -> list[str]:
    """Include directories for quoted-include resolution.

    Prefers the real build's compile_commands.json (exported via
    CMAKE_EXPORT_COMPILE_COMMANDS); falls back to <root>/src and <root>.
    """
    dirs: list[str] = []
    for bd in (build_dirs or ("build", "build-asan-ubsan", "build-tsan")):
        cc = os.path.join(root, bd, "compile_commands.json")
        if not os.path.isfile(cc):
            continue
        try:
            with open(cc, "r", encoding="utf-8") as f:
                entries = json.load(f)
        except (OSError, ValueError):
            continue
        for entry in entries:
            cmd = entry.get("command")
            args = cmd.split() if cmd else list(entry.get("arguments", []))
            base = entry.get("directory", root)
            it = iter(range(len(args)))
            for k in it:
                a = args[k]
                inc = None
                if a == "-I" and k + 1 < len(args):
                    inc = args[k + 1]
                elif a.startswith("-I"):
                    inc = a[2:]
                elif a.startswith("-isystem") and len(a) > 8:
                    inc = a[8:]
                if inc:
                    if not os.path.isabs(inc):
                        inc = os.path.join(base, inc)
                    inc = os.path.normpath(inc)
                    if inc not in dirs and os.path.isdir(inc):
                        dirs.append(inc)
        if dirs:
            break
    for fallback in (os.path.join(root, "src"), root):
        if os.path.isdir(fallback) and fallback not in dirs:
            dirs.append(fallback)
    return dirs


class Index:
    """Whole-program index: TUs, functions by name, constants, includes."""

    def __init__(self, root: str):
        self.root = root
        self.tus: dict[str, TU] = {}
        self.by_name: dict[str, list[FunctionDef]] = {}
        self.by_qual: dict[str, list[FunctionDef]] = {}
        self.constants = ConstantPool()
        self.virtuals: set[str] = set()
        self.classes: set[str] = set()
        self.macros: set[str] = set()
        self.include_dirs: list[str] = []
        self.include_graph: dict[str, set[str]] = {}

    def add_file(self, path: str):
        tu = parse_tu(path, self.root)
        self.tus[tu.relpath] = tu
        for fn in tu.functions:
            self.by_name.setdefault(fn.name, []).append(fn)
            self.by_qual.setdefault(fn.qual, []).append(fn)
        self.constants.add_tu(tu)
        self.virtuals |= tu.virtual_decls
        self.classes |= tu.classes
        self.macros |= {name for _, name in tu.defines}
        return tu

    def resolve_includes(self):
        """Build the quoted-include graph over indexed TUs."""
        rel_of = {}
        for rel, tu in self.tus.items():
            rel_of[os.path.normpath(tu.path)] = rel
        for rel, tu in self.tus.items():
            edges = set()
            for _line, inc, is_angle in tu.includes:
                if is_angle:
                    continue
                for d in self.include_dirs:
                    cand = os.path.normpath(os.path.join(d, inc))
                    if cand in rel_of:
                        edges.add(rel_of[cand])
                        break
            self.include_graph[rel] = edges

    def include_closure(self, rel: str) -> set[str]:
        seen = set()
        work = [rel]
        while work:
            cur = work.pop()
            if cur in seen:
                continue
            seen.add(cur)
            work.extend(self.include_graph.get(cur, ()))
        return seen

    def symbol_exists(self, token: str) -> bool:
        """Does `token` name something real: a function, class, macro,
        constant, or an existing repo path?"""
        t = token.rstrip("(").rstrip(")")
        simple = t.split("::")[-1]
        if simple in self.by_name or t in self.by_qual:
            return True
        if simple in self.classes or simple in self.virtuals:
            return True
        if simple in self.macros or t in self.macros:
            return True
        if simple in self.constants.exprs:
            return True
        if "/" in t and os.path.exists(os.path.join(self.root, t)):
            return True
        return False


def collect_cxx_files(root: str, subdirs) -> list[str]:
    out = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base) and base.endswith(CXX_EXTS):
            out.append(base)
            continue
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for f in sorted(files):
                if f.endswith(CXX_EXTS):
                    out.append(os.path.join(dirpath, f))
    return out


def build_index(root: str, subdirs=("src",), extra_files=()) -> Index:
    idx = Index(root)
    idx.include_dirs = find_include_dirs(root)
    for path in collect_cxx_files(root, subdirs):
        idx.add_file(path)
    for path in extra_files:
        if os.path.isfile(path):
            idx.add_file(path)
    idx.resolve_includes()
    return idx
