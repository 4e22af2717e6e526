#!/usr/bin/env python3
"""Whole-program lock-discipline analyzer for the Regel tree.

Clang's -Wthread-safety (the `thread-safety` CI lane) proves per-class
invariants: guarded fields are only touched under their mutex. What it
cannot see is the *global* picture — the properties that actually
deadlock or stall a serving fleet:

  lock-cycle           Two code paths acquire the same pair (or ring) of
                       locks in opposite orders. The analyzer extracts
                       every acquisition site (MutexLock / UniqueLock
                       scopes, REGEL_REQUIRES preconditions), builds the
                       global lock-order graph (lexical nesting plus
                       interprocedural acquisitions through the call
                       graph), and reports every cycle with a concrete
                       file:line witness chain for each edge.

  blocking-under-lock  A critical section reaches a denylisted slow or
                       re-entrant operation — directly or through calls:
                         socket-io        ::send/::recv/::connect/::accept/::poll
                         cv-wait          wait/wait_for/wait_until/Clock::waitFor
                         smt-solve        smt:: entry points, Synthesizer::run
                         callback-invoke  call through a std::function value
                         shard-scan       lock acquisition inside a loop
                         thread-join      .join()
                       A wait that releases the lock it is predicated on
                       (the guard variable appears in the wait's argument
                       list) only counts against the *other* locks still
                       held — the own-lock CV wait is the intended
                       pattern, holding a second lock across it is not.

Escape hatch: `// analyze:allow <slug> <reason>` on the operation line
(or, for findings that arrive through a call, on the call line inside
the critical section). The reason is mandatory; an allow without one
does not suppress.

Baseline: `tools/analyze/baseline.json` holds keys of accepted findings
(keys are line-number-free so they survive churn). New findings fail;
baselined ones are listed as debt; stale entries are warnings.

Frontends: the *regex* frontend is the canonical, fixture-pinned
implementation — it parses the stripped source directly and runs
anywhere (this is the "documented degraded mode": no template
instantiation, no overload resolution; unresolved calls are skipped and
counted rather than guessed). The *libclang* frontend drives the same
analyses from compile_commands.json when the clang Python bindings are
installed; CI runs it as an informational lane. `--frontend auto`
prefers libclang and falls back with a note.

Usage:
  tools/analyze/analyze.py [--root DIR] [--frontend regex|libclang|auto]
                           [--json OUT] [--baseline FILE]
                           [--update-baseline] [--compile-commands PATH]
  tools/analyze/analyze.py --self-test     # fixture suite, regex frontend
"""

import argparse
import json
import os
import re
import sys

ALLOW_RE = re.compile(r"//\s*analyze:allow\s+([\w-]+)[ \t]*(\S.*)?$",
                      re.M)

# Files the analyzer does not scan, each with its reason.
SKIP_FILES = {
    # The lock wrapper itself: its lock()/unlock()/native() are the
    # primitives every rule is defined in terms of.
    "support/Mutex.h",
    # Annotation macros only; no code.
    "support/ThreadAnnotations.h",
}

BLOCKING_SLUGS = ("socket-io", "cv-wait", "smt-solve", "callback-invoke",
                  "shard-scan", "thread-join")

SOCKET_RE = re.compile(r"(?<![\w:])::\s*(send|recv|connect|accept|poll|"
                       r"select|getaddrinfo)\s*\(")
WAIT_NAMES = {"wait", "wait_for", "wait_until", "waitFor"}
SMT_CALL_RE = re.compile(r"\bsmt\s*::\s*\w+|\bSynthesizer\s*::\s*run\b")
KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "catch",
            "new", "delete", "throw", "assert", "static_cast",
            "dynamic_cast", "reinterpret_cast", "const_cast", "decltype",
            "alignof", "defined", "static_assert", "noexcept"}


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line
    structure (same routine as tools/lint.py)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            out.append(q + " " * (j - i - 1) + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def match_brace(text, open_pos):
    """Returns the index just past the `}` matching the `{` at open_pos,
    or len(text) if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def match_paren(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def split_top_commas(s):
    parts, depth, start = [], 0, 0
    for i, c in enumerate(s):
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    parts.append(s[start:])
    return [p.strip() for p in parts if p.strip()]


# ---------------------------------------------------------------------------
# Model (shared by both frontends)

class Acq:
    """One lock-acquisition scope inside a function."""
    def __init__(self, lock, guard, line, ranges, in_loop):
        self.lock = lock          # canonical lock id, e.g. "SynthJob::M"
        self.guard = guard        # guard variable name
        self.line = line
        self.ranges = ranges      # [(start,end)] active char ranges in body
        self.in_loop = in_loop    # acquisition sits inside a for/while body

    def active_at(self, pos):
        return any(a <= pos < b for a, b in self.ranges)


class Call:
    """A resolved-or-not call site."""
    def __init__(self, name, targets, line, pos, args, is_wait, is_callback):
        self.name = name          # spelled name
        self.targets = targets    # list of function qnames (may be empty)
        self.line = line
        self.pos = pos
        self.args = args          # raw arg text (own-lock wait detection)
        self.is_wait = is_wait
        self.is_callback = is_callback


class Op:
    """A direct blocking operation site."""
    def __init__(self, slug, line, pos, detail, released=()):
        self.slug = slug
        self.line = line
        self.pos = pos
        self.detail = detail
        self.released = frozenset(released)   # locks this op releases


class Fn:
    def __init__(self, qname, rel, start_line):
        self.qname = qname        # "Class::method" / "free" / ".../<lambda:N>"
        self.rel = rel            # path relative to src/ (or fixture name)
        self.start_line = start_line
        self.acqs = []            # [Acq]
        self.calls = []           # [Call]
        self.ops = []             # [Op]
        self.requires = []        # lock ids held at entry (REGEL_REQUIRES)


class ClassInfo:
    def __init__(self, qname):
        self.qname = qname
        self.members = {}         # name -> type string
        self.bases = []           # base class names
        self.nested = []          # nested class qnames
        self.methods = set()      # method names declared/defined


class Model:
    def __init__(self):
        self.classes = {}         # qname -> ClassInfo
        self.aliases = {}         # alias name -> target type string
        self.functions = {}       # qname -> [Fn]
        self.allows = {}          # rel -> {line: [(slug, reason)]}
        self.stats = {"files": 0, "functions": 0, "acquisitions": 0,
                      "unresolved_calls": 0}

    def add_fn(self, fn):
        self.functions.setdefault(fn.qname, []).append(fn)
        self.stats["functions"] += 1

    def allowed(self, rel, line, slug):
        for s, reason in self.allows.get(rel, {}).get(line, ()):
            if s == slug and reason:
                return True
        return False


# ---------------------------------------------------------------------------
# Regex frontend (the canonical, fixture-pinned degraded mode)

CLASS_RE = re.compile(r"\b(class|struct)\s+(?:REGEL_\w+(?:\([^)]*\))?\s+)?"
                      r"(\w+)\s*(?:final\s*)?(:\s*[^{;]*)?\{")
USING_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
MEMBER_RE = re.compile(
    r"^[ \t]*(?:mutable[ \t]+|static[ \t]+|const[ \t]+)*"
    r"((?:[\w:]+(?:<[^<>;()]*(?:<[^<>;()]*>)?[^<>;()]*>)?)(?:[ \t]*[*&])*)"
    r"[ \t]+(\w+)[ \t]*(\[[^\]]*\])?[ \t]*(?:REGEL_\w+\([^)]*\)[ \t]*)*"
    r"(?:=[^;]*|\{[^;]*\})?;", re.M)
REQUIRES_DECL_RE = re.compile(
    r"\b(\w+)\s*(\()")
LOCKDECL_RE = re.compile(
    r"\b(?:(?:regel::)?(MutexLock|UniqueLock)|std::lock_guard(?:<[^;>]*>)?|"
    r"std::unique_lock(?:<[^;>]*>)?)\s+(\w+)\s*\(([^;]*?)\)\s*;")
LOCALMUTEX_RE = re.compile(
    r"^[ \t]*(?:(?:regel::)?Mutex|std::mutex)\s+(\w+)\s*;", re.M)
CALL_RE = re.compile(r"\b(\w+)\s*\(")
LAMBDA_RE = re.compile(
    r"\[[^\[\]{};]*\]\s*(?:\([^()]*(?:\([^()]*\)[^()]*)?\))?"
    r"\s*(?:mutable\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&*\s]+?)?\s*\{")
LOOP_RE = re.compile(r"\b(for|while)\s*\(")
FNHEAD_NAME_RE = re.compile(r"((?:\w+\s*::\s*)*[~\w]+)\s*\(")
PARAM_RE = re.compile(r"^(.*?)([\w]+)(?:\s*=[^=]*)?$")
# A local declaration: `Type Name`, `Type &Name` or `Type *Name` (the
# name must follow whitespace or the declarator, so LLVM-style
# `Shard &S = shardFor(K);` types S).
LOCAL_RE = re.compile(
    r"^[ \t]*(?:const[ \t]+)?((?:[\w:]+(?:<[^<>;()=]*>)?)(?:[ \t]*[*&])*)"
    r"[ \t]*(?<=[ \t*&])(\w+)[ \t]*(?:=|\(|\{|;)", re.M)
RANGEFOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?([\w:<>]+|auto)\s*[&*]*\s*(\w+)\s*:"
    r"\s*([^);]+)\)")
FUNC_TYPE_RE = re.compile(r"\bstd::function\b")
SMART_PTR_RE = re.compile(
    r"^(?:std::)?(?:shared_ptr|unique_ptr|weak_ptr)\s*<\s*(.*?)\s*>?\s*$")
CONTAINER_RE = re.compile(
    r"^(?:std::)?(?:vector|deque|list|array|set|unordered_set)\s*<\s*(.+?)"
    r"\s*(?:,[^<>]*)?>$")


class RegexFrontend:
    """Parses stripped C++ text directly. Degraded by design: no
    preprocessing, no overload resolution; calls it cannot resolve are
    counted and skipped (under-approximation, never invention)."""

    def __init__(self, model):
        self.m = model

    def scan_file(self, rel, text):
        self.m.stats["files"] += 1
        for lno, line in enumerate(text.splitlines(), 1):
            am = ALLOW_RE.search(line)
            if am:
                self.m.allows.setdefault(rel, {}).setdefault(
                    lno, []).append((am.group(1), (am.group(2) or "").strip()))
        stripped = strip_comments_and_strings(text)
        self._parse_classes(rel, stripped)
        return stripped

    # -- pass 1: classes, members, aliases, inheritance, REQUIRES decls
    def _parse_classes(self, rel, stripped):
        extents = []  # (start, end, qname)
        for cm in CLASS_RE.finditer(stripped):
            # not `enum class`
            before = stripped[max(0, cm.start() - 8):cm.start()]
            if re.search(r"\benum\s*$", before):
                continue
            body_open = cm.end() - 1
            body_end = match_brace(stripped, body_open)
            name = cm.group(2)
            encl = [q for s, e, q in extents
                    if s < cm.start() and body_end <= e]
            qname = (encl[-1] + "::" + name) if encl else name
            extents.append((cm.start(), body_end, qname))
            ci = self.m.classes.setdefault(qname, ClassInfo(qname))
            if encl:
                self.m.classes[encl[-1]].nested.append(qname)
            bases = cm.group(3) or ""
            for b in re.finditer(r"(?:public|protected|private)?\s*"
                                 r"((?:\w+::)*\w+)\s*(?:,|$)", bases.strip(": ")):
                if b.group(1):
                    ci.bases.append(b.group(1).split("::")[-1])
            self._parse_class_body(rel, stripped, qname, ci,
                                   body_open + 1, body_end - 1)
        for um in USING_RE.finditer(stripped):
            self.m.aliases.setdefault(um.group(1), um.group(2).strip())
        self._extent_cache = getattr(self, "_extent_cache", {})
        self._extent_cache[rel] = extents

    def _parse_class_body(self, rel, stripped, qname, ci, start, end):
        body = stripped[start:end]
        # Only direct members: blank nested braced regions first.
        flat, i = [], 0
        while i < len(body):
            if body[i] == "{":
                j = match_brace(body, i)
                flat.append("".join(c if c == "\n" else " "
                                    for c in body[i:j]))
                i = j
            else:
                flat.append(body[i])
                i += 1
        flat = "".join(flat)
        for mm in MEMBER_RE.finditer(flat):
            ty, name = mm.group(1).strip(), mm.group(2)
            if ty in ("return", "else", "using", "typedef", "public",
                      "private", "protected", "friend", "goto"):
                continue
            if mm.group(3):
                ty += "[]"              # C array member: Shard Shards[8]
            ci.members[name] = ty
        # method declarations (with possible REQUIRES), method names
        for dm in re.finditer(r"\b(~?\w+)\s*\(", flat):
            if dm.group(1) not in KEYWORDS:
                ci.methods.add(dm.group(1))
        for rm in re.finditer(r"\b(\w+)\s*\(([^;{}]*)\)[^;{}]*?"
                              r"REGEL_REQUIRES\s*\(([^)]*)\)\s*;", flat):
            self.m.requires_decls = getattr(self.m, "requires_decls", {})
            self.m.requires_decls[(qname, rm.group(1))] = \
                (rm.group(2), rm.group(3))

    def enclosing_class(self, rel, pos):
        best = None
        for s, e, q in self._extent_cache.get(rel, ()):
            if s < pos < e and (best is None or s > best[0]):
                best = (s, q)
        return best[1] if best else None

    # -- pass 2: function bodies
    def scan_functions(self, rel, stripped):
        i, n = 0, len(stripped)
        while i < n:
            m = FNHEAD_NAME_RE.search(stripped, i)
            if not m:
                break
            name = re.sub(r"\s+", "", m.group(1))
            base = name.split("::")[-1]
            if base in KEYWORDS or base in ("REGEL_GUARDED_BY",
                                            "REGEL_REQUIRES"):
                i = m.end()
                continue
            pend = match_paren(stripped, m.end() - 1)
            # trailing tokens up to `{`, `;`, or something disqualifying
            j, ok = pend, False
            while j < n:
                rest = stripped[j:j + 160]
                tm = re.match(r"\s*(const\b|noexcept\b|override\b|final\b|"
                              r"mutable\b|->\s*[\w:<>&*]+|REGEL_\w+\s*\(|"
                              r":\s|\{|;|=)", rest)
                if not tm:
                    break
                tok = tm.group(1)
                if tok == "{":
                    ok = True
                    j += tm.end() - len(tm.group(0)) + tm.start(1)
                    break
                if tok in (";", "="):
                    break
                if tok.startswith("REGEL_"):
                    ap = stripped.find("(", j)
                    ae = match_paren(stripped, ap)
                    if tok.startswith("REGEL_REQUIRES"):
                        self.m.requires_decls = getattr(
                            self.m, "requires_decls", {})
                        key = ("", name)
                        self.m.requires_decls.setdefault(
                            key, (stripped[m.end():pend - 1],
                                  stripped[ap + 1:ae - 1]))
                    j = ae
                    continue
                if tok.startswith(":"):
                    # ctor init list: skip to the body `{`
                    k, depth = j + tm.start(1) + 1, 0
                    while k < n:
                        c = stripped[k]
                        if c == "(":
                            k = match_paren(stripped, k)
                            continue
                        if c == "{" and depth == 0:
                            # brace-init in the list vs body: body `{` is
                            # preceded by `)` or identifier; accept first
                            # depth-0 `{` not directly after `,` or `(`
                            prev = stripped[:k].rstrip()[-1:]
                            if prev in (")", ">", "\0") or prev.isalnum():
                                ok, j = True, k
                                break
                            k = match_brace(stripped, k)
                            continue
                        if c == ";":
                            break
                        k += 1
                    break
                j += tm.end()
            if not ok:
                i = pend
                continue
            body_end = match_brace(stripped, j)
            encl = self.enclosing_class(rel, m.start())
            if "::" in name:
                qname = name
            elif encl:
                qname = encl + "::" + name
            else:
                qname = name
            params_text = stripped[m.end():pend - 1]
            self._scan_body(rel, qname, stripped, j + 1, body_end - 1,
                            params_text, env_extra=None)
            i = body_end

    # -- body scanning
    def _scan_body(self, rel, qname, stripped, bstart, bend, params_text,
                   env_extra):
        fn = Fn(qname, rel, line_of(stripped, bstart))
        body = stripped[bstart:bend]

        # Lambdas: deferred execution — excluded from this function's
        # synchronous flow, analyzed as standalone anonymous functions
        # (they start with no locks held).
        masked = body
        lam_no = 0
        # Captured locals resolve inside lambda bodies ([&C] sees the
        # enclosing C), so pre-compute the enclosing env for them.
        pre_env = self._build_env(rel, qname, body, params_text)
        if env_extra:
            pre_env.update(env_extra)
        while True:
            lm = LAMBDA_RE.search(masked)
            if lm is None:
                break
            lb_open = lm.end() - 1
            lb_end = match_brace(masked, lb_open)
            lam_no += 1
            sub = masked[lm.start():lb_end]
            lam_line = line_of(stripped, bstart) + masked.count(
                "\n", 0, lm.start())
            self._scan_lambda(rel, qname, lam_no, sub, lam_line,
                              params_text, pre_env)
            masked = (masked[:lm.start()] +
                      "".join(c if c == "\n" else " "
                              for c in masked[lm.start():lb_end]) +
                      masked[lb_end:])

        env = self._build_env(rel, qname, masked, params_text)
        if env_extra:
            env.update(env_extra)

        # loop body extents (for shard-scan classification)
        loops = []
        for lo in LOOP_RE.finditer(masked):
            pe = match_paren(masked, masked.find("(", lo.start()))
            k = pe
            while k < len(masked) and masked[k] in " \t\n":
                k += 1
            if k < len(masked) and masked[k] == "{":
                loops.append((k, match_brace(masked, k)))

        # local mutex declarations (function-local locks)
        local_mutexes = {lm.group(1) for lm in LOCALMUTEX_RE.finditer(masked)}

        # acquisition scopes
        guards = {}
        for am in LOCKDECL_RE.finditer(masked):
            guard, expr = am.group(2), am.group(3).strip()
            expr = split_top_commas(expr)[0] if expr else ""
            lock = self._resolve_lock(rel, qname, expr, env, local_mutexes)
            if lock is None:
                continue
            line = line_of(stripped, bstart + am.start())
            scope_end = self._stmt_scope_end(masked, am.start())
            ranges = self._guard_ranges(masked, guard, am.end(), scope_end)
            in_loop = any(s <= am.start() < e for s, e in loops)
            fn.acqs.append(Acq(lock, guard, line, ranges, in_loop))
            guards[guard] = lock
            self.m.stats["acquisitions"] += 1
            if in_loop:
                fn.ops.append(Op("shard-scan", line, am.start(),
                                 f"acquires {lock} inside a loop"))

        # REQUIRES held-at-entry (definition attribute or header decl)
        cls = qname.rsplit("::", 1)[0] if "::" in qname else ""
        base = qname.rsplit("::", 1)[-1]
        rdecl = getattr(self.m, "requires_decls", {}).get((cls, base)) or \
            getattr(self.m, "requires_decls", {}).get(("", base))
        if rdecl:
            dparams, rexpr = rdecl
            denv = dict(env)
            for p in split_top_commas(dparams):
                pm = PARAM_RE.match(p.strip())
                if pm:
                    denv[pm.group(2)] = pm.group(1).strip()
            for e in split_top_commas(rexpr):
                lock = self._resolve_lock(rel, qname, e, denv, local_mutexes)
                if lock:
                    fn.requires.append(lock)

        # direct blocking ops: sockets, smt entries
        for sm in SOCKET_RE.finditer(masked):
            fn.ops.append(Op("socket-io",
                             line_of(stripped, bstart + sm.start()),
                             sm.start(), f"::{sm.group(1)}()"))
        for sm in SMT_CALL_RE.finditer(masked):
            fn.ops.append(Op("smt-solve",
                             line_of(stripped, bstart + sm.start()),
                             sm.start(),
                             re.sub(r"\s+", "", sm.group(0)) + "()"))

        # calls
        for cm in CALL_RE.finditer(masked):
            name = cm.group(1)
            if name in KEYWORDS or name in ("MutexLock", "UniqueLock"):
                continue
            pe = match_paren(masked, cm.end() - 1)
            args = masked[cm.end():pe - 1]
            line = line_of(stripped, bstart + cm.start())
            recv, recv_kind = self._receiver(masked, cm.start())
            if recv_kind == "decl":
                continue
            is_wait = name in WAIT_NAMES
            is_cb, targets = self._resolve_call(
                rel, qname, name, recv, recv_kind, env, guards)
            if name == "join" and recv_kind in ("dot", "arrow"):
                fn.ops.append(Op("thread-join", line, cm.start(),
                                 f"{recv}.join()"))
                continue
            released = set()
            if is_wait:
                released = self._released_locks(args, fn, cm.start(), guards)
                if released or not targets:
                    # A wait naming an active guard in its arguments
                    # releases that guard's lock while it sleeps (the
                    # own-lock CV pattern); an unresolvable wait is an op
                    # outright. A wait that resolves to a known function
                    # with no guard argument (J->wait()) is not an op at
                    # this site — its body's own wait op propagates up
                    # with the correct released-lock set.
                    fn.ops.append(Op("cv-wait", line, cm.start(),
                                     f"{name}() wait", released=released))
            if not targets and not is_cb and not is_wait:
                self.m.stats["unresolved_calls"] += 1
            c = Call(name, targets, line, cm.start(), args, is_wait, is_cb)
            c.released = frozenset(released)
            fn.calls.append(c)
            if is_cb:
                fn.ops.append(Op("callback-invoke", line, cm.start(),
                                 f"call through std::function '{name}'"))
        self.m.add_fn(fn)

    def _scan_lambda(self, rel, qname, lam_no, sub, lam_line, params_text,
                     env_extra):
        """A lambda body as a standalone anonymous function. It inherits
        the enclosing env for type resolution (captures see the same
        names) but starts with no locks held."""
        open_pos = sub.index("{", sub.index("]"))
        extra = dict(env_extra or {})
        cap = sub[1:sub.index("]")]
        for c in re.finditer(r"(\w+)\s*=\s*(\w+)", cap):
            extra[c.group(1)] = ("@copyof", c.group(2))
        pseudo = qname + f"::<lambda:{lam_line}>"
        # splice the lambda body back into file coordinates via a shim:
        # we scan it as its own text, so rebase lines by prefixing
        # newlines to keep file line numbers correct.
        shim = "\n" * (lam_line - 1 + sub.count("\n", 0, open_pos)) + \
            sub[open_pos:]
        self._scan_body(rel, pseudo, shim,
                        shim.index("{") + 1, len(shim) - 1, params_text,
                        extra)

    # -- helpers
    def _stmt_scope_end(self, body, pos):
        """End of the block containing the statement at pos (the `}` that
        closes it), relative to body."""
        depth = 0
        for i in range(pos, len(body)):
            c = body[i]
            if c == "{":
                depth += 1
            elif c == "}":
                if depth == 0:
                    return i
                depth -= 1
        return len(body)

    def _guard_ranges(self, body, guard, start, scope_end):
        """Active ranges of a guard: decl → scope end, minus explicit
        G.unlock()/G.lock() toggles."""
        ranges, cur, i = [], start, start
        ul = re.compile(r"\b%s\s*\.\s*(unlock|lock)\s*\(" % re.escape(guard))
        for t in ul.finditer(body, start, scope_end):
            if t.group(1) == "unlock" and cur is not None:
                ranges.append((cur, t.start()))
                cur = None
            elif t.group(1) == "lock" and cur is None:
                cur = t.end()
        if cur is not None:
            ranges.append((cur, scope_end))
        return ranges

    def _receiver(self, body, pos):
        """Classify the token(s) before `name(`: ('x','arrow'|'dot'),
        ('Cls','scope'), (None,'bare'), or (None,'decl') when this is a
        declaration like `Type name(...)`."""
        j = pos - 1
        while j >= 0 and body[j] in " \t\n":
            j -= 1
        if j >= 1 and body[j] == ">" and body[j - 1] == "-":
            k = j - 1
            m = re.search(r"(\w+)\s*$", body[:k])
            return (m.group(1) if m else None, "arrow")
        if j >= 0 and body[j] == ".":
            m = re.search(r"(\w+)\s*$", body[:j])
            return (m.group(1) if m else None, "dot")
        if j >= 1 and body[j] == ":" and body[j - 1] == ":":
            m = re.search(r"(\w+)\s*::\s*$", body[:j + 1])
            return (m.group(1) if m else None, "scope")
        # `Type name(` declaration? previous token is a type-ish word
        # (but `return foo(...)` and friends are calls, not decls)
        m = re.search(r"([\w:><]+)\s*$", body[:pos])
        if m and re.match(r"^[A-Za-z_][\w:><]*$", m.group(1)) and \
                m.group(1) not in ("return", "else", "case", "do", "try",
                                   "co_return", "goto", "in"):
            return (None, "decl")
        return (None, "bare")

    def _build_env(self, rel, qname, masked, params_text):
        env = {}
        for p in split_top_commas(params_text or ""):
            pm = PARAM_RE.match(p.strip())
            if pm and pm.group(1).strip():
                env[pm.group(2)] = pm.group(1).strip()
        for lm in LOCAL_RE.finditer(masked):
            ty, nm = lm.group(1).strip(), lm.group(2)
            if ty in KEYWORDS or ty in ("return", "else", "auto", "case",
                                        "break", "continue", "using",
                                        "goto", "public", "private"):
                continue
            env.setdefault(nm, ty)
        for rf in RANGEFOR_RE.finditer(masked):
            ty, nm, cont = rf.group(1), rf.group(2), rf.group(3).strip()
            if ty != "auto":
                env[nm] = ty
            else:
                env[nm] = ("@elemof", cont)
        return env

    def _class_of(self, qname):
        return qname.rsplit("::", 1)[0] if "::" in qname else None

    def _lookup_member(self, cls, name, seen=None):
        """Member type by name in cls or its bases (nested-class aware:
        cls is a qualified name)."""
        seen = seen or set()
        if not cls or cls in seen:
            return None
        seen.add(cls)
        ci = self.m.classes.get(cls)
        if not ci:
            # try suffix match for nested qualification
            cands = [q for q in self.m.classes if q.split("::")[-1] == cls]
            ci = self.m.classes[cands[0]] if len(cands) == 1 else None
        if not ci:
            return None
        if name in ci.members:
            return ci.members[name]
        for b in ci.bases:
            t = self._lookup_member(b, name, seen)
            if t:
                return t
        return None

    def _norm_type(self, ty, context_cls=None, depth=0):
        """Alias-resolve and strip wrappers down to a class name the
        model knows, qualified against the context class's nested types
        when possible. Returns a class qname, '@function', or None."""
        if ty is None or depth > 8:
            return None
        if isinstance(ty, tuple):
            return None
        ty = ty.strip().rstrip("&* \t")
        ty = re.sub(r"^(?:const|mutable|typename)\s+", "", ty)
        if FUNC_TYPE_RE.search(ty):
            return "@function"
        if ty in self.m.aliases:
            return self._norm_type(self.m.aliases[ty], context_cls,
                                   depth + 1)
        sp = SMART_PTR_RE.match(ty)
        if sp:
            return self._norm_type(sp.group(1), context_cls, depth + 1)
        base = ty.split("<")[0].strip()
        base = base[5:] if base.startswith("std::") else base
        # qualify nested classes against the context class first
        if context_cls:
            probe = context_cls
            while probe:
                q = probe + "::" + base.split("::")[-1]
                if q in self.m.classes:
                    return q
                probe = probe.rsplit("::", 1)[0] if "::" in probe else None
        if base in self.m.classes:
            return base
        tail = base.split("::")[-1]
        cands = [q for q in self.m.classes if q.split("::")[-1] == tail]
        if len(cands) == 1:
            return cands[0]
        if tail in self.m.aliases:
            return self._norm_type(self.m.aliases[tail], context_cls,
                                   depth + 1)
        return None

    def _elem_type(self, cont_expr, env, context_cls):
        """Element type of a range-for container expression."""
        ty = self._expr_type(cont_expr.strip(), env, context_cls, raw=True)
        if not ty or isinstance(ty, tuple):
            return None
        t = ty.strip()
        if t in self.m.aliases:
            t = self.m.aliases[t]
        if t.endswith("[]"):
            return t[:-2]
        em = CONTAINER_RE.match(t)
        return em.group(1) if em else None

    def _expr_type(self, expr, env, context_cls, raw=False):
        """Raw type string of a simple expression: a name, X.Y, X->Y."""
        expr = expr.strip()
        mm = re.match(r"^(\w+)\s*(->|\.)\s*(\w+)$", expr)
        if mm:
            bt = self._expr_type(mm.group(1), env, context_cls, raw=False)
            cls = self._norm_type(bt, context_cls) if isinstance(
                bt, str) else bt if isinstance(bt, str) else None
            if cls and cls != "@function":
                return self._lookup_member(cls, mm.group(3))
            return None
        if re.match(r"^\w+$", expr):
            if expr == "this":
                return context_cls
            v = env.get(expr)
            if isinstance(v, tuple):
                if v[0] == "@elemof":
                    return self._elem_type(v[1], env, context_cls)
                if v[0] == "@copyof":
                    return self._expr_type(v[1], env, context_cls)
            if v is not None:
                return v
            t = self._lookup_member(context_cls, expr) if context_cls \
                else None
            return t
        return None

    def _resolve_lock(self, rel, qname, expr, env, local_mutexes):
        """Canonical lock id for an acquisition expression, or None when
        the owner cannot be typed (counted, never guessed)."""
        expr = expr.strip()
        if not expr:
            return None
        cls = self._class_of(qname)
        mm = re.match(r"^(?:\(\s*)?(\w+)\s*(->|\.)\s*(\w+)\s*(?:\))?$", expr)
        if mm:
            base, member = mm.group(1), mm.group(3)
            if base == "this":
                owner = cls
            else:
                bt = self._expr_type(base, env, cls)
                owner = self._norm_type(bt, cls) if bt else None
            if owner and owner != "@function":
                return f"{owner}::{member}"
            return None
        if re.match(r"^\w+$", expr):
            if expr in local_mutexes:
                return f"{qname}::{expr}"
            if cls and self._lookup_member(cls, expr) is not None:
                # nearest enclosing class that declares it
                probe = cls
                while probe:
                    ci = self.m.classes.get(probe)
                    if ci and expr in ci.members:
                        return f"{probe}::{expr}"
                    probe = probe.rsplit("::", 1)[0] if "::" in probe \
                        else None
                return f"{cls}::{expr}"
            # fixture-style file-scope mutex
            return f"{os.path.basename(rel)}::{expr}"
        return None

    def _resolve_call(self, rel, qname, name, recv, recv_kind, env, guards):
        """Returns (is_callback, [target fn qnames])."""
        cls = self._class_of(qname)
        if recv_kind in ("dot", "arrow") and recv:
            bt = self._expr_type(recv, env, cls)
            owner = self._norm_type(bt, cls) if bt else None
            if owner == "@function":
                return (False, [])
            if owner:
                return (False, self._method_targets(owner, name))
            return (False, [])
        if recv_kind == "scope" and recv:
            owner = self._norm_type(recv, cls)
            if owner:
                return (False, self._method_targets(owner, name))
            return (False, [f"{recv}::{name}"])
        # bare call: a std::function member/local, own method, or free fn
        ty = self._expr_type(name, env, cls)
        if ty is not None and self._norm_type(ty, cls) == "@function":
            return (True, [])
        if cls:
            probe = cls
            while probe:
                ci = self.m.classes.get(probe)
                if ci and name in ci.methods:
                    return (False, self._method_targets(probe, name))
                probe = probe.rsplit("::", 1)[0] if "::" in probe else None
        if name in self.m.functions:
            return (False, [name])
        return (False, [])

    def _method_targets(self, owner, name, seen=None):
        """Resolve owner::name to defined bodies; falls back to derived
        classes' implementations (virtual dispatch approximation)."""
        seen = seen if seen is not None else set()
        if owner in seen:
            return []
        seen.add(owner)
        q = f"{owner}::{name}"
        if q in self.m.functions:
            return [q]
        # inherited implementation
        ci = self.m.classes.get(owner)
        if ci:
            for b in ci.bases:
                bq = self._norm_type(b, None)
                if bq and bq != "@function":
                    t = self._method_targets(bq, name, seen)
                    if t:
                        return t
        # virtual dispatch: any derived class defining it
        outs = []
        for cq, c in self.m.classes.items():
            if cq not in seen and any(
                    self._norm_type(b, None) == owner for b in c.bases):
                outs.extend(self._method_targets(cq, name, seen))
        return outs

    def _released_locks(self, args, fn, pos, guards):
        """Locks released by a wait call at pos: any active guard whose
        name appears in the argument list (Guard.native(), or the guard
        itself for std::unique_lock waits)."""
        rel = set()
        for g, lock in guards.items():
            if not re.search(r"\b%s\b" % re.escape(g), args):
                continue
            for a in fn.acqs:
                if a.guard == g and a.lock == lock and a.active_at(pos):
                    rel.add(lock)
        return rel


# ---------------------------------------------------------------------------
# Shared analyses: acquisition/blocking closures, lock-order graph,
# cycle enumeration, blocking-under-lock findings.

class Finding:
    def __init__(self, rule, rel, line, fnq, detail, key, witness):
        self.rule, self.rel, self.line = rule, rel, line
        self.fnq, self.detail, self.key = fnq, detail, key
        self.witness = witness            # list of "file:line  text"
        self.baselined = False

    def __str__(self):
        head = f"{self.rel}:{self.line}: [{self.rule}] {self.detail}"
        return head + "".join(f"\n    {w}" for w in self.witness)


def dekey_fn(qname):
    """Function name for baseline keys: lambda line numbers removed so
    keys survive churn."""
    return re.sub(r"<lambda:\d+>", "<lambda>", qname)


class Analyzer:
    def __init__(self, model):
        self.m = model
        self._acq_memo = {}
        self._blk_memo = {}
        self.edges = {}                   # (A,B) -> witness list
        self.findings = []

    def fns_named(self, qname):
        return self.m.functions.get(qname, [])

    # -- closures (cycle-safe memoized DFS over the call graph)
    def acq_closure(self, fn, stack=None):
        """{lock: [hop, ...]} — every lock fn may acquire, with a
        file:line witness chain."""
        if id(fn) in self._acq_memo:
            return self._acq_memo[id(fn)]
        stack = stack or set()
        if id(fn) in stack:
            return {}
        stack.add(id(fn))
        out = {}
        for a in fn.acqs:
            out.setdefault(a.lock, [(fn.rel, a.line,
                                     f"{fn.qname} acquires {a.lock}")])
        for c in fn.calls:
            for tq in c.targets:
                for t in self.fns_named(tq):
                    for lock, chain in self.acq_closure(t, stack).items():
                        if lock in t.requires:
                            continue
                        hop = (fn.rel, c.line, f"{fn.qname} calls {tq}")
                        out.setdefault(lock, [hop] + chain)
        stack.discard(id(fn))
        self._acq_memo[id(fn)] = out
        return out

    def blk_closure(self, fn, stack=None):
        """[(slug, released, detail, [hop, ...])] — every blocking op fn
        may reach synchronously."""
        if id(fn) in self._blk_memo:
            return self._blk_memo[id(fn)]
        stack = stack or set()
        if id(fn) in stack:
            return []
        stack.add(id(fn))
        out = []
        for op in fn.ops:
            out.append((op.slug, op.released, op.detail,
                        [(fn.rel, op.line, f"{fn.qname}: {op.detail}")]))
        for c in fn.calls:
            # wait-named calls: the op (with its released set) was either
            # recorded at the site, or propagates from the resolved body.
            if c.is_wait and (c.released or not c.targets):
                continue
            if c.is_callback:
                continue
            for tq in c.targets:
                for t in self.fns_named(tq):
                    for slug, released, detail, chain in \
                            self.blk_closure(t, stack):
                        out.append((slug, released, detail,
                                    [(fn.rel, c.line,
                                      f"{fn.qname} calls {tq}")] + chain))
        stack.discard(id(fn))
        self._blk_memo[id(fn)] = out
        return out

    # -- per-function site walk
    def held_at(self, fn, pos):
        held = {}
        for a in fn.acqs:
            if a.active_at(pos):
                held.setdefault(a.lock, a)
        for r in fn.requires:
            held.setdefault(r, None)
        return held

    def run(self):
        for fns in self.m.functions.values():
            for fn in fns:
                self._scan_fn(fn)
        self._find_cycles()
        self.findings.sort(key=lambda f: (f.rel, f.line, f.rule, f.key))
        return self.findings

    def _edge(self, a, b, witness):
        if a == b:
            return
        self.edges.setdefault((a, b), witness)

    def _scan_fn(self, fn):
        # intra-function lock-order edges (lexical nesting)
        for b in fn.acqs:
            pos = b.ranges[0][0] - 1 if b.ranges else 0
            for a_lock, a_acq in self.held_at(fn, pos).items():
                if a_lock != b.lock:
                    self._edge(a_lock, b.lock,
                               [(fn.rel, b.line,
                                 f"{fn.qname} acquires {b.lock} while "
                                 f"holding {a_lock}")])
        # direct blocking ops
        for op in fn.ops:
            held = set(self.held_at(fn, op.pos)) - set(op.released)
            if held:
                self._blocking(fn, op.line, op.slug, held, op.detail,
                               [(fn.rel, op.line,
                                 f"{fn.qname}: {op.detail}")])
        # calls: interprocedural edges + propagated blocking
        for c in fn.calls:
            held = self.held_at(fn, c.pos)
            if not held or not c.targets:
                continue
            for tq in c.targets:
                for t in self.fns_named(tq):
                    for lock, chain in self.acq_closure(t).items():
                        for h in held:
                            if h != lock:
                                self._edge(
                                    h, lock,
                                    [(fn.rel, c.line,
                                      f"{fn.qname} calls {tq} while "
                                      f"holding {h}")] + chain)
            if c.is_wait and (c.released or not c.targets):
                continue
            if c.is_callback:
                continue
            for tq in c.targets:
                for t in self.fns_named(tq):
                    for slug, released, detail, chain in self.blk_closure(t):
                        eff = set(held) - set(released)
                        if eff:
                            self._blocking(
                                fn, c.line, slug, eff, detail,
                                [(fn.rel, c.line,
                                  f"{fn.qname} calls {tq}")] + chain)

    def _blocking(self, fn, line, slug, held, detail, chain):
        if self.m.allowed(fn.rel, line, slug):
            return
        key = "|".join(["blocking-under-lock", fn.rel, dekey_fn(fn.qname),
                        slug, "+".join(sorted(held))])
        if any(f.key == key and f.line == line for f in self.findings):
            return
        self.findings.append(Finding(
            "blocking-under-lock", fn.rel, line, fn.qname,
            f"{slug} while holding {', '.join(sorted(held))}: {detail}",
            key, [f"{r}:{ln}  {txt}" for r, ln, txt in chain]))

    def _find_cycles(self):
        adj = {}
        for (a, b) in self.edges:
            adj.setdefault(a, set()).add(b)
        seen_cycles = set()
        nodes = sorted(adj)
        for start in nodes:
            # DFS restricted to nodes >= start: each cycle found exactly
            # once, rooted at its smallest lock.
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(adj.get(node, ())):
                    if nxt == start and len(path) > 1:
                        cyc = tuple(path)
                        if cyc not in seen_cycles:
                            seen_cycles.add(cyc)
                            self._report_cycle(list(cyc) + [start])
                    elif nxt > start and nxt not in path and \
                            len(path) < 8:
                        stack.append((nxt, path + [nxt]))

    def _report_cycle(self, cyc):
        witness = []
        for a, b in zip(cyc, cyc[1:]):
            for r, ln, txt in self.edges[(a, b)]:
                witness.append(f"{r}:{ln}  {txt}")
        first = self.edges[(cyc[0], cyc[1])][0]
        key = "lock-cycle|" + "->".join(cyc)
        self.findings.append(Finding(
            "lock-cycle", first[0], first[1], "",
            "lock-order cycle: " + " -> ".join(cyc), key, witness))


# ---------------------------------------------------------------------------
# Baseline

def load_baseline(path):
    if not path or not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return {e["key"] if isinstance(e, dict) else e
            for e in data.get("findings", [])}

def save_baseline(path, findings):
    data = {"version": 1,
            "findings": [{"key": k} for k in
                         sorted({f.key for f in findings})]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")

def apply_baseline(findings, baseline):
    new, seen = [], set()
    for f in findings:
        if f.key in baseline:
            f.baselined = True
            seen.add(f.key)
        else:
            new.append(f)
    stale = baseline - seen
    return new, stale


# ---------------------------------------------------------------------------
# libclang frontend (preferred when the bindings are installed; CI runs
# it as an informational lane — the regex frontend is the pinned gate).

class LibclangFrontend:
    """Builds the same Fn model from real ASTs via compile_commands.json.
    Positions are file offsets (consistent within each function, which is
    all the analyses compare). Deliberately defensive: a TU that fails to
    parse is reported and skipped, never fatal."""

    GUARD_TYPES = ("MutexLock", "UniqueLock", "lock_guard", "unique_lock")

    def __init__(self, model):
        self.m = model

    def scan(self, root, cc_path):
        from clang import cindex
        self.ci = cindex
        idx = cindex.Index.create()
        with open(cc_path, encoding="utf-8") as f:
            cdb = json.load(f)
        src_root = os.path.join(root, "src")
        seen = set()
        for entry in cdb:
            fpath = os.path.normpath(os.path.join(
                entry.get("directory", "."), entry["file"]))
            if not fpath.startswith(src_root + os.sep) or fpath in seen:
                continue
            seen.add(fpath)
            args = [a for a in entry.get("command", "").split()[1:]
                    if a not in ("-c", "-o", entry["file"])
                    and not a.endswith((".o", ".cpp"))]
            try:
                tu = idx.parse(fpath, args=args)
            except Exception as e:  # parse failure: degrade, don't die
                print(f"analyze: libclang skipped {fpath}: {e}",
                      file=sys.stderr)
                continue
            self.m.stats["files"] += 1
            rel = os.path.relpath(fpath, src_root)
            with open(fpath, encoding="utf-8", errors="replace") as f:
                text = f.read()
            for lno, line in enumerate(text.splitlines(), 1):
                am = ALLOW_RE.search(line)
                if am:
                    self.m.allows.setdefault(rel, {}).setdefault(
                        lno, []).append(
                            (am.group(1), (am.group(2) or "").strip()))
            self._walk_tu(tu.cursor, fpath, root, src_root)

    def _qname(self, cur):
        parts, c = [], cur
        while c is not None and c.kind != self.ci.CursorKind.TRANSLATION_UNIT:
            if c.spelling and c.kind != self.ci.CursorKind.NAMESPACE:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def _walk_tu(self, cur, fpath, root, src_root):
        K = self.ci.CursorKind
        fn_kinds = (K.CXX_METHOD, K.FUNCTION_DECL, K.CONSTRUCTOR,
                    K.DESTRUCTOR, K.LAMBDA_EXPR)
        stack = [cur]
        while stack:
            c = stack.pop()
            if c.kind in fn_kinds and c.is_definition() and \
                    c.location.file and \
                    str(c.location.file).startswith(src_root):
                rel = os.path.relpath(str(c.location.file), src_root)
                if rel in SKIP_FILES:
                    continue
                self._scan_fn_cursor(c, rel)
                continue  # _scan_fn_cursor recurses into lambdas itself
            stack.extend(list(c.get_children()))

    def _scan_fn_cursor(self, cur, rel, qname=None):
        K = self.ci.CursorKind
        if qname is None:
            qname = self._qname(cur) or f"<fn@{cur.location.line}>"
        fn = Fn(qname, rel, cur.location.line)
        loops = []
        acq_for_var = {}

        def walk(c, loop_depth):
            for ch in c.get_children():
                k = ch.kind
                if k == K.LAMBDA_EXPR:
                    self._scan_fn_cursor(
                        ch, rel, qname + f"::<lambda:{ch.location.line}>")
                    continue
                if k in (K.FOR_STMT, K.WHILE_STMT, K.DO_STMT,
                         K.CXX_FOR_RANGE_STMT):
                    walk(ch, loop_depth + 1)
                    continue
                if k == K.VAR_DECL and any(
                        g in ch.type.spelling for g in self.GUARD_TYPES):
                    lock = self._lock_of(ch)
                    if lock:
                        parent_end = c.extent.end.offset
                        a = Acq(lock, ch.spelling, ch.location.line,
                                [(ch.extent.end.offset, parent_end)],
                                loop_depth > 0)
                        fn.acqs.append(a)
                        acq_for_var[ch.spelling] = a
                        self.m.stats["acquisitions"] += 1
                        if loop_depth > 0:
                            fn.ops.append(Op(
                                "shard-scan", ch.location.line,
                                ch.location.offset,
                                f"acquires {lock} inside a loop"))
                    walk(ch, loop_depth)
                    continue
                if k == K.CALL_EXPR:
                    self._call(fn, ch, acq_for_var)
                walk(ch, loop_depth)

        body = None
        for ch in cur.get_children():
            if ch.kind == K.COMPOUND_STMT:
                body = ch
        if body is not None:
            walk(body, 0)
        self.m.add_fn(fn)

    def _lock_of(self, var_cursor):
        K = self.ci.CursorKind
        for c in var_cursor.walk_preorder():
            if c.kind in (K.MEMBER_REF_EXPR, K.DECL_REF_EXPR) and \
                    c.referenced is not None and \
                    "mutex" in (c.referenced.type.spelling or "").lower():
                owner = c.referenced.semantic_parent
                if owner is not None and owner.kind in (
                        K.CLASS_DECL, K.STRUCT_DECL):
                    return f"{self._qname(owner)}::{c.referenced.spelling}"
                return f"{self._qname(var_cursor.semantic_parent)}::" \
                       f"{c.referenced.spelling}"
        return None

    def _call(self, fn, c, acq_for_var):
        K = self.ci.CursorKind
        name = c.spelling or ""
        ref = c.referenced
        line, off = c.location.line, c.location.offset
        if name in ("unlock", "lock"):
            for ch in c.walk_preorder():
                if ch.kind == K.DECL_REF_EXPR and \
                        ch.spelling in acq_for_var:
                    a = acq_for_var[ch.spelling]
                    if name == "unlock" and a.ranges:
                        s, e = a.ranges[-1]
                        a.ranges[-1] = (s, off)
                    elif name == "lock":
                        a.ranges.append((off, a.ranges[0][1]
                                         if a.ranges else off))
            return
        qn = self._qname(ref) if ref is not None else ""
        if name in ("send", "recv", "connect", "accept", "poll", "select",
                    "getaddrinfo") and (not qn or "::" not in qn):
            fn.ops.append(Op("socket-io", line, off, f"::{name}()"))
            return
        if qn.startswith("smt::") or qn == "Synthesizer::run":
            fn.ops.append(Op("smt-solve", line, off, qn + "()"))
            return
        if name == "join":
            fn.ops.append(Op("thread-join", line, off, "join()"))
            return
        is_cb = False
        if name == "operator()" and ref is not None and \
                "function" in self._qname(ref.semantic_parent):
            is_cb = True
            fn.ops.append(Op("callback-invoke", line, off,
                             "call through std::function"))
        is_wait = name in WAIT_NAMES
        released = set()
        if is_wait:
            for ch in c.walk_preorder():
                if ch.kind == K.DECL_REF_EXPR and \
                        ch.spelling in acq_for_var:
                    a = acq_for_var[ch.spelling]
                    if a.active_at(off):
                        released.add(a.lock)
        targets = [qn] if qn and not is_cb else []
        if is_wait and (released or not targets):
            fn.ops.append(Op("cv-wait", line, off, f"{name}() wait",
                             released=released))
        if not targets and not is_cb and not is_wait:
            self.m.stats["unresolved_calls"] += 1
        call = Call(name, targets, line, off, "", is_wait, is_cb)
        call.released = frozenset(released)
        fn.calls.append(call)


# ---------------------------------------------------------------------------
# Driver

def scan_tree_regex(root):
    model = Model()
    fe = RegexFrontend(model)
    src = os.path.join(root, "src")
    files = []
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if name.endswith((".h", ".cpp", ".inc")):
                rel = os.path.relpath(os.path.join(dirpath, name), src)
                if rel not in SKIP_FILES:
                    files.append((rel, os.path.join(dirpath, name)))
    # headers first so classes/aliases/REQUIRES exist before bodies
    files.sort(key=lambda rf: (not rf[0].endswith(".h"), rf[0]))
    stripped_by_rel = {}
    for rel, path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        stripped_by_rel[rel] = fe.scan_file(rel, text)
    for rel, path in files:
        fe.scan_functions(rel, stripped_by_rel[rel])
    return model

def scan_tree_libclang(root, cc_path):
    model = Model()
    fe = LibclangFrontend(model)
    fe.scan(root, cc_path)
    return model

def analyze_model(model):
    an = Analyzer(model)
    return an.run()

def report(findings, stale, stats, frontend, json_out=None):
    new = [f for f in findings if not f.baselined]
    base = [f for f in findings if f.baselined]
    for f in new:
        print(f)
    if base:
        print(f"\nanalyze: {len(base)} baselined finding(s) "
              "(accepted debt, burn down via tools/analyze/baseline.json):")
        for f in base:
            print(f"  {f.rel}:{f.line}: [{f.rule}] {f.detail}")
    for k in sorted(stale):
        print(f"analyze: warning: stale baseline entry (fixed? remove it): "
              f"{k}", file=sys.stderr)
    if json_out:
        data = {"version": 1, "frontend": frontend, "stats": stats,
                "findings": [{
                    "rule": f.rule, "file": f.rel, "line": f.line,
                    "function": f.fnq, "detail": f.detail, "key": f.key,
                    "witness": f.witness, "baselined": f.baselined,
                } for f in findings]}
        with open(json_out, "w", encoding="utf-8") as f:
            json.dump(data, f, indent=2)
            f.write("\n")
    s = stats
    print(f"analyze[{frontend}]: {s['files']} file(s), "
          f"{s['functions']} function(s), {s['acquisitions']} lock "
          f"acquisition(s), {s['unresolved_calls']} unresolved call(s) "
          f"skipped; {len(new)} new finding(s), {len(base)} baselined")
    return 1 if new else 0


def self_test(root):
    """Fixture suite: tests/tools/analyze/<name>.cpp paired with
    <name>.expect (`rule:line` per expected NEW finding; empty = clean).
    A <name>.baseline.json rides along to pin baseline-suppression
    semantics. Runs the regex frontend — the pinned reference."""
    fixdir = os.path.join(root, "tests", "tools", "analyze")
    failures, cases = [], 0
    for name in sorted(os.listdir(fixdir)):
        if not name.endswith((".cpp", ".h")):
            continue
        cases += 1
        path = os.path.join(fixdir, name)
        stem = os.path.splitext(path)[0]
        expected = set()
        with open(stem + ".expect", encoding="utf-8") as f:
            for raw in f:
                raw = raw.strip()
                if raw and not raw.startswith("#"):
                    expected.add(raw)
        model = Model()
        fe = RegexFrontend(model)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        stripped = fe.scan_file(name, text)
        fe.scan_functions(name, stripped)
        findings = analyze_model(model)
        baseline = load_baseline(stem + ".baseline.json")
        new, _ = apply_baseline(findings, baseline)
        got = {f"{f.rule}:{f.line}" for f in new}
        if got != expected:
            failures.append(f"{name}: expected {sorted(expected)!r}, "
                            f"got {sorted(got)!r}")
    if failures:
        print("analyze self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print(f"analyze self-test: {cases} fixture(s) passed")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    default_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--root", default=default_root)
    ap.add_argument("--frontend", choices=["auto", "regex", "libclang"],
                    default="regex")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json (libclang frontend; "
                    "default: <root>/build/compile_commands.json)")
    ap.add_argument("--baseline", default=None,
                    help="default: tools/analyze/baseline.json")
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--json", dest="json_out", default=None)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(args.root)

    frontend = args.frontend
    if frontend in ("auto", "libclang"):
        try:
            import clang.cindex  # noqa: F401
            frontend = "libclang"
        except ImportError:
            if args.frontend == "libclang":
                print("analyze: error: --frontend libclang requested but "
                      "the clang Python bindings are not installed "
                      "(pip install libclang)", file=sys.stderr)
                return 2
            print("analyze: note: clang bindings unavailable, using the "
                  "regex frontend (degraded mode; see docstring)",
                  file=sys.stderr)
            frontend = "regex"

    if frontend == "libclang":
        cc = args.compile_commands or os.path.join(
            args.root, "build", "compile_commands.json")
        if not os.path.exists(cc):
            print(f"analyze: error: {cc} not found (configure with cmake "
                  "first, or pass --compile-commands)", file=sys.stderr)
            return 2
        model = scan_tree_libclang(args.root, cc)
    else:
        model = scan_tree_regex(args.root)

    findings = analyze_model(model)
    bpath = args.baseline or os.path.join(args.root, "tools", "analyze",
                                          "baseline.json")
    if args.update_baseline:
        save_baseline(bpath, findings)
        print(f"analyze: wrote {len(findings)} key(s) to {bpath}")
        return 0
    baseline = load_baseline(bpath)
    _, stale = apply_baseline(findings, baseline)
    return report(findings, stale, model.stats, frontend, args.json_out)


if __name__ == "__main__":
    sys.exit(main())
