#!/usr/bin/env python3
"""gekko-lint: project concurrency invariants clang cannot express.

Run as `ctest -L lint` (or directly: tools/gekko-lint.py [repo-root]).
Exit 0 = clean, 1 = violations (printed one per line, grep-style).

Rules
-----
bare-mutex       std::mutex / std::shared_mutex / std::lock_guard /
                 std::unique_lock / std::scoped_lock /
                 std::condition_variable[_any] are forbidden in src/.
                 Use the annotated wrappers from
                 src/common/thread_annotations.h (gekko::Mutex,
                 LockGuard, UniqueLock, CondVar, ...), which carry
                 Clang Thread Safety capabilities and lockdep
                 instrumentation. Exempt: thread_annotations.h itself
                 and lockdep.{h,cpp} (the instrumentation layer), plus
                 any line tagged `// lint-ok: bare-mutex — <why>`.

relaxed          std::memory_order_relaxed is only allowed in files
                 that carry a `// relaxed-ok: <justification>` comment
                 explaining why relaxed ordering is sufficient.

blocking-in-net  sleep_for / sleep( / usleep( / nanosleep( in
                 src/net/ or src/rpc/ (fabric reader/acceptor/event-loop
                 threads, which also run engine delivery, and handler
                 paths) must be tagged `// blocking-ok: <why>` on the
                 same line — a sleep on a delivering thread stalls every
                 in-flight RPC.

include-hygiene  every header under src/ starts with #pragma once;
                 no file includes the same header twice; any file
                 using the GEKKO_* annotation macros or gekko lock
                 wrappers includes common/thread_annotations.h itself
                 (not via a transitive include that may go away).

metric-name      metric family names handed to Registry
                 counter()/gauge()/histogram() as full string literals
                 must be lowercase dot-separated
                 (`^[a-z0-9_]+(\\.[a-z0-9_]+)*$`) so the Prometheus
                 mangling (dots -> underscores, `gekko_` prefix) stays
                 collision-free and predictable. Additionally, the
                 `_bucket` histogram-series suffix may not appear in
                 string literals outside src/common/prometheus.* —
                 cumulative bucket series must come from prom::render(),
                 never be hand-rolled. Tag deliberate exceptions
                 `// metric-name-ok: <why>`.

batch-status     the BatchStatus wire enum (src/proto/messages.h) has
                 TWO conversion sites — batch_status_from_errc (daemon
                 encode) and batch_status_to_errc (client decode).
                 Every enumerator must appear in BOTH switch bodies:
                 an enumerator added to the enum but missing from one
                 side silently collapses that outcome to the io_error
                 catch-all on the wire.

status-discard   `(void)call(...)` in src/ silences the [[nodiscard]]
                 on Status/Result and must say why:
                 `// status-ignored-ok: <why>` on the same line or the
                 line directly above. Global-namespace calls
                 (`(void)::close(fd)`) are exempt — libc returns
                 errno-style ints, not Status, and the cast only mutes
                 -Wunused-result.

signal-safety    src/common/crash.cpp runs inside fatal-signal
                 handlers. Outside the region bracketed by the
                 `// crash-setup-begin` / `// crash-setup-end` marker
                 comments (install-time code, where anything goes), a
                 curated list of async-signal-UNSAFE constructs is
                 banned: allocation (malloc/free/new), stdio
                 formatting/streams (printf family, fopen, fflush),
                 std::string/std::vector/std::to_string, container
                 mutation (push_back/append/insert/resize), getenv,
                 GEKKO_LOG/log::write, and lock guards. Deliberate
                 exceptions tag the line `// signal-safe-ok: <why>`.
                 Both markers must be present exactly once.

span-name        span names handed to the tracer must be string
                 literals: TraceSpan::name stores the pointer, never a
                 copy, so a dynamically built name dangles once the
                 ring outlives the caller. Checked at Tracer record()
                 call sites (first argument must be a quoted literal)
                 and at trace::ScopedSpan / OpTrace construction sites
                 (the call must carry a literal). Forwarding helpers
                 that re-emit a literal received as a parameter tag the
                 line `// span-name-ok: <why>`.
"""

from __future__ import annotations

import os
import re
import sys

BARE_MUTEX = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard"
    r"|unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b")
RELAXED = re.compile(r"\bmemory_order_relaxed\b")
BLOCKING = re.compile(r"\b(sleep_for|sleep\s*\(|usleep\s*\(|nanosleep\s*\()")
ANNOTATION_USE = re.compile(
    r"\bGEKKO_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|ACQUIRE"
    r"|RELEASE|EXCLUDES|CAPABILITY|SCOPED_CAPABILITY)\b|"
    r"\b(gekko::)?(Mutex|SharedMutex|LockGuard|WriteLockGuard"
    r"|SharedLockGuard|UniqueLock|CondVar)\b")
INCLUDE = re.compile(r'^\s*#\s*include\s+["<]([^">]+)[">]')
# A discarded call result: `(void)` followed by a call expression.
# `::`-qualified callees (raw libc/syscalls) are exempt; a bare
# identifier, member access, or namespaced gekko call is not.
STATUS_DISCARD = re.compile(r"\(void\)\s*(?!::)[A-Za-z_](?:[\w.:]|->|\(\))*\(")
# A record() call on a tracer-ish receiver: `tracer.record(`,
# `tracer_->record(`, `engine_->tracer().record(`,
# `Tracer::global().record(`. Histogram/counter record() calls have
# non-tracer receivers and are not matched.
SPAN_RECORD = re.compile(
    r"(?:\b[Tt]racer\w*(?:\(\))?(?:\.|->)|\bTracer::global\(\)\.)"
    r"record\s*\(")
# A ScopedSpan/OpTrace RAII span being constructed (named variable).
SPAN_SCOPED = re.compile(r"\b(?:ScopedSpan|OpTrace)\s+\w+\s*\(")
# A Registry intern call whose family name is one complete string
# literal (closed by `)` or `,`). Dynamically composed names
# (`"rpc.caller." + op + ".sent"`) are skipped: the literal is only a
# prefix. counter_or()/gauge_or() lookups don't match.
METRIC_INTERN = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"\s*[),]")
METRIC_NAME_OK = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
BUCKET_LITERAL = re.compile(r'"[^"]*_bucket[^"]*"')
# prom::render()/parse() are the one implementation allowed to spell
# the histogram exposition suffixes.
BUCKET_EXEMPT = {
    "src/common/prometheus.h",
    "src/common/prometheus.cpp",
}

# The crash translation unit: everything outside its setup region must
# stay async-signal-safe (write/fsync/clock_gettime/sigaction-family
# plus the sfmt helpers only).
CRASH_FILE = "src/common/crash.cpp"
CRASH_SETUP_BEGIN = "// crash-setup-begin"
CRASH_SETUP_END = "// crash-setup-end"
SIGNAL_UNSAFE = re.compile(
    r"\b(malloc|calloc|realloc|free|printf|fprintf|sprintf|snprintf"
    r"|vsnprintf|puts|fputs|putchar|fopen|fclose|fflush|fwrite|fread"
    r"|getenv|setenv|exit|abort|syslog|backtrace_symbols"  # (not .._fd)
    r"|std::to_string|push_back|emplace_back|insert|resize|reserve"
    r")\s*\(|"
    r"\bnew\b|\bdelete\b|"
    r"\bstd::(string|vector|map|set|ostringstream|cout|cerr)\b|"
    r"\bGEKKO_(LOG|TRACE|DEBUG|INFO|WARN|ERROR)\b|"
    r"\b(LockGuard|UniqueLock|SharedLockGuard|WriteLockGuard)\b|"
    r"\blog::write\b")

# The instrumentation layer itself is the only place bare primitives
# may live.
BARE_MUTEX_EXEMPT = {
    "src/common/thread_annotations.h",
    "src/common/lockdep.h",
    "src/common/lockdep.cpp",
}

SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc")


def strip_strings(line: str) -> str:
    """Blank out string/char literals so tokens inside them don't match."""
    out, i, n, quote = [], 0, len(line), None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
            i += 1
            continue
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def code_of(line: str) -> str:
    """The code part of a line: literals blanked, // comment removed."""
    s = strip_strings(line)
    cut = s.find("//")
    return s[:cut] if cut >= 0 else s


def comment_pos(line: str) -> int:
    """Index of the `//` starting a comment (quote-aware), or -1."""
    i, n, quote = 0, len(line), None
    while i < n:
        c = line[i]
        if quote:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                quote = None
        elif c in "\"'":
            quote = c
        elif c == "/" and i + 1 < n and line[i + 1] == "/":
            return i
        i += 1
    return -1


def lint_file(root: str, rel: str, errors: list[str]) -> None:
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError as e:
        errors.append(f"{rel}: unreadable: {e}")
        return
    text = "".join(lines)
    is_header = rel.endswith((".h", ".hpp"))
    in_net_layer = rel.startswith(("src/net/", "src/rpc/"))
    has_relaxed_ok = "// relaxed-ok:" in text

    includes_seen: dict[str, int] = {}
    uses_annotations = False
    includes_thread_annotations = False
    saw_pragma_once = False
    saw_include_before_pragma = False
    is_crash_file = rel == CRASH_FILE
    in_crash_setup = False
    crash_markers = {CRASH_SETUP_BEGIN: 0, CRASH_SETUP_END: 0}

    for lineno, raw in enumerate(lines, 1):
        code = code_of(raw)

        if is_crash_file:
            if CRASH_SETUP_BEGIN in raw:
                crash_markers[CRASH_SETUP_BEGIN] += 1
                in_crash_setup = True
            elif CRASH_SETUP_END in raw:
                crash_markers[CRASH_SETUP_END] += 1
                in_crash_setup = False
            elif not in_crash_setup and "signal-safe-ok:" not in raw:
                m = SIGNAL_UNSAFE.search(code)
                if m:
                    errors.append(
                        f"{rel}:{lineno}: signal-safety: "
                        f"'{m.group(0).strip()}' is not async-signal-safe "
                        f"and this line is outside the crash-setup "
                        f"region (the fatal handler may run it); move it "
                        f"inside the markers or tag the line "
                        f"`// signal-safe-ok: <why>` — {raw.strip()}")

        m = INCLUDE.match(raw)
        if m:
            inc = m.group(1)
            if inc in includes_seen:
                errors.append(
                    f"{rel}:{lineno}: include-hygiene: duplicate #include "
                    f"\"{inc}\" (first at line {includes_seen[inc]})")
            else:
                includes_seen[inc] = lineno
            if inc == "common/thread_annotations.h":
                includes_thread_annotations = True
            if not saw_pragma_once:
                saw_include_before_pragma = True

        if re.match(r"^\s*#\s*pragma\s+once\b", raw):
            saw_pragma_once = True

        if ANNOTATION_USE.search(code):
            uses_annotations = True

        if BARE_MUTEX.search(code):
            if rel in BARE_MUTEX_EXEMPT or "lint-ok: bare-mutex" in raw:
                pass
            else:
                errors.append(
                    f"{rel}:{lineno}: bare-mutex: use the annotated "
                    f"wrappers from common/thread_annotations.h "
                    f"(gekko::Mutex/LockGuard/UniqueLock/CondVar) — "
                    f"{raw.strip()}")

        if STATUS_DISCARD.search(code) and \
                "status-ignored-ok:" not in raw and \
                "status-ignored-ok:" not in (lines[lineno - 2]
                                             if lineno >= 2 else ""):
            errors.append(
                f"{rel}:{lineno}: status-discard: (void)-casting a call "
                f"silences [[nodiscard]] on Status/Result; say why with "
                f"`// status-ignored-ok: <why>` on this line or the one "
                f"above — {raw.strip()}")

        if RELAXED.search(code) and not has_relaxed_ok:
            errors.append(
                f"{rel}:{lineno}: relaxed: memory_order_relaxed without a "
                f"file-level `// relaxed-ok: <justification>` comment")

        if "span-name-ok:" not in raw:
            m = SPAN_RECORD.search(code)
            if m and not code[m.end():].lstrip().startswith('"'):
                errors.append(
                    f"{rel}:{lineno}: span-name: tracer record() must be "
                    f"called with a string-literal span name (TraceSpan "
                    f"stores the pointer); tag forwarding helpers "
                    f"`// span-name-ok: <why>` — {raw.strip()}")
            m = SPAN_SCOPED.search(code)
            if m and '"' not in code[m.end():]:
                errors.append(
                    f"{rel}:{lineno}: span-name: ScopedSpan/OpTrace must "
                    f"be constructed with a string-literal span name — "
                    f"{raw.strip()}")

        if "metric-name-ok:" not in raw:
            # Comments stripped, literals kept: the name rules inspect
            # the literals themselves.
            cpos = comment_pos(raw)
            literal_code = raw[:cpos] if cpos >= 0 else raw
            for m in METRIC_INTERN.finditer(literal_code):
                name = m.group(1)
                if not METRIC_NAME_OK.match(name):
                    errors.append(
                        f"{rel}:{lineno}: metric-name: family '{name}' must "
                        f"be lowercase dot-separated "
                        f"([a-z0-9_]+(.[a-z0-9_]+)*); tag deliberate "
                        f"exceptions `// metric-name-ok: <why>`")
            if rel not in BUCKET_EXEMPT and \
                    BUCKET_LITERAL.search(literal_code):
                errors.append(
                    f"{rel}:{lineno}: metric-name: `_bucket` series must "
                    f"be produced by prom::render(), never hand-rolled "
                    f"(only src/common/prometheus.* may spell it); tag "
                    f"deliberate exceptions `// metric-name-ok: <why>` — "
                    f"{raw.strip()}")

        if in_net_layer and BLOCKING.search(code) and \
                "blocking-ok:" not in raw:
            errors.append(
                f"{rel}:{lineno}: blocking-in-net: sleep on a fabric/rpc "
                f"thread stalls every in-flight RPC; tag the line "
                f"`// blocking-ok: <why>` if it is genuinely off the "
                f"delivery path — {raw.strip()}")

    if is_crash_file:
        for marker, count in crash_markers.items():
            if count != 1:
                errors.append(
                    f"{rel}:1: signal-safety: expected exactly one "
                    f"`{marker}` marker, found {count} — the rule cannot "
                    f"tell handler code from setup code without it")

    if is_header and not saw_pragma_once:
        errors.append(f"{rel}:1: include-hygiene: header missing #pragma once")
    if is_header and saw_pragma_once and saw_include_before_pragma:
        errors.append(
            f"{rel}:1: include-hygiene: #include before #pragma once")
    if uses_annotations and not includes_thread_annotations and \
            rel not in ("src/common/thread_annotations.h",):
        errors.append(
            f"{rel}:1: include-hygiene: uses thread-safety annotations or "
            f"gekko lock wrappers but does not include "
            f"common/thread_annotations.h directly")


BATCH_STATUS_FILE = "src/proto/messages.h"


def brace_body(text: str, start: int) -> str:
    """The text between the brace at `start` and its matching close."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
    return text[start + 1:]


def lint_batch_status(root: str, errors: list[str]) -> None:
    """Every BatchStatus enumerator appears in both conversion sites."""
    rel = BATCH_STATUS_FILE
    try:
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            text = f.read()
    except OSError as e:
        errors.append(f"{rel}: batch-status: unreadable: {e}")
        return
    enum_m = re.search(r"enum\s+class\s+BatchStatus[^{]*\{", text)
    if not enum_m:
        errors.append(f"{rel}: batch-status: enum class BatchStatus not "
                      f"found (rule needs updating if it moved)")
        return
    enum_body = brace_body(text, enum_m.end() - 1)
    decommented = " ".join(code_of(l) for l in enum_body.splitlines())
    enumerators = []
    for entry in decommented.split(","):
        name = entry.split("=")[0].strip()
        if name:
            enumerators.append(name)
    if not enumerators:
        errors.append(f"{rel}: batch-status: no enumerators parsed from "
                      f"BatchStatus")
        return
    for fn in ("batch_status_from_errc", "batch_status_to_errc"):
        fn_m = re.search(re.escape(fn) + r"\s*\([^)]*\)\s*\{", text)
        if not fn_m:
            errors.append(f"{rel}: batch-status: conversion function "
                          f"{fn}() not found")
            continue
        body = brace_body(text, fn_m.end() - 1)
        lineno = text[:fn_m.start()].count("\n") + 1
        for name in enumerators:
            if not re.search(r"\bBatchStatus::" + name + r"\b", body):
                errors.append(
                    f"{rel}:{lineno}: batch-status: enumerator "
                    f"BatchStatus::{name} is not handled in {fn}() — "
                    f"encode and decode sites must map every status "
                    f"explicitly or the outcome collapses to io_error")


def main(argv: list[str]) -> int:
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"gekko-lint: no src/ under {root}", file=sys.stderr)
        return 2

    errors: list[str] = []
    checked = 0
    for dirpath, _dirnames, filenames in sorted(os.walk(src)):
        for name in sorted(filenames):
            if not name.endswith(SOURCE_EXTS):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            rel = rel.replace(os.sep, "/")
            lint_file(root, rel, errors)
            checked += 1
    lint_batch_status(root, errors)

    for e in errors:
        print(e)
    print(f"gekko-lint: {checked} files checked, {len(errors)} violation(s)",
          file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
