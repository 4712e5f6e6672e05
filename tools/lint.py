#!/usr/bin/env python3
"""Project-invariant lint for lsmstats.

Enforces rules clang-tidy cannot express, or that must hold even when
clang-tidy is unavailable:

  raw-new        no raw `new` in src/ unless it is immediately owned by a
                 unique_ptr/shared_ptr (factory over a private constructor)
                 or is an intentionally leaked function-local static registry.
  raw-delete     no `delete` expressions in src/ at all.
  nodiscard      every Status/StatusOr-returning function declared in a src/
                 header carries [[nodiscard]].
  void-drop      a `(void)call(...)` discard must carry a justification
                 comment on the same line or the line above.
  include-cc     no `#include` of a `.cc` file.
  banned-func    no `rand(`, `srand(`, `time(` in src/ — use common/random.h
                 and injected clocks so runs stay reproducible.
  getenv         no `getenv` / `secure_getenv` in src/ — options come only
                 from LsmTreeOptions / DatasetOptions, never from the process
                 environment, so one place decides how the engine runs.
                 Not suppressible with lint:allow.
  seeded-random  no <random> engines or entropy sources (mt19937,
                 random_device, ...) in src/ or bench/ outside
                 common/random.* — all randomness flows through the
                 seedable common/random.h API so every figure reproduces.
  header-guard   every header uses `#ifndef LSMSTATS_<PATH>_H_` guards that
                 match its path (src/ prefix stripped), with a matching
                 `#define` and a `#endif  // <GUARD>` trailer; no
                 `#pragma once`.
  env-bypass     no direct filesystem syscalls (`::open`, `::rename`,
                 `::fsync`, `::unlink`, `::mkdir`, `::truncate`, ...) or
                 `std::filesystem` in src/ outside common/env.cc and
                 common/file.cc — storage I/O must flow through the Env
                 abstraction so fault injection and crash tests see every
                 mutation. Socket-style `::read`/`::write`/`::close` are
                 not banned (the workload feed uses them on sockets).
  wal-io         no `.wal` string literals in src/ outside src/lsm/wal.cc —
                 WAL segment naming, framing, and file access are confined
                 to the WAL module so the log format has exactly one
                 reader/writer and recovery rules stay in one place.
  wal-owner      a `WalLog` is constructed only in src/db/dataset.cc (the
                 WAL module itself and tests/ are exempt) — the dataset is
                 the one owner of a write-ahead log, so an index tree, a
                 bench or an example never grows a second log stream.
  component-writer  a `DiskComponentBuilder` is constructed at exactly one
                 place in src/: LsmTree::BuildComponents in
                 src/lsm/lsm_tree.cc, the one writer behind flush, merge and
                 bulkload (the builder's own disk_component.* and tests/ and
                 bench/ are exempt) — so every component is announced to the
                 statistics listeners the same way and no second build loop
                 can drift from the first.
  range-count    a `MergeCursor` is constructed only under src/lsm/
                 (tests/ and bench/ are exempt) — range reads and counts go
                 through LsmTree::Scan / ScanCount, so db/, stats/ and
                 cluster/ never grow a hand-rolled counting loop beside the
                 tree's keys-only count.
  background-error  `background_error_` is assigned only inside the
                 designated LsmTree setters (SetBackgroundErrorLocked /
                 ClearBackgroundErrorLocked) — every other mutation would
                 bypass the mode machine, the health counters, and the
                 auto-recovery scheduling that those setters keep in sync.
  merge-policy   merge-policy implementations (subclasses of MergePolicy)
                 live in src/lsm/merge_policy.* only, and those two files
                 stay pure decision functions: no Env, no Mutex/locks, no
                 scheduler — PickMerge must be a side-effect-free function
                 of the component metadata so policies are trivially
                 testable and callable under the tree lock.
  memory-budget  runtime budget knobs (LsmTree::SetMemTableMaxBytes /
                 SetBloomBitsPerKey, BlockCache::SetCapacity,
                 CardinalityEstimator::SetCacheByteBudget) are invoked in
                 src/ only from src/db/memory_arbiter.* — every live
                 resize flows through the arbiter so one module owns the
                 global memory split and grants stay explainable from a
                 single Snapshot(). (Tests and benches may call the
                 setters directly.)
  raw-mutex      no `std::mutex` / `std::lock_guard` / `std::unique_lock` /
                 `std::scoped_lock` / `std::condition_variable` /
                 `std::shared_mutex` in src/ outside src/common/mutex.* —
                 all locking goes through the annotated Mutex/MutexLock/
                 CondVar wrappers so thread-safety analysis and the debug
                 lock-rank checker see every acquisition.

Suppressing a finding: append `// lint:allow(<rule>)` to the offending line
together with a reason, e.g.
    ptr = new Node;  // lint:allow(raw-new) arena block, freed in Reset()

Exits non-zero and prints file:line findings when anything is violated.
Wired as the ctest test `lint.project_invariants`; CI runs it on every PR.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
ALLOW_RE = re.compile(r"//\s*lint:allow\((?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

findings: list[str] = []


def report(path: Path, lineno: int, rule: str, message: str) -> None:
    findings.append(f"{path.relative_to(REPO)}:{lineno}: [{rule}] {message}")


def allowed(line: str, rule: str) -> bool:
    m = ALLOW_RE.search(line)
    if not m:
        return False
    return rule in [r.strip() for r in m.group("rules").split(",")]


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_files(dirs: list[str], suffixes: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for d in dirs:
        root = REPO / d
        if root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*")) if p.suffix in suffixes
            )
    return files


# --------------------------------------------------------------- raw new/delete

NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` is still caught below
DELETE_RE = re.compile(r"\bdelete\b")
# `= delete` / `= delete("...")` is declaration syntax, not a delete expression.
DELETED_FN_RE = re.compile(r"=\s*delete\b")
OWNED_CONTEXT_RE = re.compile(r"unique_ptr|shared_ptr|static\s")


def check_raw_new_delete(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    for idx, code in enumerate(code_lines):
        lineno = idx + 1
        if (DELETE_RE.search(code) and not DELETED_FN_RE.search(code)
                and not allowed(raw_lines[idx], "raw-delete")):
            report(path, lineno, "raw-delete",
                   "raw `delete` — ownership belongs in smart pointers")
        if NEW_RE.search(code) or re.search(r"\bnew\s*\(", code):
            if allowed(raw_lines[idx], "raw-new"):
                continue
            # A `new` is fine when the same statement hands it to a smart
            # pointer or it seeds an intentionally leaked static registry;
            # check a small window because factories split across lines.
            window = " ".join(code_lines[max(0, idx - 2): idx + 1])
            if OWNED_CONTEXT_RE.search(window):
                continue
            report(path, lineno, "raw-new",
                   "raw `new` outside smart-pointer/static-registry context")


# ----------------------------------------------------------------- nodiscard

STATUS_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+)?(?:static\s+)?(?:Status\s+[A-Za-z_]\w*\s*\(|StatusOr<.*>\s+[A-Za-z_]\w*\s*\()"
)


def check_nodiscard(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    for idx, code in enumerate(code_lines):
        if not STATUS_DECL_RE.match(code):
            continue
        if "nodiscard" in raw_lines[idx] or (idx > 0 and "nodiscard" in raw_lines[idx - 1]):
            continue
        if allowed(raw_lines[idx], "nodiscard"):
            continue
        report(path, idx + 1, "nodiscard",
               "Status/StatusOr-returning declaration missing [[nodiscard]]")


# ----------------------------------------------------------------- void-drop

VOID_DROP_RE = re.compile(r"\(void\)\s*[A-Za-z_][\w:.>-]*\s*\(")


def check_void_drop(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    for idx, code in enumerate(code_lines):
        if not VOID_DROP_RE.search(code):
            continue
        if allowed(raw_lines[idx], "void-drop"):
            continue
        has_comment = "//" in raw_lines[idx] or (
            idx > 0 and raw_lines[idx - 1].strip().startswith("//")
        )
        if not has_comment:
            report(path, idx + 1, "void-drop",
                   "`(void)` discard of a call needs a justification comment")


# ---------------------------------------------------------------- include-cc

INCLUDE_CC_RE = re.compile(r'#\s*include\s*[<"][^">]+\.cc[">]')


def check_include_cc(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    for idx, raw in enumerate(raw_lines):
        if INCLUDE_CC_RE.search(raw) and not allowed(raw, "include-cc"):
            report(path, idx + 1, "include-cc", "#include of a .cc file")


# --------------------------------------------------------------- banned-func

BANNED_RE = re.compile(r"(?<![\w.])(?:std::)?(rand|srand|time)\s*\(")


def check_banned(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    for idx, code in enumerate(code_lines):
        m = BANNED_RE.search(code)
        if m and not allowed(raw_lines[idx], "banned-func"):
            report(path, idx + 1, "banned-func",
                   f"`{m.group(1)}()` is banned in src/ — use common/random.h "
                   "or an injected clock (reproducibility)")


# -------------------------------------------------------------------- getenv

GETENV_RE = re.compile(r"(?<![\w.])(?:std::|::)?((?:secure_)?getenv)\s*\(")


def check_getenv(path: Path, code_lines: list[str]) -> None:
    for idx, code in enumerate(code_lines):
        m = GETENV_RE.search(code)
        if m:
            report(path, idx + 1, "getenv",
                   f"`{m.group(1)}()` in src/ — set the option on "
                   "LsmTreeOptions / DatasetOptions instead")


# ------------------------------------------------------------- seeded-random

# <random> engines and entropy sources. Distributions (uniform_int_distribution
# etc.) are deliberately not listed: they are deterministic transforms and the
# platform-independent ones are fine to use over a common/random.h engine.
SEEDED_RANDOM_RE = re.compile(
    r"\b(?:std::)?("
    r"mt19937(?:_64)?|minstd_rand0?|default_random_engine|random_device|"
    r"ranlux\d+(?:_base)?|knuth_b|subtract_with_carry_engine|"
    r"linear_congruential_engine|mersenne_twister_engine"
    r")\b"
)


def check_seeded_random(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    for idx, code in enumerate(code_lines):
        m = SEEDED_RANDOM_RE.search(code)
        if m and not allowed(raw_lines[idx], "seeded-random"):
            report(path, idx + 1, "seeded-random",
                   f"`{m.group(1)}` — randomness must flow through "
                   "common/random.h so seeds are explicit and runs reproduce")


# ---------------------------------------------------------------- env-bypass

# Filesystem mutation and file-I/O syscalls that must flow through Env so
# FaultInjectionEnv observes every mutating operation. `::read`/`::write`/
# `::close` are deliberately absent: src/workload uses them on sockets.
ENV_BYPASS_RE = re.compile(
    r"(?<![\w])::("
    r"open|openat|creat|rename|renameat|fsync|fdatasync|sync_file_range|"
    r"unlink|unlinkat|remove|mkdir|mkdirat|rmdir|truncate|ftruncate|"
    r"pread|pwrite|link|symlink"
    r")\s*\(|std\s*::\s*filesystem\b"
)

# The only files allowed to touch the filesystem directly: the Env interface
# and its Posix primitives.
ENV_IMPL_FILES = {"env.cc", "file.cc"}


def check_env_bypass(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path.parent == SRC / "common" and path.name in ENV_IMPL_FILES:
        return
    for idx, code in enumerate(code_lines):
        m = ENV_BYPASS_RE.search(code)
        if m and not allowed(raw_lines[idx], "env-bypass"):
            what = m.group(1) or "std::filesystem"
            report(path, idx + 1, "env-bypass",
                   f"direct filesystem access (`{what}`) — route storage I/O "
                   "through common/env.h so fault injection sees it")


# -------------------------------------------------------------------- wal-io

# A string literal mentioning the `.wal` suffix. Scanned over RAW lines (the
# code view blanks string literals) so constructing WAL paths outside the WAL
# module is caught.
WAL_IO_RE = re.compile(r'"[^"]*\.wal[^"]*"')

WAL_IMPL_FILES = {SRC / "lsm" / "wal.cc"}


def check_wal_io(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path in WAL_IMPL_FILES:
        return
    for idx, raw in enumerate(raw_lines):
        if WAL_IO_RE.search(raw) and not allowed(raw, "wal-io"):
            report(path, idx + 1, "wal-io",
                   "`.wal` literal outside src/lsm/wal.cc — WAL segment "
                   "naming and file access belong to the WAL module "
                   "(use WalFilePath / RecoverWalSegments)")


# ----------------------------------------------------------------- wal-owner

def construction_re(cls: str) -> re.Pattern[str]:
    """A construction of `cls`: make_unique/make_shared, `new`, a named
    object (`T x(...)` / `T x{...}`) or a temporary (`T(...)`). Scanned over
    the code view, so comments and strings never match."""
    return re.compile(
        rf"\bmake_(?:unique|shared)\s*<\s*(?:lsmstats\s*::\s*)?{cls}\s*>"
        rf"|\bnew\s+(?:lsmstats\s*::\s*)?{cls}\b"
        rf"|\b{cls}\s+\w+\s*[({{]"
        rf"|(?<![~:\w]){cls}\s*[({{]"
    )


WAL_OWNER_RE = construction_re("WalLog")

WAL_OWNER_FILES = {
    SRC / "db" / "dataset.cc",
    SRC / "lsm" / "wal.h",
    SRC / "lsm" / "wal.cc",
}


def check_wal_owner(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path in WAL_OWNER_FILES or (REPO / "tests") in path.parents:
        return
    for idx, code in enumerate(code_lines):
        if WAL_OWNER_RE.search(code) and not allowed(raw_lines[idx], "wal-owner"):
            report(path, idx + 1, "wal-owner",
                   "`WalLog` constructed outside src/db/dataset.cc — the "
                   "dataset is the only owner of a write-ahead log")


# ---------------------------------------------------------- component-writer

COMPONENT_WRITER_RE = construction_re("DiskComponentBuilder")

COMPONENT_WRITER_FILE = SRC / "lsm" / "lsm_tree.cc"
COMPONENT_WRITER_EXEMPT = {
    SRC / "lsm" / "disk_component.h",
    SRC / "lsm" / "disk_component.cc",
}


def check_component_writer(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path in COMPONENT_WRITER_EXEMPT:
        return
    seen_in_writer = 0
    for idx, code in enumerate(code_lines):
        if not COMPONENT_WRITER_RE.search(code) or allowed(raw_lines[idx], "component-writer"):
            continue
        if path == COMPONENT_WRITER_FILE:
            seen_in_writer += 1
            if seen_in_writer == 1:
                continue
            report(path, idx + 1, "component-writer",
                   "second `DiskComponentBuilder` construction in "
                   "src/lsm/lsm_tree.cc — flush, merge and bulkload share "
                   "LsmTree::BuildComponents")
        else:
            report(path, idx + 1, "component-writer",
                   "`DiskComponentBuilder` constructed outside "
                   "LsmTree::BuildComponents — components are written only "
                   "by the tree's one component writer")


# --------------------------------------------------------------- range-count

RANGE_COUNT_RE = construction_re("MergeCursor")


def check_range_count(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if (REPO / "tests") in path.parents or (REPO / "bench") in path.parents:
        return
    if (SRC / "lsm") in path.parents:
        return
    for idx, code in enumerate(code_lines):
        if RANGE_COUNT_RE.search(code) and not allowed(raw_lines[idx], "range-count"):
            report(path, idx + 1, "range-count",
                   "`MergeCursor` constructed outside src/lsm/ — count and "
                   "scan through LsmTree::ScanCount / Scan")


# ----------------------------------------------------------------- raw-mutex

# Raw standard-library synchronization primitives. Locking in src/ must use
# the annotated wrappers in common/mutex.h: they carry the Clang thread-safety
# capability attributes and the debug lock-rank checker, and a raw std::mutex
# is invisible to both. timed/recursive variants are matched by prefix.
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?"
    r")\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)

# The annotated wrapper itself is the one place allowed to touch std::mutex.
RAW_MUTEX_IMPL_FILES = {SRC / "common" / "mutex.h", SRC / "common" / "mutex.cc"}


def check_raw_mutex(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path in RAW_MUTEX_IMPL_FILES:
        return
    for idx, code in enumerate(code_lines):
        m = RAW_MUTEX_RE.search(code)
        if m and not allowed(raw_lines[idx], "raw-mutex"):
            what = m.group(1) or "<mutex>/<condition_variable> include"
            report(path, idx + 1, "raw-mutex",
                   f"raw `{what}` — use Mutex/MutexLock/CondVar from "
                   "common/mutex.h so the thread-safety annotations and the "
                   "lock-rank checker cover it")


# ------------------------------------------------------------- memory-budget

# A *call* (object->Set.../object.Set...) of a runtime budget knob. Plain
# declarations and the defining `ReturnType Class::SetX(...)` lines do not
# match — only invocation sites. Confined to the arbiter module so exactly
# one place in src/ decides how the global memory budget is split; ad-hoc
# resizes elsewhere would silently fight the arbiter's grants.
MEMORY_BUDGET_RE = re.compile(
    r"(?:->|\.)\s*("
    r"SetMemTableMaxBytes|SetBloomBitsPerKey|SetCapacity|SetCacheByteBudget"
    r")\s*\("
)

MEMORY_BUDGET_FILES = {
    SRC / "db" / "memory_arbiter.h",
    SRC / "db" / "memory_arbiter.cc",
}


def check_memory_budget(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path in MEMORY_BUDGET_FILES:
        return
    for idx, code in enumerate(code_lines):
        m = MEMORY_BUDGET_RE.search(code)
        if m and not allowed(raw_lines[idx], "memory-budget"):
            report(path, idx + 1, "memory-budget",
                   f"`{m.group(1)}` called outside src/db/memory_arbiter.* — "
                   "live budget resizes go through the MemoryArbiter so one "
                   "module owns the global memory split")


# -------------------------------------------------------------- merge-policy

# A class deriving from MergePolicy. Implementations are confined to
# src/lsm/merge_policy.* so there is exactly one place to audit the decision
# logic (tests may subclass freely).
MERGE_POLICY_SUBCLASS_RE = re.compile(r":\s*(?:public\s+)?MergePolicy\b")

# Impurity markers inside the policy module itself: environment access,
# locking, or scheduling would make PickMerge a stateful actor instead of a
# pure function of the metadata snapshot (it runs under the tree lock).
MERGE_POLICY_IMPURE_RE = re.compile(
    r"\bEnv\b|\bMutex\b|\bMutexLock\b|\bCondVar\b|\bLockRank\b|"
    r"\bBackgroundScheduler\b|->\s*Schedule\s*\("
)
# Matched against RAW lines (the code view blanks string literals).
MERGE_POLICY_INCLUDE_RE = re.compile(
    r'#\s*include\s*"(?:common/(?:env|mutex)|lsm/scheduler)\.h"'
)

MERGE_POLICY_FILES = {SRC / "lsm" / "merge_policy.h", SRC / "lsm" / "merge_policy.cc"}


def check_merge_policy(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    if path in MERGE_POLICY_FILES:
        for idx, code in enumerate(code_lines):
            if ((MERGE_POLICY_IMPURE_RE.search(code)
                 or MERGE_POLICY_INCLUDE_RE.search(raw_lines[idx]))
                    and not allowed(raw_lines[idx], "merge-policy")):
                report(path, idx + 1, "merge-policy",
                       "merge policies must stay pure decision functions — "
                       "no Env, locks, or scheduler in merge_policy.*")
        return
    for idx, code in enumerate(code_lines):
        if (MERGE_POLICY_SUBCLASS_RE.search(code)
                and not allowed(raw_lines[idx], "merge-policy")):
            report(path, idx + 1, "merge-policy",
                   "MergePolicy subclass outside src/lsm/merge_policy.* — "
                   "policy implementations live in the policy module")


# ----------------------------------------------------------- background-error

# An assignment to the background-error slot (not `==` comparison). Mutating
# it anywhere but the designated setters skips the healthy/recovering/
# read-only transitions, the health counters, and the recovery-job slot
# accounting those setters maintain.
BACKGROUND_ERROR_RE = re.compile(r"\bbackground_error_\s*=(?!=)")

# The designated setters, in the one file allowed to contain them.
BACKGROUND_ERROR_IMPL = SRC / "lsm" / "lsm_tree.cc"
BACKGROUND_ERROR_SETTERS = {"SetBackgroundErrorLocked", "ClearBackgroundErrorLocked"}
LSM_TREE_FN_RE = re.compile(r"\bLsmTree::(\w+)\s*\(")


def check_background_error(path: Path, raw_lines: list[str], code_lines: list[str]) -> None:
    current_fn = ""
    for idx, code in enumerate(code_lines):
        m = LSM_TREE_FN_RE.search(code)
        if m:
            current_fn = m.group(1)
        if not BACKGROUND_ERROR_RE.search(code):
            continue
        if allowed(raw_lines[idx], "background-error"):
            continue
        if path == BACKGROUND_ERROR_IMPL and current_fn in BACKGROUND_ERROR_SETTERS:
            continue
        report(path, idx + 1, "background-error",
               "`background_error_` assigned outside SetBackgroundErrorLocked/"
               "ClearBackgroundErrorLocked — use the setters so mode, health "
               "counters, and auto-recovery stay in sync")


# -------------------------------------------------------------- header-guard

def expected_guard(path: Path) -> str:
    rel = path.relative_to(REPO)
    parts = rel.parts[1:] if rel.parts[0] == "src" else rel.parts
    stem = "_".join(parts).replace(".", "_").replace("-", "_").upper()
    return f"LSMSTATS_{stem}_"


def check_header_guard(path: Path, raw_lines: list[str]) -> None:
    text = "\n".join(raw_lines)
    if "#pragma once" in text:
        lineno = next(i + 1 for i, l in enumerate(raw_lines) if "#pragma once" in l)
        report(path, lineno, "header-guard",
               "`#pragma once` — use LSMSTATS_*_H_ include guards")
        return
    guard = expected_guard(path)
    ifndef_idx = None
    for idx, line in enumerate(raw_lines):
        if line.startswith("#ifndef"):
            ifndef_idx = idx
            break
    if ifndef_idx is None:
        report(path, 1, "header-guard", f"missing `#ifndef {guard}` guard")
        return
    got = raw_lines[ifndef_idx].split()
    if len(got) < 2 or got[1] != guard:
        report(path, ifndef_idx + 1, "header-guard",
               f"guard is `{got[1] if len(got) > 1 else ''}`, expected `{guard}`")
        return
    define = raw_lines[ifndef_idx + 1].strip() if ifndef_idx + 1 < len(raw_lines) else ""
    if define != f"#define {guard}":
        report(path, ifndef_idx + 2, "header-guard",
               f"`#ifndef {guard}` not followed by `#define {guard}`")
    tail = [l.strip() for l in raw_lines if l.strip()]
    if not tail or not tail[-1].startswith("#endif") or guard not in tail[-1]:
        report(path, len(raw_lines), "header-guard",
               f"file must end with `#endif  // {guard}`")


# --------------------------------------------------------------------- main

def main() -> int:
    cc_and_h = iter_files(SOURCE_DIRS, (".cc", ".cpp", ".h"))
    src_only = [p for p in cc_and_h if SRC in p.parents]
    headers = [p for p in cc_and_h if p.suffix == ".h"]
    src_headers = [p for p in headers if SRC in p.parents]

    cache: dict[Path, tuple[list[str], list[str]]] = {}

    def lines_of(path: Path) -> tuple[list[str], list[str]]:
        if path not in cache:
            text = path.read_text(encoding="utf-8", errors="replace")
            cache[path] = (text.split("\n"), strip_comments_and_strings(text).split("\n"))
        return cache[path]

    for path in cc_and_h:
        raw, code = lines_of(path)
        check_include_cc(path, raw, code)
        check_void_drop(path, raw, code)
        check_wal_owner(path, raw, code)
        check_range_count(path, raw, code)
    for path in src_only:
        raw, code = lines_of(path)
        check_raw_new_delete(path, raw, code)
        check_banned(path, raw, code)
        check_getenv(path, code)
        check_env_bypass(path, raw, code)
        check_wal_io(path, raw, code)
        check_raw_mutex(path, raw, code)
        check_memory_budget(path, raw, code)
        check_merge_policy(path, raw, code)
        check_background_error(path, raw, code)
        check_component_writer(path, raw, code)
    random_impl = REPO / "src" / "common"
    for path in cc_and_h:
        if SRC not in path.parents and (REPO / "bench") not in path.parents:
            continue
        if path.parent == random_impl and path.stem == "random":
            continue
        raw, code = lines_of(path)
        check_seeded_random(path, raw, code)
    for path in src_headers:
        raw, code = lines_of(path)
        check_nodiscard(path, raw, code)
    for path in headers:
        raw, _ = lines_of(path)
        check_header_guard(path, raw)

    if findings:
        print(f"tools/lint.py: {len(findings)} finding(s)\n")
        for f in findings:
            print("  " + f)
        print("\nSuppress a single line with `// lint:allow(<rule>)` plus a reason;"
              "\nsee tools/lint.py docstring for the rule list.")
        return 1
    checked = len(cc_and_h)
    print(f"tools/lint.py: OK ({checked} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
