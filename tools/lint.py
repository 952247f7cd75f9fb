#!/usr/bin/env python3
"""Repo-convention linter (no third-party deps; stdlib only).

Rules enforced (see docs/correctness.md):
  include-root    quoted #includes must be repo-root-relative, i.e. start
                  with src/ or bench/ (system headers use <...>).
  new-packet      `new Packet` may appear nowhere: the pool constructs every
                  packet in place in its slab (src/net/packet_pool.cc), and
                  all other code allocates via PacketPool::Allocate so
                  poisoning / pooling stay airtight.
                  Suppress a sanctioned site with `// lint:allow new-packet`.
  std-function    src/sim and src/net are hot-path layers: callbacks there
                  must use InplaceFunction (no allocation, SBO) rather than
                  std::function. Suppress with `// lint:allow std-function`.
  bare-assert     use TFC_CHECK / TFC_DCHECK (src/sim/check.h), which print
                  context and abort under all build types; bare assert()
                  vanishes in NDEBUG builds. static_assert is fine.
  hot-io          src/sim, src/net, and src/tfc are simulation hot paths:
                  no stream/printf I/O there (std::cout, printf, ofstream,
                  ...). Observability goes through the metric registry /
                  flight recorder / exporter (src/sim/telemetry.h) so the
                  per-event cost is a pointer bump, not formatting. The
                  trace renderer and exporter implementations themselves
                  are allowlisted.
                  Suppress a sanctioned site with `// lint:allow hot-io`.
  packet-drop     packet loss must stay auditable: the only sanctioned
                  emission sites for kDrop / kFaultDrop trace events in src/
                  are the port TX path (src/net/port.cc) and the fault
                  injector (src/net/fault.cc). Any other layer that destroys
                  a packet must either route it through those funnels or
                  carry an explicit `// lint:allow packet-drop` with a
                  counter/metric justifying the loss (e.g. host teardown
                  drops, arbiter expiry).
  raw-thread      threading primitives in src/ must be the annotated wrappers
                  from src/sim/thread_annotations.h (tfc::Mutex, MutexLock)
                  so clang's -Wthread-safety sees every lock. Raw
                  std::mutex / std::lock_guard / std::thread & co. are
                  allowed only inside src/sim/thread_annotations.h (the
                  wrappers themselves). Suppress with
                  `// lint:allow raw-thread`.
  guarded-by      a tfc::Mutex that guards nothing is either dead or — worse
                  — a lock someone forgot to annotate: every Mutex declared
                  in src/ must have at least one TFC_GUARDED_BY /
                  TFC_PT_GUARDED_BY user naming it in the same file.
  units           the quantity-carrying layers (src/sim, src/net, src/tfc,
                  src/transport, src/topo, src/workload) are migrated to the
                  strong unit types in src/sim/units.h: a declaration of a
                  raw arithmetic type (double, uint64_t, ...) whose name is
                  suffixed _bytes/_tokens/_ns/_bps is a dimension the type
                  system can no longer see. Declare it as Bytes / Tokens /
                  TimeNs / BitsPerSec instead. Wire-format boundaries
                  (src/net/packet.h header fields) are allowlisted; named
                  raw-view escapes carry `// lint:allow units`.
  recorder-hot    the per-event recording hot paths must stay allocation-,
                  lookup-, and I/O-free. Three brace-matched scopes are
                  scanned: the telemetry sampler (TimeSeriesRecorder::Tick
                  and SeriesLog::AppendTick in src/sim/telemetry.cc — no
                  std::map / unordered_map, no string-keyed lookups, no
                  stream I/O; cold helpers like RebuildPlan and
                  SeriesLog::Write do that work), the flight-recorder
                  ring append (FlightRecorder::Record and Append in
                  src/sim/flight.h — one masked store, so additionally no
                  allocation or container growth), and the trace emission
                  path (Network::EmitTrace and EmitFlight in
                  src/net/network.h — a gate branch plus an inline record
                  fill). Suppress with `// lint:allow recorder-hot`.

Every rule here has this file as its only owner; tools/astlint.py carries
only the det-* determinism rules, which need a real AST.

Exit status: 0 when clean, 1 when any violation is found.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench", "examples")
# Seeded-violation analyzer test data (tests/astlint/) is violating by
# construction — it exists to prove tools/astlint.py flags those patterns.
SKIP_PREFIXES = ("tests/astlint/",)
CXX_SUFFIXES = {".h", ".cc", ".cpp"}

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
NEW_PACKET_RE = re.compile(r"\bnew\s+Packet\b")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
# assert( not preceded by an identifier character (rules out static_assert,
# TFC_ASSERT-style macros, and _assert suffixes).
BARE_ASSERT_RE = re.compile(r"(?<![A-Za-z0-9_])assert\s*\(")
LINE_COMMENT_RE = re.compile(r"//.*$")

ROOT_PREFIXES = tuple(f"{d}/" for d in SCAN_DIRS)
HOT_LAYERS = ("src/sim/", "src/net/")

# hot-io: stream/printf I/O is banned in the simulation hot layers. The
# trace renderer and the telemetry exporter are the sanctioned I/O funnels;
# check.h prints on the abort path only.
HOT_IO_LAYERS = ("src/sim/", "src/net/", "src/tfc/")
HOT_IO_ALLOWED_FILES = {
    "src/net/trace.h",
    "src/net/trace.cc",
    "src/sim/telemetry.h",
    "src/sim/telemetry.cc",
    "src/sim/check.h",
    # Flight-recorder dump/load: cold-path file I/O only (post-mortem spill
    # and offline loader); the per-event Record stays in flight.h and is
    # covered by the recorder-hot rule.
    "src/sim/flight.cc",
    # The run supervisor forks/reaps children, reads their report pipes, and
    # writes the merged sweep manifest — cold orchestration I/O, once per
    # run attempt or sweep, never per event.
    "src/sim/supervisor.cc",
}
# packet-drop: the sanctioned drop-trace funnels. Everything else in src/
# needs an explicit suppression tied to a counter.
PACKET_DROP_RE = re.compile(
    r"EmitTrace\s*\(\s*FlightEventType::k(?:Fault)?Drop\b"
)
PACKET_DROP_ALLOWED_FILES = {
    "src/net/port.cc",
    "src/net/fault.cc",
}

# raw-thread: the annotated wrappers are the only threading primitives
# allowed in src/ — everything else would be invisible to -Wthread-safety.
RAW_THREAD_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any|thread|jthread"
    r"|atomic|atomic_[a-z0-9_]+)\b"
)
RAW_THREAD_ALLOWED_FILES = {
    "src/sim/thread_annotations.h",  # the wrappers themselves
}

# guarded-by: a declared tfc::Mutex must be named by at least one
# TFC_GUARDED_BY / TFC_PT_GUARDED_BY in the same file. Matches member and
# namespace-scope declarations ("Mutex mu_;", "tfc::Mutex g_mu;"); pointers
# and references ("Mutex* mu") are uses, not declarations, and are skipped.
MUTEX_DECL_RE = re.compile(r"\b(?:tfc::)?Mutex\s+(\w+)\s*;")
GUARDED_BY_RE = re.compile(r"\bTFC_(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z0-9_:.\->]+)\s*\)")

HOT_IO_RE = re.compile(
    r"\bstd::(cout|cerr|clog|ofstream|fstream|printf|fprintf)\b"
    r"|(?<![A-Za-z0-9_:])(printf|fprintf|fputs|fwrite|puts)\s*\("
)

# units: in the migrated layers, a raw arithmetic declaration whose name
# carries a unit suffix must be a strong type from src/sim/units.h. The
# regex intentionally matches both variable and function declarations
# ("double token_bytes;" and "double token_bytes() const") — a raw-typed
# accessor leaks the dimension just as much as a raw member.
UNITS_LAYERS = (
    "src/sim/",
    "src/net/",
    "src/tfc/",
    "src/transport/",
    "src/topo/",
    "src/workload/",
)
UNITS_ALLOWED_FILES = {
    "src/sim/units.h",   # the unit types' own raw-view escapes (bytes_per_ns)
    "src/net/packet.h",  # wire format: header fields are raw on purpose
}
UNITS_RAW_TYPE = (
    r"(?:double|float|u?int(?:8|16|32|64)_t|size_t"
    r"|unsigned(?:\s+long(?:\s+long)?|\s+int)?|long(?:\s+long)?(?:\s+int)?)"
)
UNITS_RE = re.compile(
    r"\b" + UNITS_RAW_TYPE + r"\s+(?:const\s+)?(\w*_(?:bytes|tokens|ns|bps))_?\s*(?=[;=,(){])"
)

# recorder-hot: per-event recording hot functions, matched by symbol name
# and scanned brace-to-brace. Each scope is (file, function regex, ban
# regex, hint). The telemetry sampler bans lookups; the flight-recorder
# append and trace gate additionally ban allocation and container growth —
# those bodies are a branch plus a masked store.
RECORDER_HOT_LOOKUP_BAN_RE = re.compile(
    r"\bstd::(?:map|unordered_map)\b"
    r"|\.(?:find|at)\s*\("
    r"|\.count\s*\(\s*[^)\s]"  # .count(key) lookups; .count() accessors are fine
    r"|\bsid_by_name_\s*\["
)
RECORDER_HOT_APPEND_BAN_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bstd::(?:map|unordered_map|string|vector)\b"
    r"|\.(?:find|at|resize|reserve|push_back|emplace_back|assign|insert)\s*\("
)
RECORDER_HOT_SCOPES = [
    (
        "src/sim/telemetry.cc",
        re.compile(
            r"\b(?:TimeSeriesRecorder::Tick|SeriesLog::AppendTick)\s*\("
        ),
        RECORDER_HOT_LOOKUP_BAN_RE,
        "resolve in RebuildPlan instead; write files in SeriesLog::Write",
    ),
    (
        "src/sim/flight.h",
        re.compile(r"\b(?:void\s+Record|FlightEvent\*\s+Append)\s*\("),
        RECORDER_HOT_APPEND_BAN_RE,
        "the ring append is a masked store; do setup work in Arm()",
    ),
    (
        "src/net/network.h",
        re.compile(r"\bvoid\s+(?:EmitTrace|EmitFlight)\s*\("),
        RECORDER_HOT_APPEND_BAN_RE,
        "the emission gate is one branch and the armed fill is direct "
        "stores; batch-format offline instead",
    ),
]


def recorder_hot_body_lines(text: str, func_re: re.Pattern) -> list[tuple[int, str]]:
    """(lineno, line) pairs inside the matched hot-function bodies."""
    out = []
    for m in func_re.finditer(text):
        open_brace = text.find("{", m.end())
        if open_brace < 0:
            continue
        # A declaration ends in ';' before any '{': skip it, or the scan
        # would brace-match some unrelated later body.
        if ";" in text[m.end():open_brace]:
            continue
        depth = 0
        end = open_brace
        for i in range(open_brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        first_line = text.count("\n", 0, open_brace) + 1
        body = text[open_brace:end]
        for offset, line in enumerate(body.splitlines()):
            out.append((first_line + offset, line))
    return out


def allow(line: str, tag: str) -> bool:
    return f"lint:allow {tag}" in line


def lint_recorder_hot(
    text: str, rel: str, func_re: re.Pattern, ban_re: re.Pattern, hint: str
) -> list[str]:
    errors = []
    for lineno, raw in recorder_hot_body_lines(text, func_re):
        code = LINE_COMMENT_RE.sub("", raw)
        if allow(raw, "recorder-hot"):
            continue
        if ban_re.search(code):
            errors.append(
                f"{rel}:{lineno}: [recorder-hot] banned construct in a "
                f"recording hot path — {hint}"
            )
        if HOT_IO_RE.search(code):
            errors.append(
                f"{rel}:{lineno}: [recorder-hot] no stream/printf I/O in a "
                f"recording hot path — {hint}"
            )
    return errors


def lint_file(path: Path, rel: str) -> list[str]:
    errors = []
    mutex_decls: list[tuple[int, str]] = []  # (lineno, mutex name)
    guarded_names: set[str] = set()
    text = path.read_text()
    for scope_file, func_re, ban_re, hint in RECORDER_HOT_SCOPES:
        if rel == scope_file:
            errors.extend(lint_recorder_hot(text, rel, func_re, ban_re, hint))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = INCLUDE_RE.match(raw)
        if m and not m.group(1).startswith(ROOT_PREFIXES):
            errors.append(
                f"{rel}:{lineno}: [include-root] quoted include "
                f'"{m.group(1)}" must be repo-root-relative (src/... or bench/...)'
            )
        # Strip trailing // comments before content rules so prose like
        # "never call new Packet directly" does not trip them — but check
        # the raw line for suppressions first.
        code = LINE_COMMENT_RE.sub("", raw)
        if NEW_PACKET_RE.search(code) and not allow(raw, "new-packet"):
            errors.append(
                f"{rel}:{lineno}: [new-packet] allocate packets via "
                "PacketPool::Allocate, not bare new Packet"
            )
        if (
            STD_FUNCTION_RE.search(code)
            and rel.startswith(HOT_LAYERS)
            and not allow(raw, "std-function")
        ):
            errors.append(
                f"{rel}:{lineno}: [std-function] hot-path layers use "
                "InplaceFunction (src/sim/inplace_function.h), not std::function"
            )
        if BARE_ASSERT_RE.search(code) and not allow(raw, "bare-assert"):
            errors.append(
                f"{rel}:{lineno}: [bare-assert] use TFC_CHECK / TFC_DCHECK "
                "(src/sim/check.h) instead of assert()"
            )
        if (
            HOT_IO_RE.search(code)
            and rel.startswith(HOT_IO_LAYERS)
            and rel not in HOT_IO_ALLOWED_FILES
            and not allow(raw, "hot-io")
        ):
            errors.append(
                f"{rel}:{lineno}: [hot-io] no stream/printf I/O in hot-path "
                "layers; use the metric registry / flight recorder / exporter "
                "(src/sim/telemetry.h)"
            )
        if (
            PACKET_DROP_RE.search(code)
            and rel.startswith("src/")
            and rel not in PACKET_DROP_ALLOWED_FILES
            and not allow(raw, "packet-drop")
        ):
            errors.append(
                f"{rel}:{lineno}: [packet-drop] drop traces may only be "
                "emitted by src/net/port.cc or src/net/fault.cc; other "
                "sites need a counter and `// lint:allow packet-drop`"
            )
        if (
            RAW_THREAD_RE.search(code)
            and rel.startswith("src/")
            and rel not in RAW_THREAD_ALLOWED_FILES
            and not allow(raw, "raw-thread")
        ):
            errors.append(
                f"{rel}:{lineno}: [raw-thread] use the annotated wrappers "
                "from src/sim/thread_annotations.h (tfc::Mutex / MutexLock), "
                "not raw std threading primitives"
            )
        if (
            rel.startswith(UNITS_LAYERS)
            and rel not in UNITS_ALLOWED_FILES
            and not allow(raw, "units")
        ):
            m = UNITS_RE.search(code)
            if m:
                errors.append(
                    f"{rel}:{lineno}: [units] '{m.group(1)}' declares a "
                    "unit-suffixed quantity with a raw arithmetic type — use "
                    "Bytes / Tokens / TimeNs / BitsPerSec (src/sim/units.h), "
                    "or mark a sanctioned raw view with `// lint:allow units`"
                )
        if rel.startswith("src/") and rel != "src/sim/thread_annotations.h":
            m = MUTEX_DECL_RE.search(code)
            if m and not allow(raw, "guarded-by"):
                mutex_decls.append((lineno, m.group(1)))
            for g in GUARDED_BY_RE.finditer(code):
                guarded_names.add(g.group(1))
    for lineno, name in mutex_decls:
        # The annotation may spell the mutex with qualifiers ("impl_->mu_");
        # a substring match on the bare name keeps the rule usable.
        if not any(name in g for g in guarded_names):
            errors.append(
                f"{rel}:{lineno}: [guarded-by] tfc::Mutex '{name}' has no "
                "TFC_GUARDED_BY user in this file — annotate the data it "
                "protects (or delete the unused lock)"
            )
    return errors


def main() -> int:
    args = sys.argv[1:]
    if args:
        print(f"lint.py: unknown argument(s): {' '.join(args)}", file=sys.stderr)
        return 2
    errors = []
    files = 0
    for d in SCAN_DIRS:
        for path in sorted((REPO / d).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                rel = path.relative_to(REPO).as_posix()
                if rel.startswith(SKIP_PREFIXES):
                    continue
                files += 1
                errors.extend(lint_file(path, rel))
    for e in errors:
        print(e)
    print(f"lint.py: {files} files, {len(errors)} violation(s)", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
