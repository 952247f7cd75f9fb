#!/usr/bin/env python3
"""AST-driven determinism analyzer (libclang; see docs/correctness.md).

Every guarantee the replay/byte-identity gates enforce *dynamically* — chaos
replay equality, parallel-sweep bit-identity, resume byte-identity —
is determinism. This tool makes nondeterminism a compile-time-class error:
it walks the real clang AST of every first-party translation unit (via the
build tree's compile_commands.json, no regex heuristics) and enforces the
determinism contracts of the simulation layers.

Rules (AST-precise; catalogue also via --list-rules):

  det-wallclock       No wall-clock or ambient-entropy source in the
                      deterministic layers (src/sim, src/net, src/tfc,
                      src/transport, src/topo, src/workload): time(),
                      gettimeofday(), clock_gettime(), rand()/srand()/
                      random()/drand48(), std::random_device, and the
                      std::chrono clocks (system_clock, steady_clock,
                      high_resolution_clock). Simulation results must be a
                      pure function of (config, seed); host time may only
                      appear at allowlisted cold sites (the profiler, run
                      manifests, supervisor timeouts) carried in the
                      suppression file with a justification.
  det-unordered-iter  No range-for / begin()/end() traversal of a
                      std::unordered_map/set in the deterministic layers.
                      Iteration order of an unordered container is a
                      function of libc hash salt and insertion history;
                      walking one leaks that order into results. Keyed
                      lookup (find/count/operator[]) is fine.
  det-pointer-key     No std::map/set/unordered_map/unordered_set or
                      priority_queue keyed by a raw pointer in the
                      deterministic layers. Address-ordered (or
                      address-hashed) containers order entries by heap
                      layout, which varies across ASLR runs and breaks
                      replay. Key by a stable identity (node id, port
                      index, flow id) instead.

Every other repo rule lives only in tools/lint.py, which needs no
dependencies.

Findings are keyed by (rule, file, decl, line) and matched against the
checked-in suppression file tools/astlint_suppressions.txt, whose entries
require a justification (see that file's header; --selftest proves the
parser rejects unjustified entries). Unsuppressed findings fail the run;
unused suppressions are reported so the file cannot rot.

Engine: python clang bindings + libclang. When either is missing the
analyzer skips with a warning and exit code 77 (ctest SKIP_RETURN_CODE;
ci.sh treats it as skip unless TFC_ASTLINT_REQUIRE=1).

Usage:
  astlint.py [--build-dir DIR]            analyze src/ TUs via the DIR's
                                          compile_commands.json (default:
                                          first of build, build-asan,
                                          build-hardened, build-tsan,
                                          build-debug that has one)
  astlint.py --fixture TU.cc [--check-golden GOLDEN]
                                          analyze a standalone fixture TU
                                          (all rules active regardless of
                                          path; no suppressions); print
                                          findings as `rule line decl` or
                                          compare against GOLDEN
  astlint.py --probe                      exit 0 if the libclang engine is
                                          available, 3 if not
  astlint.py --selftest                   pure-python self-test (no
                                          libclang): suppression grammar,
                                          justification policy, matching
  astlint.py --list-rules                 print the rule catalogue

Exit codes: 0 clean, 1 findings/golden mismatch, 2 usage or setup error,
3 probe-unavailable, 77 engine unavailable (skip).
"""

import argparse
import glob
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUPPRESSION_FILE = os.path.join(REPO, "tools", "astlint_suppressions.txt")

RULES = (
    "det-wallclock",
    "det-unordered-iter",
    "det-pointer-key",
)

# Layers whose outputs must be a pure function of (config, seed).
DET_LAYERS = (
    "src/sim/",
    "src/net/",
    "src/tfc/",
    "src/transport/",
    "src/topo/",
    "src/workload/",
)

# det-wallclock: banned free functions (global or std namespace).
WALLCLOCK_FUNCS = {
    "time", "gettimeofday", "clock_gettime", "clock", "timespec_get",
    "ftime", "rand", "srand", "random", "srandom", "rand_r",
    "drand48", "lrand48", "mrand48", "getentropy", "getrandom",
}
# det-wallclock: banned std classes (referenced as a type or via a static
# member call such as steady_clock::now()).
WALLCLOCK_CLASSES = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "random_device",
}

UNORDERED_CONTAINERS = {
    "unordered_map", "unordered_multimap", "unordered_set",
    "unordered_multiset",
}
KEYED_CONTAINERS = UNORDERED_CONTAINERS | {
    "map", "multimap", "set", "multiset", "priority_queue",
}
ITER_METHODS = {"begin", "end", "cbegin", "cend", "rbegin", "rend"}

MIN_JUSTIFICATION = 15  # chars; "mandatory" means it must actually say why


class Finding:
    __slots__ = ("rule", "file", "line", "decl", "message")

    def __init__(self, rule, file, line, decl, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.decl = decl or "<file-scope>"
        self.message = message

    def key(self):
        return (self.rule, self.file, self.decl, self.line)

    def __str__(self):
        return (f"{self.file}:{self.line}: [{self.rule}] ({self.decl}) "
                f"{self.message}")


# ---------------------------------------------------------------------------
# Suppression file: `rule file decl -- justification` per line. decl `*`
# suppresses the whole file for that rule. Matching is on (rule, file) plus
# decl equality or suffix (so `Sum` matches `FlowTable::Sum`).
# ---------------------------------------------------------------------------

class SuppressionError(ValueError):
    pass


class Suppression:
    __slots__ = ("rule", "file", "decl", "justification", "lineno", "used")

    def __init__(self, rule, file, decl, justification, lineno):
        self.rule = rule
        self.file = file
        self.decl = decl
        self.justification = justification
        self.lineno = lineno
        self.used = False

    def matches(self, finding):
        if self.rule != finding.rule or self.file != finding.file:
            return False
        if self.decl == "*":
            return True
        return (finding.decl == self.decl
                or finding.decl.endswith("::" + self.decl))


def parse_suppressions(text, source="<suppressions>"):
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " -- " not in line:
            raise SuppressionError(
                f"{source}:{lineno}: missing ' -- <justification>' — every "
                "suppression must say why the site is sanctioned")
        head, justification = line.split(" -- ", 1)
        justification = justification.strip()
        fields = head.split()
        if len(fields) != 3:
            raise SuppressionError(
                f"{source}:{lineno}: expected 'rule file decl -- "
                f"justification', got {len(fields)} field(s) before ' -- '")
        rule, file, decl = fields
        if rule not in RULES:
            raise SuppressionError(
                f"{source}:{lineno}: unknown rule '{rule}' (known: "
                f"{', '.join(RULES)})")
        if len(justification) < MIN_JUSTIFICATION:
            raise SuppressionError(
                f"{source}:{lineno}: justification too short "
                f"({len(justification)} chars, need >= {MIN_JUSTIFICATION}) "
                "— explain why determinism/hot-path rules do not apply here")
        entries.append(Suppression(rule, file, decl, justification, lineno))
    return entries


def load_suppressions(path):
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as f:
        return parse_suppressions(f.read(), source=os.path.relpath(path, REPO))


# ---------------------------------------------------------------------------
# Engine discovery. The analyzer needs the python clang bindings AND a
# loadable libclang shared object; both are probed lazily so --selftest and
# --probe work (and fail informatively) everywhere.
# ---------------------------------------------------------------------------

def _libclang_candidates():
    env = os.environ.get("TFC_LIBCLANG")
    if env:
        yield env
    patterns = (
        "/usr/lib/llvm-*/lib/libclang.so*",
        "/usr/lib/llvm-*/lib/libclang-*.so*",
        "/usr/lib/x86_64-linux-gnu/libclang-*.so*",
        "/usr/lib/x86_64-linux-gnu/libclang.so*",
        "/usr/local/lib/libclang*.so*",
        "/opt/homebrew/opt/llvm/lib/libclang.dylib",
        "/Library/Developer/CommandLineTools/usr/lib/libclang.dylib",
    )
    seen = set()
    for pat in patterns:
        # Prefer the newest LLVM when several are installed.
        for path in sorted(glob.glob(pat), reverse=True):
            if "libclang-cpp" in os.path.basename(path):
                continue  # the C++ library is not the C API
            if path not in seen:
                seen.add(path)
                yield path


def load_engine():
    """Returns (cindex module, Index) or (None, reason string)."""
    try:
        from clang import cindex
    except ImportError:
        return None, ("python clang bindings not importable "
                      "(install python3-clang / the libclang wheel)")
    last_error = "no libclang shared library found"
    tried_default = False
    for candidate in [None] + list(_libclang_candidates()):
        try:
            if candidate is None:
                if tried_default:
                    continue
                tried_default = True
            else:
                cindex.Config.loaded = False
                cindex.Config.library_file = candidate
            index = cindex.Index.create()
            return cindex, index
        except Exception as e:  # LibclangError, OSError
            last_error = f"{candidate or '<default>'}: {e}"
            continue
    return None, f"libclang not loadable ({last_error})"


# ---------------------------------------------------------------------------
# AST analysis
# ---------------------------------------------------------------------------

class Analyzer:
    def __init__(self, cindex, index, fixture_mode=False):
        self.ci = cindex
        self.index = index
        self.fixture_mode = fixture_mode
        self.findings = {}

    # -- path/layer helpers --------------------------------------------------

    def rel_path(self, cursor):
        loc = cursor.location
        if loc.file is None:
            return None
        path = os.path.realpath(loc.file.name)
        if self.fixture_mode:
            return os.path.basename(path) if path.startswith(
                os.path.realpath(self.fixture_root)) else None
        if not path.startswith(REPO + os.sep):
            return None
        return os.path.relpath(path, REPO)

    def in_layers(self, rel, layers):
        if self.fixture_mode:
            return True  # fixtures exercise every rule regardless of path
        return rel is not None and rel.startswith(layers)

    def add(self, rule, rel, line, decl, message):
        f = Finding(rule, rel, line, decl, message)
        self.findings.setdefault(f.key(), f)

    # -- type helpers --------------------------------------------------------

    def strip_refs(self, t):
        TypeKind = self.ci.TypeKind
        t = t.get_canonical()
        while t.kind in (TypeKind.LVALUEREFERENCE, TypeKind.RVALUEREFERENCE,
                         TypeKind.POINTER):
            t = t.get_pointee().get_canonical()
        return t

    def container_name(self, t):
        """std container record name of canonical type t, or None."""
        t = self.strip_refs(t)
        decl = t.get_declaration()
        if decl is None or not decl.spelling:
            return None
        if decl.spelling not in KEYED_CONTAINERS:
            return None
        return decl.spelling if self.in_std(decl) else None

    def in_std(self, decl):
        """True if decl's enclosing namespaces are std (incl. inline ones)."""
        CursorKind = self.ci.CursorKind
        p = decl.semantic_parent
        saw_std = False
        while p is not None and p.kind != CursorKind.TRANSLATION_UNIT:
            if p.kind == CursorKind.NAMESPACE:
                name = p.spelling
                if name == "std":
                    saw_std = True
                elif name not in ("", "__1", "__cxx11", "__gnu_cxx", "chrono",
                                  "__detail", "filesystem"):
                    return False
            elif p.kind in (CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL,
                            CursorKind.CLASS_TEMPLATE,
                            CursorKind.CLASS_TEMPLATE_PARTIAL_SPECIALIZATION):
                pass  # nested record (e.g. chrono clock) — keep walking
            else:
                return False
            p = p.semantic_parent
        return saw_std

    def std_or_global(self, decl):
        CursorKind = self.ci.CursorKind
        p = decl.semantic_parent
        if p is None or p.kind == CursorKind.TRANSLATION_UNIT:
            return True
        return self.in_std(decl)

    def qualified_label(self, cursor):
        """Class-qualified decl name without namespaces (Foo::Bar)."""
        CursorKind = self.ci.CursorKind
        parts = []
        p = cursor
        while p is not None and p.kind not in (CursorKind.TRANSLATION_UNIT,):
            if p.kind in (CursorKind.NAMESPACE, CursorKind.LINKAGE_SPEC,
                          CursorKind.UNEXPOSED_DECL):
                p = p.semantic_parent
                continue
            parts.append(p.spelling or "<anon>")
            p = p.semantic_parent
        return "::".join(reversed(parts)) or "<file-scope>"

    # -- per-rule checks -----------------------------------------------------

    def check_wallclock(self, cursor, rel, decl_label):
        CursorKind = self.ci.CursorKind
        if not self.in_layers(rel, DET_LAYERS):
            return
        ref = None
        if cursor.kind in (CursorKind.DECL_REF_EXPR, CursorKind.TYPE_REF,
                           CursorKind.TEMPLATE_REF):
            ref = cursor.referenced
        if ref is None:
            return
        name = ref.spelling
        if name in WALLCLOCK_FUNCS and ref.kind in (
                CursorKind.FUNCTION_DECL,) and self.std_or_global(ref):
            self.add("det-wallclock", rel, cursor.location.line, decl_label,
                     f"call to wall-clock/entropy source '{name}()' in a "
                     "deterministic layer — results must be a pure function "
                     "of (config, seed); use the Scheduler clock / seeded Rng")
            return
        if ref.kind == CursorKind.CXX_METHOD and ref.spelling == "now":
            parent = ref.semantic_parent
            if (parent is not None and parent.spelling in WALLCLOCK_CLASSES
                    and self.in_std(parent)):
                name = parent.spelling
            else:
                return
        if name in WALLCLOCK_CLASSES and self.in_std(
                ref if ref.kind != CursorKind.CXX_METHOD
                else ref.semantic_parent):
            self.add("det-wallclock", rel, cursor.location.line, decl_label,
                     f"std::{name} referenced in a deterministic layer — "
                     "host clocks and ambient entropy leak wall time into "
                     "results; use the Scheduler clock / seeded Rng")

    def check_unordered_iter(self, cursor, rel, decl_label):
        CursorKind = self.ci.CursorKind
        if not self.in_layers(rel, DET_LAYERS):
            return
        if cursor.kind == CursorKind.CXX_FOR_RANGE_STMT:
            kids = list(cursor.get_children())
            if not kids:
                return
            body = kids[-1] if kids[-1].kind == CursorKind.COMPOUND_STMT \
                else None
            head = kids[:-1] if body is not None else kids
            for k in head:
                name = self._unordered_in_subtree(k)
                if name:
                    self.add(
                        "det-unordered-iter", rel, cursor.location.line,
                        decl_label,
                        f"range-for over std::{name} in a deterministic "
                        "layer — iteration order is a function of hash salt "
                        "and insertion history; use a sorted container or "
                        "iterate a deterministic index")
                    return
        elif (cursor.kind == CursorKind.CALL_EXPR
              and cursor.spelling in ITER_METHODS):
            for k in cursor.get_children():
                name = self._unordered_in_subtree(k, depth=2)
                if name:
                    self.add(
                        "det-unordered-iter", rel, cursor.location.line,
                        decl_label,
                        f"{cursor.spelling}() on std::{name} in a "
                        "deterministic layer — traversal order leaks hash "
                        "salt; use a sorted container")
                    return

    def _unordered_in_subtree(self, cursor, depth=4):
        t = cursor.type
        if t is not None and t.kind != self.ci.TypeKind.INVALID:
            name = self.container_name(t)
            if name in UNORDERED_CONTAINERS:
                return name
        if depth <= 0:
            return None
        for k in cursor.get_children():
            name = self._unordered_in_subtree(k, depth - 1)
            if name:
                return name
        return None

    def check_pointer_key(self, cursor, rel, decl_label):
        CursorKind = self.ci.CursorKind
        TypeKind = self.ci.TypeKind
        if not self.in_layers(rel, DET_LAYERS):
            return
        if cursor.kind not in (CursorKind.FIELD_DECL, CursorKind.VAR_DECL,
                               CursorKind.PARM_DECL,
                               CursorKind.TYPE_ALIAS_DECL,
                               CursorKind.TYPEDEF_DECL):
            return
        t = cursor.type
        if cursor.kind in (CursorKind.TYPE_ALIAS_DECL,
                           CursorKind.TYPEDEF_DECL):
            t = cursor.underlying_typedef_type
        if t is None or t.kind == TypeKind.INVALID:
            return
        t = self.strip_refs(t)
        name = self.container_name(t)
        if name is None:
            return
        if t.get_num_template_arguments() < 1:
            return
        key = t.get_template_argument_type(0)
        if key is None or key.kind == TypeKind.INVALID:
            return
        if key.get_canonical().kind == TypeKind.POINTER:
            self.add(
                "det-pointer-key", rel, cursor.location.line,
                decl_label if cursor.kind not in (
                    CursorKind.FIELD_DECL, CursorKind.VAR_DECL)
                else self.qualified_label(cursor),
                f"std::{name} keyed by a raw pointer "
                f"('{key.spelling}') in a deterministic layer — "
                "address-dependent order varies across ASLR runs and breaks "
                "replay; key by a stable identity (node id, port index, "
                "flow id)")

    # -- walk ----------------------------------------------------------------

    def analyze_tu(self, tu, fixture_root=None):
        self.fixture_root = fixture_root or REPO
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise RuntimeError(
                "fatal parse diagnostics:\n  "
                + "\n  ".join(str(d) for d in fatal[:5]))
        for child in tu.cursor.get_children():
            self._visit(child, "<file-scope>")

    def _visit(self, cursor, decl_label):
        CursorKind = self.ci.CursorKind
        rel = self.rel_path(cursor)
        if cursor.kind.is_declaration() and rel is None \
                and cursor.location.file is not None:
            return  # out-of-repo subtree (system / third-party headers)
        if cursor.kind in (CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                           CursorKind.CONSTRUCTOR, CursorKind.DESTRUCTOR,
                           CursorKind.CONVERSION_FUNCTION,
                           CursorKind.FUNCTION_TEMPLATE):
            decl_label = self.qualified_label(cursor)
        if rel is not None:
            self.check_wallclock(cursor, rel, decl_label)
            self.check_unordered_iter(cursor, rel, decl_label)
            self.check_pointer_key(cursor, rel, decl_label)
        for child in cursor.get_children():
            self._visit(child, decl_label)


# ---------------------------------------------------------------------------
# Translation-unit enumeration and parsing
# ---------------------------------------------------------------------------

GCC_ONLY_FLAGS = {
    "-Wduplicated-cond", "-Wduplicated-branches", "-Wlogical-op",
    "-fno-lifetime-dse", "-fconcepts",
}

PARSE_EXTRA = ["-Wno-unknown-warning-option", "-Wno-unused-command-line-argument",
               "-ferror-limit=200"]


def tu_parse_args(command):
    """compile_commands entry -> clang parse args (compiler/-c/-o stripped)."""
    args = list(command.arguments)
    out = []
    skip = False
    for i, a in enumerate(args):
        if i == 0:  # the compiler executable
            continue
        if skip:
            skip = False
            continue
        if a in ("-c",):
            continue
        if a == "-o":
            skip = True
            continue
        if a in GCC_ONLY_FLAGS:
            continue
        if os.path.basename(a) == os.path.basename(command.filename) \
                and a.endswith((".cc", ".cpp", ".cxx", ".c")):
            continue
        out.append(a)
    return out + PARSE_EXTRA


def find_build_dir(explicit):
    if explicit:
        if os.path.exists(os.path.join(explicit, "compile_commands.json")):
            return explicit
        return None
    for d in ("build", "build-asan", "build-hardened", "build-tsan",
              "build-debug"):
        path = os.path.join(REPO, d)
        if os.path.exists(os.path.join(path, "compile_commands.json")):
            return path
    return None


def analyze_src(cindex, index, build_dir, all_tus=False):
    db = cindex.CompilationDatabase.fromDirectory(build_dir)
    commands = db.getAllCompileCommands()
    analyzer = Analyzer(cindex, index)
    parsed = 0
    cwd = os.getcwd()
    try:
        for cmd in commands:
            src = os.path.realpath(
                os.path.join(cmd.directory, cmd.filename))
            if not src.startswith(REPO + os.sep):
                continue
            rel = os.path.relpath(src, REPO)
            if not all_tus and not rel.startswith("src/"):
                continue
            os.chdir(cmd.directory)
            tu = index.parse(src, args=tu_parse_args(cmd))
            analyzer.analyze_tu(tu)
            parsed += 1
    finally:
        os.chdir(cwd)
    if parsed == 0:
        raise RuntimeError(
            f"no first-party TUs found in {build_dir}/compile_commands.json")
    return analyzer, parsed


def analyze_fixture(cindex, index, path):
    analyzer = Analyzer(cindex, index, fixture_mode=True)
    args = ["-x", "c++", "-std=c++20", "-I", os.path.dirname(path),
            "-nostdinc", "-nostdinc++"] + PARSE_EXTRA
    tu = index.parse(path, args=args)
    analyzer.analyze_tu(tu, fixture_root=os.path.dirname(path))
    return analyzer


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report_src(analyzer, suppressions):
    unsuppressed = []
    suppressed = 0
    for key in sorted(analyzer.findings):
        f = analyzer.findings[key]
        hit = None
        for s in suppressions:
            if s.matches(f):
                hit = s
                break
        if hit is not None:
            hit.used = True
            suppressed += 1
        else:
            unsuppressed.append(f)
    for f in unsuppressed:
        print(f)
    unused = [s for s in suppressions if not s.used]
    for s in unused:
        print(f"astlint: warning: unused suppression at "
              f"tools/astlint_suppressions.txt:{s.lineno} "
              f"({s.rule} {s.file} {s.decl}) — delete it or the rule it "
              "sanctions has moved", file=sys.stderr)
    total = len(analyzer.findings)
    print(f"astlint: {total} finding(s), {suppressed} suppressed, "
          f"{len(unsuppressed)} unsuppressed, {len(unused)} unused "
          "suppression(s)", file=sys.stderr)
    return 1 if unsuppressed else 0


def fixture_lines(analyzer):
    lines = []
    for key in sorted(analyzer.findings,
                      key=lambda k: (analyzer.findings[k].line, k[0])):
        f = analyzer.findings[key]
        lines.append(f"{f.rule} {f.line} {f.decl}")
    return lines


def check_golden(produced, golden_path):
    with open(golden_path, encoding="utf-8") as f:
        expected = [ln.strip() for ln in f
                    if ln.strip() and not ln.strip().startswith("#")]
    if produced == expected:
        print(f"astlint: fixture matches {os.path.basename(golden_path)} "
              f"({len(expected)} finding(s))")
        return 0
    print(f"astlint: fixture mismatch vs {golden_path}", file=sys.stderr)
    for ln in sorted(set(expected) - set(produced)):
        print(f"  missing:    {ln}", file=sys.stderr)
    for ln in sorted(set(produced) - set(expected)):
        print(f"  unexpected: {ln}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Self-test (pure python; runs everywhere, no libclang)
# ---------------------------------------------------------------------------

def selftest():
    failures = []

    def check(name, fn):
        try:
            fn()
        except AssertionError as e:
            failures.append(f"{name}: {e}")

    def good_entries():
        text = (
            "# comment\n"
            "\n"
            "det-wallclock src/sim/profile.h * -- profiler measures host "
            "wall-clock by design; gated behind TFC_PROFILE\n"
            "det-wallclock src/sim/telemetry.cc RunManifest::Stamp -- "
            "manifest timestamp is provenance metadata\n")
        entries = parse_suppressions(text, "t")
        assert len(entries) == 2, f"expected 2 entries, got {len(entries)}"
        assert entries[0].decl == "*"
        assert entries[1].decl == "RunManifest::Stamp"
    check("parse-good", good_entries)

    def reject_missing_justification():
        try:
            parse_suppressions("det-wallclock src/sim/a.h Foo::Bar\n", "t")
        except SuppressionError as e:
            assert "justification" in str(e), str(e)
            return
        raise AssertionError("entry without ' -- justification' accepted")
    check("reject-unjustified", reject_missing_justification)

    def reject_short_justification():
        try:
            parse_suppressions("det-wallclock src/sim/a.h Foo -- ok\n", "t")
        except SuppressionError as e:
            assert "too short" in str(e), str(e)
            return
        raise AssertionError("trivial justification accepted")
    check("reject-short", reject_short_justification)

    def reject_unknown_rule():
        try:
            parse_suppressions(
                "det-cosmic-rays src/sim/a.h Foo -- justification long "
                "enough to pass length check\n", "t")
        except SuppressionError as e:
            assert "unknown rule" in str(e), str(e)
            return
        raise AssertionError("unknown rule accepted")
    check("reject-unknown-rule", reject_unknown_rule)

    def reject_bad_fields():
        try:
            parse_suppressions(
                "det-wallclock src/sim/a.h -- no decl field present here\n",
                "t")
        except SuppressionError as e:
            assert "field" in str(e), str(e)
            return
        raise AssertionError("missing decl field accepted")
    check("reject-bad-fields", reject_bad_fields)

    def matching():
        s = parse_suppressions(
            "det-unordered-iter src/net/host.cc Sum -- suffix matching must "
            "hit the qualified decl\n", "t")[0]
        hit = Finding("det-unordered-iter", "src/net/host.cc", 10,
                      "FlowTable::Sum", "m")
        miss_rule = Finding("det-pointer-key", "src/net/host.cc", 10,
                            "FlowTable::Sum", "m")
        miss_file = Finding("det-unordered-iter", "src/net/port.cc", 10,
                            "FlowTable::Sum", "m")
        miss_decl = Finding("det-unordered-iter", "src/net/host.cc", 10,
                            "FlowTable::Sub", "m")
        assert s.matches(hit), "suffix decl match failed"
        assert not s.matches(miss_rule), "matched across rules"
        assert not s.matches(miss_file), "matched across files"
        assert not s.matches(miss_decl), "matched a different decl"
        wild = parse_suppressions(
            "det-wallclock src/sim/profile.h * -- whole-file allowance for "
            "the host-clock profiler\n", "t")[0]
        assert wild.matches(Finding("det-wallclock", "src/sim/profile.h", 3,
                                    "Anything::AtAll", "m"))
    check("matching", matching)

    def checked_in_file_is_valid():
        entries = load_suppressions(SUPPRESSION_FILE)
        assert entries, f"{SUPPRESSION_FILE} missing or empty"
        for e in entries:
            assert len(e.justification) >= MIN_JUSTIFICATION
    check("checked-in-suppressions-valid", checked_in_file_is_valid)

    def finding_key():
        f = Finding("det-wallclock", "src/sim/a.cc", 7, None, "m")
        assert f.key() == ("det-wallclock", "src/sim/a.cc", "<file-scope>", 7)
    check("finding-key", finding_key)

    if failures:
        for f in failures:
            print(f"astlint selftest FAIL: {f}", file=sys.stderr)
        return 1
    print("astlint: selftest ok (suppression grammar, justification policy, "
          "matching, checked-in file)")
    return 0


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                 add_help=True)
    ap.add_argument("--build-dir", default=None,
                    help="build tree containing compile_commands.json")
    ap.add_argument("--all-tus", action="store_true",
                    help="also parse tests/bench/examples TUs (default: "
                    "src/ only; headers are covered either way)")
    ap.add_argument("--fixture", default=None,
                    help="analyze one standalone fixture TU")
    ap.add_argument("--check-golden", default=None,
                    help="with --fixture: compare findings to this golden "
                    "file (lines: 'rule line decl')")
    ap.add_argument("--probe", action="store_true",
                    help="exit 0 if the libclang engine is available, 3 if "
                    "not")
    ap.add_argument("--selftest", action="store_true",
                    help="pure-python self-test; needs no libclang")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0
    if args.selftest:
        return selftest()

    cindex, index_or_reason = load_engine()
    if args.probe:
        if cindex is None:
            print(f"astlint: engine unavailable: {index_or_reason}",
                  file=sys.stderr)
            return 3
        print("astlint: engine available")
        return 0
    if cindex is None:
        print(f"astlint: skipping — {index_or_reason}. The det-* rules run "
              "where libclang is installed (CI).", file=sys.stderr)
        return 77
    index = index_or_reason

    if args.fixture:
        path = os.path.abspath(args.fixture)
        if not os.path.exists(path):
            print(f"astlint: no such fixture: {path}", file=sys.stderr)
            return 2
        try:
            analyzer = analyze_fixture(cindex, index, path)
        except RuntimeError as e:
            print(f"astlint: {path}: {e}", file=sys.stderr)
            return 2
        lines = fixture_lines(analyzer)
        if args.check_golden:
            return check_golden(lines, args.check_golden)
        for ln in lines:
            print(ln)
        return 0

    build_dir = find_build_dir(args.build_dir)
    if build_dir is None:
        where = args.build_dir or "build*/"
        print(f"astlint: no compile_commands.json under {where}; configure "
              "with `cmake --preset release` first "
              "(CMAKE_EXPORT_COMPILE_COMMANDS is on in every preset)",
              file=sys.stderr)
        return 2
    try:
        suppressions = load_suppressions(SUPPRESSION_FILE)
    except SuppressionError as e:
        print(f"astlint: bad suppression file: {e}", file=sys.stderr)
        return 2
    try:
        analyzer, parsed = analyze_src(cindex, index, build_dir,
                                       all_tus=args.all_tus)
    except RuntimeError as e:
        print(f"astlint: {e}", file=sys.stderr)
        return 2
    print(f"astlint: parsed {parsed} TU(s) from "
          f"{os.path.relpath(build_dir, REPO)}/compile_commands.json",
          file=sys.stderr)
    return report_src(analyzer, suppressions)


if __name__ == "__main__":
    sys.exit(main())
