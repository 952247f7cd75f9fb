#!/usr/bin/env python3
"""tools/pcsample_report.py must not name a symbol for a sample in a gap.

A stripped C library exports only its dynamic symbols, so its internal
functions (malloc's helpers, for one) sit in gaps between sized exported
symbols. addr2line names the nearest exported symbol for such an address.
This test writes a one-sample profile whose sample lies in such a gap of
this interpreter's own C library and checks that no row of the report names
the symbol before the gap. It also checks that the two inlined tables each
end with the note on where a stalled load's samples land. Exits 77 (skip)
when the C library has no such gap or binutils is missing.

    python3 tests/pcsample_report_test.py tools/pcsample_report.py
"""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile

SKIP = 77


def load_report(path):
    spec = importlib.util.spec_from_file_location("pcsample_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def c_library():
    """Path of the C library mapped into this process, or None."""
    with open("/proc/self/maps") as f:
        for line in f:
            fields = line.split()
            if len(fields) == 6 and os.path.basename(fields[5]).startswith("libc.so"):
                return fields[5]
    return None


def bare(name):
    return name.split("@")[0]


def find_gap(report, lib):
    """(gap address, names at the preceding symbol, its exec segment) or None."""
    syms = report.load_symbols(lib)
    segments = report.load_segments(lib)
    candidates = []  # (gap address, preceding symbol's address, segment)
    for (addr, size, _), (next_addr, _, _) in zip(syms, syms[1:]):
        gap = addr + size
        seg = next((s for s in segments if s[2] <= gap < s[2] + s[1]), None)
        if size != 0 and gap < next_addr and seg is not None:
            candidates.append((gap, addr, seg))
    frames = report.innermost_frames(lib, [c[0] for c in candidates[:200]])
    for gap, addr, seg in candidates[:200]:
        names = {bare(s[2]) for s in syms if s[0] == addr}
        if bare(frames.get(gap, ("??", ""))[0]) in names:  # addr2line misnames it
            return gap, names, seg
    return None


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    if shutil.which("nm") is None or shutil.which("addr2line") is None:
        print("SKIP: needs nm and addr2line")
        return SKIP
    report = load_report(sys.argv[1])
    lib = c_library()
    found = find_gap(report, lib) if lib else None
    if found is None:
        print(f"SKIP: no gap between sized symbols of {lib} that addr2line misnames")
        return SKIP
    gap, names, (seg_off, seg_size, seg_vaddr) = found
    base = 0x7F0000000000
    pc = base + gap - seg_vaddr
    with tempfile.TemporaryDirectory() as tmp:
        profile = os.path.join(tmp, "prof.txt")
        with open(profile, "w") as f:
            f.write("# pcsample v1 hz=10000 samples=1 dropped=0\nmaps\n")
            f.write(f"{base:x}-{base + seg_size:x} r-xp {seg_off:08x} 00:00 0 {lib}\n")
            f.write(f"samples\n{pc:x} 1\n")
        out = subprocess.run([sys.executable, sys.argv[1], profile], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
    obj = f"[{os.path.basename(lib)}]"
    rows = [line for line in out.splitlines() if re.match(r"\s*\d+\s+[\d.]+\s", line)]
    problems = [f"row names {name}: {row.strip()}" for row in rows
                for name in names if re.search(rf"\b{re.escape(name)}\b", row)]
    if len(rows) != 3 or any(not row.endswith(obj) for row in rows):
        problems.append(f"expected one {obj} row per table, got {rows}")
    notes = [line for line in out.splitlines() if line.startswith("note:")]
    if notes != [report.STALL_NOTE] * 2:
        problems.append(f"expected the stall note under the two inlined tables, got {notes}")
    for p in problems:
        print(f"FAIL: sample at {gap:#x} past {sorted(names)}: {p}")
    if not problems:
        print(f"ok: sample at {gap:#x} past {sorted(names)} charged to {obj}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
