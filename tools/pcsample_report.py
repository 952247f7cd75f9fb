#!/usr/bin/env python3
"""Symbolizes a tools/pcsample.cc profile into per-function and per-line tables.

    python3 tools/pcsample_report.py prof.txt

Each sampled program counter is mapped through the recorded /proc/self/maps
to an object file and an ELF address, then attributed three ways:

  - by symbol: the enclosing function from `nm` (inlined callees count
    towards the function they were inlined into);
  - by inlined function: the innermost frame `addr2line -i` reports, so a
    queue operation inlined into Scheduler::Run counts as itself;
  - by inlined line: the innermost frame's file:line.

An address that lies past every sized `nm` symbol (the internals of a
stripped library) counts as its object, `[libc.so.6]`, in all three.

A sample records the instruction the CPU was about to retire, so a load
that stalls on a cache miss charges its samples to the instruction after
it. In the two inlined tables a hot row can therefore be the cost of the
line before it: a `PacketPtr` move that "costs" 5% may be a stall on the
load of a port's owner just above it. Read a hot row together with the
line before it (objdump -dl on the address tells which); the report says
so under each of those tables.

Needs nm and addr2line (binutils) on PATH, and line tables (-g, as in the
RelWithDebInfo builds) for the last two tables.
"""

import argparse
import bisect
import collections
import functools
import os
import struct
import subprocess
import sys

TEXT_TYPES = set("tTwWiI")
TOP = 25  # rows per table
STALL_NOTE = ("note: a stalled load charges its samples to the instruction after it; "
              "read a hot row together with the line before it")


def parse_profile(path):
    """Returns (header, maps, samples): maps as (start, end, offset, path)."""
    maps, samples, section = [], collections.Counter(), None
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("# pcsample v1"):
            raise SystemExit(f"{path}: not a pcsample v1 profile")
        for line in f:
            line = line.rstrip("\n")
            if line in ("maps", "samples"):
                section = line
            elif section == "maps":
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and fields[5].startswith("/") and "x" in fields[1]:
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5]))
            elif section == "samples":
                pc, count = line.split()
                samples[int(pc, 16)] += int(count)
    maps.sort()
    return header, maps, samples


@functools.lru_cache(maxsize=None)
def load_segments(path):
    """PT_LOAD (offset, filesz, vaddr) triples of a 64-bit little-endian ELF."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2 or ident[5] != 1:
                return []
            phoff, = struct.unpack_from("<Q", ident, 32)
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def load_symbols(path):
    """Sorted (address, size, name) of the object's code symbols."""
    for extra in ([], ["-D"]):
        proc = subprocess.run(["nm", "-C", "-S", "-n", "--defined-only", *extra, path],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        syms = []
        for line in proc.stdout.splitlines():
            fields = line.split(maxsplit=3)
            if len(fields) == 4 and fields[2] in TEXT_TYPES:
                syms.append((int(fields[0], 16), int(fields[1], 16), fields[3]))
            elif len(fields) == 3 and fields[1] in TEXT_TYPES:
                syms.append((int(fields[0], 16), 0, fields[2]))
        if syms:
            return syms
    return []


def innermost_frames(path, addrs):
    """Maps ELF address -> (function, file:line) of its innermost inlined frame."""
    proc = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", path],
                          input="".join(f"{a:x}\n" for a in addrs),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    frames, lines, i = {}, proc.stdout.splitlines(), 0
    while i < len(lines):
        addr = int(lines[i], 16)
        func, loc = (lines[i + 1], lines[i + 2]) if i + 2 < len(lines) else ("??", "??:0")
        loc = loc.split(" (discriminator")[0]
        frames[addr] = (func, os.path.relpath(loc) if loc.startswith("/") else loc)
        i += 3
        while i < len(lines) and not lines[i].startswith("0x"):
            i += 1  # outer inline frames
    return frames


def attribute(maps, samples):
    """Returns Counters keyed by symbol, inlined function and inlined line."""
    starts = [m[0] for m in maps]
    by_object = collections.defaultdict(collections.Counter)  # path -> ELF addr -> n
    by_symbol, by_func, by_line = (collections.Counter() for _ in range(3))
    for pc, n in samples.items():
        k = bisect.bisect_right(starts, pc) - 1
        if k < 0 or pc >= maps[k][1]:
            by_symbol["[unmapped]"] += n
            continue
        start, _, offset, path = maps[k]
        file_off = pc - start + offset
        for seg_off, seg_size, seg_vaddr in load_segments(path):
            if seg_off <= file_off < seg_off + seg_size:
                by_object[path][seg_vaddr + file_off - seg_off] += n
                break
        else:
            by_symbol[f"[{os.path.basename(path)}]"] += n
    for path, counts in by_object.items():
        obj = os.path.basename(path)
        syms = load_symbols(path)
        sym_addrs = [s[0] for s in syms]
        frames = innermost_frames(path, sorted(counts))
        for addr, n in counts.items():
            k = bisect.bisect_right(sym_addrs, addr) - 1
            if k < 0 or (syms[k][1] != 0 and addr >= syms[k][0] + syms[k][1]):
                # Past every sized symbol, as in a stripped library's
                # internals: addr2line would name the nearest exported
                # symbol, so all three tables charge the object instead.
                for table in (by_symbol, by_func, by_line):
                    table[f"[{obj}]"] += n
                continue
            by_symbol[f"{syms[k][2]}  [{obj}]"] += n
            func, loc = frames.get(addr, ("??", "??:0"))
            by_func[f"{func}  [{obj}]"] += n
            by_line[f"{loc}  {func}"] += n
    return by_symbol, by_func, by_line


def print_table(title, counter, total, note=None):
    print(f"\n== {title} ==")
    print(f"{'samples':>9} {'%':>6}  name")
    for name, n in counter.most_common(TOP):
        print(f"{n:9d} {100.0 * n / total:6.2f}  {name}")
    if note:
        print(note)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    args = parser.parse_args()
    header, maps, samples = parse_profile(args.profile)
    total = sum(samples.values())
    print(header)
    if total == 0:
        print("no samples")
        return 1
    by_symbol, by_func, by_line = attribute(maps, samples)
    print_table("by symbol (nm)", by_symbol, total)
    print_table("by inlined function (addr2line -i, innermost)", by_func, total, STALL_NOTE)
    print_table("by inlined line", by_line, total, STALL_NOTE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
