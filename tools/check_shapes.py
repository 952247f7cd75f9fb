#!/usr/bin/env python3
"""Checks the paper's shape claims on a figure binary's full-length stdout.

    tools/check_shapes.py FIGURE STDOUT_FILE

FIGURE names the bench binary that printed STDOUT_FILE:

  fig07_ne                 measured Ne is within 0.05 of Eq. 1's expected
                           Ne in every row
  fig08_queue              mean queue TFC << DCTCP ~ K << TCP, with << read
                           as at least 4x and ~ K as 0.5-1.5x the 32 KB
                           marking threshold; TFC has 0 drops
  fig12_incast_testbed     TFC has 0 drops and 0 timeouts at every sender
                           count; DCTCP has none up to 50 senders and has
                           timeouts at every count from 60 on
  fig13_benchmark_testbed  query FCT is TFC < DCTCP < TCP, at the mean and
                           at the 99.9th percentile
  fig15_incast_large       every TFC row reaches >= 8.5 Gbps (85% of the
                           10 Gbps bottleneck) with 0.00 maxTO/block
  fig16_benchmark_large    TFC's query mean is at least 3x below DCTCP's,
                           with 0 TFC timeouts

For Figs. 13 and 16, every protocol must also complete the same number of
flows: they run the same seeded traffic, so a count that differs means
they did not.
Prints one line per claim and exits 1 if any claim fails (2 on bad usage or
unparsable output). The `bench_shape_*` ctest cases run it on the output of
`bench_full_*` (docs/correctness.md "Golden outputs").
"""

import re
import sys

BLOCK = re.compile(r"^--- (\w+): (\d+) flows \((\d+) completed\), (\d+) timeouts ---$")
QUERY = re.compile(r"^query\s+n=\d+\s+(.*)$")
STAT = re.compile(r"([\d.]+th|mean)=\s*([\d.]+)(us|ms)")
PROTOCOLS = ("TFC", "DCTCP", "TCP")
# Fig. 12: proto senders goodput(Mbps) avg_queue(KB) max_queue(KB) timeouts drops
FIG12_ROW = re.compile(r"^(TFC|DCTCP|TCP)\s+(\d+)\s+[\d.]+\s+[\d.]+\s+[\d.]+\s+(\d+)\s+(\d+)$")
# Fig. 15: series senders block throughput(Gbps) maxTO/block drops rounds
FIG15_ROW = re.compile(
    r"^(TFC|TCP) -\s*(\d+)\s*KB\s+(\d+)\s+\d+K\s+([\d.]+)\s+([\d.]+)\s+(\d+)\s+\d+$")
FIG15_MIN_GBPS = 8.5  # 85% of the 10 Gbps bottleneck
# Fig. 7: time(s) active_n1 measured_Ne expected_Ne stddev
FIG07_ROW = re.compile(r"^\s*([\d.]+)\s+\d+\s+([\d.]+)\s+([\d.]+)\s+[\d.]+$")
FIG07_MAX_GAP = 0.05
# Fig. 8: proto mean_queue(KB) p-max_queue(KB) sampled_max drops
FIG08_ROW = re.compile(r"^(TFC|DCTCP|TCP)\s+([\d.]+)\s+[\d.]+\s+[\d.]+\s+(\d+)$")
FIG08_K_KB = 32.0  # kDctcpMarkingThreshold1G (src/dctcp/dctcp.h): the testbed's K
FIG08_FACTOR = 4.0  # "<<"


class Unparsable(Exception):
    pass


def parse_benchmark(text):
    """Returns {protocol: {"completed", "timeouts", "mean", "99.9th", ...}}.

    FCT statistics are converted to microseconds.
    """
    blocks = {}
    current = None
    for line in text.splitlines():
        m = BLOCK.match(line)
        if m:
            current = blocks[m.group(1)] = {
                "completed": int(m.group(3)),
                "timeouts": int(m.group(4)),
            }
            continue
        m = QUERY.match(line)
        if m and current is not None:
            for key, value, unit in STAT.findall(m.group(1)):
                current[key] = float(value) * (1000.0 if unit == "ms" else 1.0)
    missing = [p for p in PROTOCOLS if "mean" not in blocks.get(p, {})]
    if missing:
        raise Unparsable(f"no query row for {', '.join(missing)}")
    return blocks


def parse_fig07(text):
    """Returns (time_s, measured_ne, expected_ne) per row."""
    rows = [(float(m.group(1)), float(m.group(2)), float(m.group(3)))
            for m in map(FIG07_ROW.match, text.splitlines()) if m]
    if not rows:
        raise Unparsable("no Ne rows")
    return rows


def parse_fig08(text):
    """Returns {protocol: (mean_queue_kb, drops)}."""
    rows = {m.group(1): (float(m.group(2)), int(m.group(3)))
            for m in map(FIG08_ROW.match, text.splitlines()) if m}
    missing = [p for p in PROTOCOLS if p not in rows]
    if missing:
        raise Unparsable(f"no rows for {', '.join(missing)}")
    return rows


def parse_fig12(text):
    """Returns {protocol: [(senders, timeouts, drops), ...]} in printed order."""
    rows = {}
    for line in text.splitlines():
        m = FIG12_ROW.match(line)
        if m:
            rows.setdefault(m.group(1), []).append(
                (int(m.group(2)), int(m.group(3)), int(m.group(4))))
    missing = [p for p in ("TFC", "DCTCP") if p not in rows]
    if missing:
        raise Unparsable(f"no rows for {', '.join(missing)}")
    return rows


def parse_fig15(text):
    """Returns the TFC rows as (block_kb, senders, gbps, max_to_per_block)."""
    rows = []
    for line in text.splitlines():
        m = FIG15_ROW.match(line)
        if m and m.group(1) == "TFC":
            rows.append((int(m.group(2)), int(m.group(3)), float(m.group(4)),
                         float(m.group(5))))
    if not rows:
        raise Unparsable("no TFC rows")
    return rows


def same_flow_counts(blocks):
    counts = {p: blocks[p]["completed"] for p in PROTOCOLS}
    detail = ", ".join(f"{p} {n}" for p, n in counts.items())
    return len(set(counts.values())) == 1, f"every protocol completes the same flows ({detail})"


def ordered(blocks, stat):
    values = [blocks[p][stat] for p in PROTOCOLS]
    detail = " < ".join(f"{p} {v:.1f}us" for p, v in zip(PROTOCOLS, values))
    return values[0] < values[1] < values[2], f"query {stat}: {detail}"


def fig07(rows):
    t, measured, expected = max(rows, key=lambda r: abs(r[1] - r[2]))
    gap = abs(measured - expected)
    # The columns print two decimals; the slack absorbs float error only.
    return [(gap <= FIG07_MAX_GAP + 1e-9,
             f"measured Ne within {FIG07_MAX_GAP} of expected in all {len(rows)} rows "
             f"(largest gap {gap:.2f} at {t:.2f} s: {measured:.2f} vs {expected:.2f})")]


def fig08(rows):
    tfc, dctcp, tcp = (rows[p][0] for p in PROTOCOLS)
    lo, hi = 0.5 * FIG08_K_KB, 1.5 * FIG08_K_KB
    return [
        (FIG08_FACTOR * tfc <= dctcp,
         f"mean queue: TFC {tfc:.1f} KB x {FIG08_FACTOR:g} <= DCTCP {dctcp:.1f} KB"),
        (lo <= dctcp <= hi,
         f"mean queue: DCTCP {dctcp:.1f} KB within 0.5-1.5 x K = {lo:.1f}-{hi:.1f} KB"),
        (tcp >= FIG08_FACTOR * dctcp,
         f"mean queue: TCP {tcp:.1f} KB >= {FIG08_FACTOR:g} x DCTCP {dctcp:.1f} KB"),
        (rows["TFC"][1] == 0, f"TFC drops: {rows['TFC'][1]} == 0"),
    ]


def fig12(rows):
    def clean(series):
        return all(timeouts == 0 and drops == 0 for _, timeouts, drops in series)

    tfc = rows["TFC"]
    dctcp_low = [r for r in rows["DCTCP"] if r[0] <= 50]
    dctcp_high = [r for r in rows["DCTCP"] if r[0] >= 60]
    return [
        (clean(tfc),
         f"TFC: 0 drops and 0 timeouts at every sender count "
         f"({', '.join(str(n) for n, _, _ in tfc)})"),
        (bool(dctcp_low) and clean(dctcp_low),
         f"DCTCP: 0 drops and 0 timeouts up to 50 senders "
         f"({', '.join(str(n) for n, _, _ in dctcp_low)})"),
        (bool(dctcp_high) and all(timeouts > 0 for _, timeouts, _ in dctcp_high),
         "DCTCP: timeouts at every count from 60 senders ("
         + ", ".join(f"{n}: {timeouts}" for n, timeouts, _ in dctcp_high) + ")"),
    ]


def fig13(blocks):
    return [same_flow_counts(blocks), ordered(blocks, "mean"), ordered(blocks, "99.9th")]


def fig16(blocks):
    tfc, dctcp = blocks["TFC"], blocks["DCTCP"]
    return [
        same_flow_counts(blocks),
        (3.0 * tfc["mean"] <= dctcp["mean"],
         f"query mean: TFC {tfc['mean']:.1f}us x 3 <= DCTCP {dctcp['mean']:.1f}us"),
        (tfc["timeouts"] == 0, f"TFC timeouts: {tfc['timeouts']} == 0"),
    ]


def fig15(rows):
    block_kb, senders, gbps, _ = min(rows, key=lambda r: r[2])
    worst_to = max(r[3] for r in rows)
    return [
        (gbps >= FIG15_MIN_GBPS,
         f"TFC throughput >= {FIG15_MIN_GBPS} Gbps in all {len(rows)} rows "
         f"(lowest {gbps:.2f} Gbps: {senders} senders, {block_kb} KB blocks)"),
        (worst_to == 0.0, f"TFC maxTO/block: worst {worst_to:.2f} == 0.00"),
    ]


CHECKS = {
    "fig07_ne": (parse_fig07, fig07),
    "fig08_queue": (parse_fig08, fig08),
    "fig12_incast_testbed": (parse_fig12, fig12),
    "fig13_benchmark_testbed": (parse_benchmark, fig13),
    "fig15_incast_large": (parse_fig15, fig15),
    "fig16_benchmark_large": (parse_benchmark, fig16),
}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        print(f"usage: {argv[0]} {{{'|'.join(CHECKS)}}} STDOUT_FILE", file=sys.stderr)
        return 2
    parser, check = CHECKS[argv[1]]
    with open(argv[2], encoding="utf-8") as f:
        try:
            parsed = parser(f.read())
        except Unparsable as e:
            print(f"{argv[2]}: {e}", file=sys.stderr)
            return 2
    failed = 0
    for ok, claim in check(parsed):
        print(f"{'ok  ' if ok else 'FAIL'} {argv[1]}: {claim}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
