#!/usr/bin/env python3
"""Checks the paper's shape claims on a figure binary's full-length stdout.

    tools/check_shapes.py FIGURE STDOUT_FILE

FIGURE names the bench binary that printed STDOUT_FILE:

  fig13_benchmark_testbed  query FCT is TFC < DCTCP < TCP, at the mean and
                           at the 99.9th percentile
  fig16_benchmark_large    TFC's query mean is at least 3x below DCTCP's,
                           with 0 TFC timeouts

For both, every protocol must complete the same number of flows: they run
the same seeded traffic, so a count that differs means they did not.
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


def parse(text):
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
    return blocks


def same_flow_counts(blocks):
    counts = {p: blocks[p]["completed"] for p in PROTOCOLS}
    detail = ", ".join(f"{p} {n}" for p, n in counts.items())
    return len(set(counts.values())) == 1, f"every protocol completes the same flows ({detail})"


def ordered(blocks, stat):
    values = [blocks[p][stat] for p in PROTOCOLS]
    detail = " < ".join(f"{p} {v:.1f}us" for p, v in zip(PROTOCOLS, values))
    return values[0] < values[1] < values[2], f"query {stat}: {detail}"


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


CHECKS = {"fig13_benchmark_testbed": fig13, "fig16_benchmark_large": fig16}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        print(f"usage: {argv[0]} {{{'|'.join(CHECKS)}}} STDOUT_FILE", file=sys.stderr)
        return 2
    with open(argv[2], encoding="utf-8") as f:
        blocks = parse(f.read())
    missing = [p for p in PROTOCOLS if "mean" not in blocks.get(p, {})]
    if missing:
        print(f"{argv[2]}: no query row for {', '.join(missing)}", file=sys.stderr)
        return 2
    failed = 0
    for ok, claim in CHECKS[argv[1]](blocks):
        print(f"{'ok  ' if ok else 'FAIL'} {argv[1]}: {claim}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
